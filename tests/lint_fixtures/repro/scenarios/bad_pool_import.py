"""Bad: the process pool loaded at import time, by every cold process."""

import multiprocessing
import concurrent.futures
from concurrent.futures import ProcessPoolExecutor
from concurrent import futures
from multiprocessing.pool import Pool

try:
    import multiprocessing.shared_memory as shm
except ImportError:
    shm = None


def run(jobs):
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return pool, multiprocessing, concurrent, futures, Pool, shm
