"""Good: the pool is imported in the branch that builds one."""

import multiprocessing_utils  # not multiprocessing: names match whole components


def run(jobs, fn, cells):
    if jobs == 1:
        return [fn(cell) for cell in cells]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, cells)), multiprocessing_utils


def context():
    import multiprocessing

    return multiprocessing.get_context("spawn")
