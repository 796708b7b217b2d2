"""Fixture: waits on a child that block until it exits (all flagged)."""

import os
from os import waitpid


def reap(pid):
    os.waitpid(pid, 0)
    os.wait()
    waitpid(pid, options=0)
    os.waitpid(pid, os.WUNTRACED)
