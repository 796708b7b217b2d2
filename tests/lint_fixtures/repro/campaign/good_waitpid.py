"""Fixture: child waits that return at once (WNOHANG polls)."""

import os
from os import WNOHANG


def poll(pid):
    os.waitpid(pid, os.WNOHANG)
    os.waitpid(pid, os.WNOHANG | os.WUNTRACED)
    os.waitpid(pid, WNOHANG)
    os.waitstatus_to_exitcode(0)
