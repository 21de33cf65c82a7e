import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail any test that leaves a child process, running or unreaped: the
    package forks through ``workers.fork``, in ``workers.split_map`` and for
    ``run_training``'s teacher replica (``workers.teacher_replica``), and
    both must reap every child.
    Every exited child is reaped here, so the next test starts clean."""
    yield
    if not hasattr(os, "fork"):
        return
    left = []
    while not left or left[-1] != 0:  # pid 0: a child still running
        try:
            left.append(os.waitpid(-1, os.WNOHANG)[0])
        except ChildProcessError:
            break
    if left:
        pytest.fail(f"child processes left behind (0 if still running): {left}")
