"""Forked worker processes: how they start, how many, and what a failure does.

``fork`` is the package's only fork. ``split_map`` maps a function over
items on forked children (``grad_check``'s samples, ``compare``'s cells),
``teacher_replica`` runs an EMA teacher's ensemble in one forked child
(``run_training``), and ``usable_cpus`` caps the worker count. Any failure
falls back to this process, with the bits of a one-process run.

This module imports no other ``clusterup`` module: callers pass in the
functions a child runs, and look these names up through the module, so one
monkeypatch reaches every caller.
"""

from __future__ import annotations

import contextlib
import itertools
import mmap
import os
from pathlib import Path

import numpy as np


def fork(child) -> int | None:
    """Run ``child()`` in a forked process and return its pid, or None where
    ``fork`` fails or is missing (Windows); the package's only fork. The
    child inherits every input, so nothing is pickled, and leaves only
    through ``os._exit(0)``, from a ``finally``, so it never unwinds into the
    caller's stack (under a test runner, say). The caller reaps it."""
    if not hasattr(os, "fork"):
        return None
    try:
        pid = os.fork()
    except OSError:
        return None
    if pid == 0:
        try:
            child()
        finally:
            os._exit(0)
    return pid


def split_map(evaluate, n: int, workers: int, width: int = 1) -> list[float]:
    """``[*evaluate(0), ..., *evaluate(n - 1)]`` for ``n >= 1`` items of
    ``width`` floats, over ``min(workers, n)`` processes: this one runs
    share 0, and one child per other share, forked (``fork``) after the
    caller's set-up. Item ``i`` goes to share ``i % 2w`` folded at ``w``
    (w = 2: 0, 1, 1, 0, 0, ...), so alternating cheap and costly items are
    not split by kind. Results are float64 in a shared anonymous ``mmap``
    and keep every bit, and each item sets its done byte there after its
    columns.

    One rule covers every failure (a failed fork, a child that raises or
    dies, this process's share raising ``Exception``): once every child is
    reaped, the items no process marked done are rerun here in index order,
    so a failing item raises the error a one-process run raises first. The
    item this process's share failed at is not evaluated again: its error is
    raised when the rerun reaches it. Without ``fork`` (Windows), or with one
    worker, every share runs here through the same code."""
    workers = min(workers, n)
    lanes = [*range(workers), *reversed(range(workers))]
    shares = [[i for i in range(n) if lanes[i % len(lanes)] == w] for w in range(workers)]
    # Flat memoryviews, not numpy views: a view left alive by a raising item
    # would make closing the mmap raise BufferError over that error.
    with (mmap.mmap(-1, (8 * width + 1) * n) as buf, memoryview(buf) as view,
          view[:-n].cast("d") as out, view[-n:] as done):
        def run(indices) -> None:
            for i in indices:
                for j, value in enumerate(evaluate(i)):
                    out[i * width + j] = value
                done[i] = 1

        children, failed = [], None  # failed: (index, error) of this process's share
        try:
            for share in shares[1:]:
                pid = fork(lambda share=share: run(share))
                if pid is not None:
                    children.append(pid)
            try:
                run(shares[0])
            except Exception as exc:
                failed = next(i for i in shares[0] if not done[i]), exc
        finally:
            for pid in children:
                os.waitpid(pid, 0)
        for i in [i for i in range(n) if not done[i]]:
            if failed is not None and i == failed[0]:
                raise failed[1]
            run([i])
        return out.tolist()


EMA = 255  # the command byte "the student's params are ready; run the EMA"


class TeacherReplica:
    """A forked copy of a model and its teacher (a ``train.ToyModel`` and
    its ``train.ModelTeacher``) that computes each MoE site's ensemble,
    ``forward(teacher.sites[b], x)``, while this process runs the rest of
    the student's forward pass.

    One shared anonymous ``mmap`` holds, for each site ``b``, its input
    ``x[b]`` and ensemble output ``y[b]`` (d x batch) and a copy of the
    student block's ``params[b]``. One-byte commands go down one pipe: ``b``
    ("``x[b]`` is ready; compute ``y[b]``"), answered with the same byte up
    the other pipe, or ``EMA``. The child's model and teacher have the
    caller's bits at the fork, and on ``EMA`` it copies the student's site
    params into its model and runs the same ``update_teacher(teacher,
    model)`` as the caller does on its own teacher, so its outputs equal
    ``forward`` on the caller's teacher bit for bit.

    The caller's teacher stays the authoritative copy: a child that raises
    or dies (its reply pipe at EOF, or ``BrokenPipeError`` on a command) is
    given up, and only outputs whose reply byte arrived are trusted. The
    others are computed here, from the caller's teacher, as are those of an
    input that is not C-contiguous, since the ensemble's bits depend on the
    layout of its input.
    """

    def __init__(self, model, teacher, batch: int, forward, update_teacher):
        self.sites = sorted(teacher.sites)
        d = model.input_dim
        sizes = [size for b in self.sites
                 for size in (d * batch, d * batch, model.blocks[b].params.size)]
        flat = np.frombuffer(mmap.mmap(-1, 8 * sum(sizes)))
        parts = iter(np.split(flat, list(itertools.accumulate(sizes))))
        self.x, self.y, self.params = {}, {}, {}
        for b in self.sites:
            self.x[b], self.y[b] = next(parts).reshape(d, batch), next(parts).reshape(d, batch)
            self.params[b] = next(parts)
        self.pending: list[int] = []  # sites submitted and not yet received
        cmd_r, self.cmd = os.pipe()
        self.reply, reply_w = os.pipe()
        self.pid = fork(lambda: self._serve(model, teacher, forward, update_teacher,
                                            cmd_r, reply_w))
        os.close(cmd_r)
        os.close(reply_w)
        self.live = self.pid is not None

    def _serve(self, model, teacher, forward, update_teacher, cmd: int, reply: int) -> None:
        """The child: answer commands until the command pipe closes."""
        os.close(self.cmd)
        os.close(self.reply)
        while command := os.read(cmd, 1):
            if command[0] == EMA:
                for b in self.sites:
                    model.blocks[b].params = self.params[b]
                update_teacher(teacher, model)
            else:
                b = command[0]
                self.y[b][...] = forward(teacher.sites[b], self.x[b])
                os.write(reply, command)

    def _send(self, command: int) -> bool:
        try:
            os.write(self.cmd, bytes([command]))
        except BrokenPipeError:
            self.live = False
        return self.live

    def submit(self, b: int, x: np.ndarray) -> None:
        """Start site ``b``'s ensemble on its input ``x`` (``model_forward``'s
        ``on_input``)."""
        if self.live and x.flags.c_contiguous:
            self.x[b][...] = x
            if self._send(b):
                self.pending.append(b)

    def receive(self) -> dict[int, np.ndarray]:
        """A copy of each submitted site's output whose reply byte arrives."""
        received = {}
        for b in self.pending:
            if os.read(self.reply, 1):
                received[b] = self.y[b].copy()
            else:
                self.live = False
        self.pending = []
        return received

    def update(self, model) -> None:
        """Hand ``model``'s site params to the child's EMA step."""
        if self.live:
            for b in self.sites:
                self.params[b][...] = model.blocks[b].params
            self._send(EMA)

    def close(self) -> None:
        """End the child, if any, and reap it."""
        os.close(self.cmd)
        if self.pid is not None:
            os.waitpid(self.pid, 0)
        os.close(self.reply)


@contextlib.contextmanager
def teacher_replica(model, teacher, batch: int, workers: int, forward, update_teacher):
    """A ``TeacherReplica`` of ``model`` and ``teacher`` for the ``with``
    block, closed on every exit; None without a teacher site or a second
    worker, where a site's block index does not fit a command byte, or
    where the fork fails."""
    if teacher is None or not teacher.sites or workers < 2 or max(teacher.sites) >= EMA:
        yield None
        return
    replica = TeacherReplica(model, teacher, batch, forward, update_teacher)
    try:
        yield replica if replica.live else None
    finally:
        replica.close()


def cpu_quota(cgroup: Path) -> int | None:
    """The CPU quota of the cgroup mounted at ``cgroup`` in whole CPUs,
    rounded up: v2 ``cpu.max``, else v1 ``cpu.cfs_quota_us`` over
    ``cpu.cfs_period_us``. None when neither file sets one ("max", -1)."""
    for names in (("cpu.max",), ("cpu/cpu.cfs_quota_us", "cpu/cpu.cfs_period_us")):
        try:
            fields = " ".join((cgroup / name).read_text() for name in names).split()
        except OSError:
            continue
        try:
            quota, period = map(int, fields)
        except ValueError:
            return None
        return -(-quota // period) if quota > 0 and period > 0 else None
    return None


def usable_cpus(cgroup: Path = Path("/sys/fs/cgroup")) -> int:
    """The CPUs this process may run on, capped by its cgroup's CPU quota:
    the cap on ``compare``'s, ``gradcheck``'s and ``train-moe``'s workers."""
    if hasattr(os, "sched_getaffinity"):  # Linux only
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    quota = cpu_quota(cgroup)
    return cpus if quota is None else min(cpus, quota)
