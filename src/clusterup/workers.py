"""Forked worker processes: how they start, how many, and what a failure does.

``fork`` is the package's only fork. ``split_map`` maps a function over
items on forked children (``grad_check``'s samples, ``compare``'s cells),
``teacher_replica`` runs an EMA teacher, its EMA steps and its ensembles,
in one forked child (``run_training``), and ``usable_cpus`` caps the worker
count. One rule covers a failure of either: the work a child lost is redone
in this process, with the bits of a one-process run.

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


class ReplicaLost(Exception):
    """The replica's child is gone: a command met a closed pipe, or a reply is at EOF."""


class TeacherReplica:
    """A forked copy of a model and its teacher (a ``train.ToyModel`` and
    its ``train.ModelTeacher``) that runs the teacher's EMA and computes each
    MoE site's ensemble, ``forward(teacher.sites[b], x)``, while this process
    runs the rest of the student's forward pass.

    One shared anonymous ``mmap`` holds, for each site ``b``, its input
    ``x[b]`` and ensemble output ``y[b]`` (d x batch) and the buffers of the
    student block and of the teacher's mirror. For the replica's lifetime
    both blocks are views of the mapping (``MoeLayer._view``), so this
    process's SGD writes the student in place, and the child's EMA reads it
    there and writes the teacher in place. One-byte commands go down one
    pipe, each answered with the same byte up the other: ``b`` ("``x[b]`` is
    ready; compute ``y[b]``"), or ``EMA``, on which the child runs
    ``update_teacher(teacher, model)``, the same step this process would run.
    Its outputs equal ``forward`` on a one-process teacher bit for bit.

    ``pending`` lists every command whose reply is unread, and ``receive``
    reads them all before this process reads the teacher or writes the
    student. Any failure of the child raises ``ReplicaLost``; the teacher may
    then be torn, so the caller redoes its work without the replica. An
    input that is not C-contiguous is not sent, since the ensemble's bits
    depend on the layout of its input: the caller computes it. ``close``
    gives both blocks private buffers back, so no later fork can write them.
    """

    def __init__(self, model, teacher, batch: int, forward, update_teacher):
        self.model, self.teacher = model, teacher
        self.forward, self.update_teacher = forward, update_teacher
        self.sites = sorted(teacher.sites)
        self.blocks = [block for b in self.sites  # each site's student, then its teacher
                       for block in (model.blocks[b], teacher.sites[b].mirror)]
        d, n = model.input_dim, len(self.sites)
        sizes = [d * batch] * 2 * n + [block.params.size for block in self.blocks]
        parts = np.split(np.frombuffer(mmap.mmap(-1, 8 * sum(sizes))),
                         list(itertools.accumulate(sizes)))
        self.x = {b: part.reshape(d, batch) for b, part in zip(self.sites, parts[:n])}
        self.y = {b: part.reshape(d, batch) for b, part in zip(self.sites, parts[n:])}
        self.pending: list[int] = []  # every command whose reply is unread
        cmd_r, self.cmd = os.pipe()
        self.reply, reply_w = os.pipe()
        # Last, after what can raise: ``close`` gives the blocks their buffers back.
        for block, buf in zip(self.blocks, parts[2 * n:]):
            buf[...] = block.params
            block._view(buf)
        self.pid = fork(lambda: self._serve(cmd_r, reply_w))
        os.close(cmd_r)
        os.close(reply_w)

    def _serve(self, cmd: int, reply: int) -> None:
        """The child: answer commands until the command pipe closes."""
        os.close(self.cmd)
        os.close(self.reply)
        while command := os.read(cmd, 1):
            if command[0] == EMA:
                self.update_teacher(self.teacher, self.model)
            else:
                b = command[0]
                self.y[b][...] = self.forward(self.teacher.sites[b], self.x[b])
            os.write(reply, command)

    def _send(self, command: int) -> None:
        try:
            os.write(self.cmd, bytes([command]))
        except BrokenPipeError:
            raise ReplicaLost from None
        self.pending.append(command)

    def submit(self, b: int, x: np.ndarray) -> None:
        """Start site ``b``'s ensemble on its input ``x`` (``model_forward``'s
        ``on_input``), unless ``x`` is not C-contiguous."""
        if x.flags.c_contiguous:
            self.x[b][...] = x
            self._send(b)

    def receive(self) -> dict[int, np.ndarray]:
        """Read every outstanding reply, EMA steps included, and return a copy
        of each submitted site's output. Called before every SGD step."""
        received, pending, self.pending = {}, self.pending, []
        for command in pending:
            if not os.read(self.reply, 1):
                raise ReplicaLost
            if command != EMA:
                received[command] = self.y[command].copy()
        return received

    def update(self) -> None:
        """Have the child take the EMA step on the student's buffers as they
        now stand."""
        self._send(EMA)

    def close(self, read: bool = True) -> None:
        """Read the outstanding replies (with ``read``), end and reap the child,
        if any, and give every student and teacher site a private buffer."""
        try:
            if read:
                self.receive()
        finally:
            os.close(self.cmd)
            if self.pid is not None:
                os.waitpid(self.pid, 0)
            os.close(self.reply)
            for block in self.blocks:
                block._view(block.params.copy())


@contextlib.contextmanager
def teacher_replica(model, teacher, batch: int, workers: int, forward, update_teacher):
    """A ``TeacherReplica`` of ``model`` and ``teacher`` for the ``with``
    block, closed on every exit; None without a teacher site or a second
    worker, where a site's block index does not fit a command byte, or
    where the fork fails. An interrupt, which the child may have taken too,
    leaves the replies unread, so it never becomes ``ReplicaLost``."""
    if teacher is None or not teacher.sites or workers < 2 or max(teacher.sites) >= EMA:
        yield None
        return
    replica = TeacherReplica(model, teacher, batch, forward, update_teacher)
    try:
        yield replica if replica.pid is not None else None
    except BaseException as exc:
        replica.close(read=isinstance(exc, Exception))
        raise
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
