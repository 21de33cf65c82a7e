"""Forked worker processes: how they start, how many, and what a failure does.

``fork`` is the package's only fork. ``split_map`` maps a function over
items on forked children (``grad_check``'s samples, ``compare``'s cells),
``teacher_replica`` runs an EMA teacher, its EMA steps and its ensembles,
in one forked child (``run_training``), and ``usable_cpus`` caps the worker
count. Any failure falls back to this process, with the bits of a
one-process run.

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
    its ``train.ModelTeacher``) that owns the teacher's EMA and computes each
    MoE site's ensemble, ``forward(teacher.sites[b], x)``, while this process
    runs the rest of the student's forward pass.

    One shared anonymous ``mmap`` holds, for each site ``b``, its input
    ``x[b]`` and ensemble output ``y[b]`` (d x batch), the student block's
    buffer ``params[b]``, and two publication slots ``slots[0][b]`` and
    ``slots[1][b]``. For the replica's lifetime ``model.blocks[b]`` is a view
    of ``params[b]`` (``MoeLayer._view``), so this process's SGD writes it in
    place and the child's EMA reads it there. One-byte commands go down one
    pipe, each answered with the same byte up the other: ``b`` ("``x[b]`` is
    ready; compute ``y[b]``"), or ``EMA``, on which the child runs
    ``update_teacher(teacher, model)``, the same step this process would run
    on its own teacher, and copies its teacher into slot ``s % 2`` (EMA step
    ``s``) before it answers. Its outputs equal ``forward`` on a one-process
    teacher bit for bit.

    This process's ``teacher`` is brought up to date only where it is read
    (``sync``). Every EMA reply ("ack") is read before the next SGD step
    writes the student's buffers, so a child that raises or dies (its reply
    pipe at EOF, or ``BrokenPipeError`` on a command) loses at most the one
    EMA step it did not ack: ``sync`` copies the last published slot and
    replays that step on the student's buffers, which still hold what the
    child read. The child is then given up, and only outputs whose reply
    byte arrived are trusted. The others are computed here, as are those of
    an input that is not C-contiguous, since the ensemble's bits depend on
    the layout of its input. ``close`` gives the student its private
    buffers back, so no later fork can write them.
    """

    def __init__(self, model, teacher, batch: int, forward, update_teacher):
        self.model, self.teacher = model, teacher
        self.forward, self.update_teacher = forward, update_teacher
        self.sites = sorted(teacher.sites)
        d = model.input_dim
        sizes = [size for b in self.sites
                 for size in (d * batch, d * batch, *[model.blocks[b].params.size] * 3)]
        flat = np.frombuffer(mmap.mmap(-1, 8 * sum(sizes)))
        parts = iter(np.split(flat, list(itertools.accumulate(sizes))))
        self.x, self.y, self.params, self.slots = {}, {}, {}, ({}, {})
        for b in self.sites:
            self.x[b], self.y[b] = next(parts).reshape(d, batch), next(parts).reshape(d, batch)
            self.params[b], self.slots[0][b], self.slots[1][b] = itertools.islice(parts, 3)
        self.pending: list[int] = []  # sites submitted and not yet received
        self.sent = self.acked = self.synced = 0  # EMA steps sent, acked, in ``teacher``
        cmd_r, self.cmd = os.pipe()
        self.reply, reply_w = os.pipe()
        for b in self.sites:  # last, after what can raise: ``close`` gives them back
            self.params[b][...] = model.blocks[b].params
            model.blocks[b]._view(self.params[b])
        self.pid = fork(lambda: self._serve(cmd_r, reply_w))
        os.close(cmd_r)
        os.close(reply_w)
        self.live = self.pid is not None

    def _serve(self, cmd: int, reply: int) -> None:
        """The child: answer commands until the command pipe closes."""
        os.close(self.cmd)
        os.close(self.reply)
        step = 0
        while command := os.read(cmd, 1):
            if command[0] == EMA:
                self.update_teacher(self.teacher, self.model)
                self._publish(step)
                step += 1
            else:
                b = command[0]
                self.y[b][...] = self.forward(self.teacher.sites[b], self.x[b])
            os.write(reply, command)

    def _publish(self, step: int) -> None:
        """The child: copy its teacher after EMA step ``step`` into slot
        ``step % 2``."""
        for b in self.sites:
            self.slots[step % 2][b][...] = self.teacher.sites[b].mirror.params

    def _send(self, command: int) -> bool:
        try:
            os.write(self.cmd, bytes([command]))
        except BrokenPipeError:
            self.live = False
            self.sync()
        return self.live

    def _read_ack(self) -> None:
        """Read the ack of the last EMA step sent, if it is still unread."""
        if self.acked < self.sent:
            if os.read(self.reply, 1):
                self.acked += 1
            else:
                self.live = False

    def sync(self) -> None:
        """Bring ``teacher`` up to the last EMA step sent: copy the last
        published slot into it and, where the child died before it acked
        that step, replay it here."""
        if self.synced == self.sent:
            return
        self._read_ack()
        if self.synced < self.acked:
            for b in self.sites:
                self.teacher.sites[b].mirror.params = self.slots[(self.acked - 1) % 2][b]
            self.synced = self.acked
        if self.synced < self.sent:
            self.update_teacher(self.teacher, self.model)
            self.synced = self.sent

    def submit(self, b: int, x: np.ndarray) -> None:
        """Start site ``b``'s ensemble on its input ``x`` (``model_forward``'s
        ``on_input``)."""
        if self.live and x.flags.c_contiguous:
            self.x[b][...] = x
            if self._send(b):
                self.pending.append(b)

    def receive(self) -> dict[int, np.ndarray]:
        """Read the last EMA step's ack, then return a copy of each submitted
        site's output whose reply byte arrives. Called before every SGD step;
        where the child has died, ``teacher`` is brought up to date first."""
        self._read_ack()
        received = {}
        for b in self.pending:
            if os.read(self.reply, 1):
                received[b] = self.y[b].copy()
            else:
                self.live = False
        self.pending = []
        if not self.live:
            self.sync()
        return received

    def update(self) -> bool:
        """Whether the child takes the EMA step on the student's buffers as
        they now stand; else the caller runs it on ``teacher``, which is up
        to date."""
        if self.live and self._send(EMA):
            self.sent += 1
        return self.live

    def close(self) -> None:
        """Bring ``teacher`` up to date, end the child, if any, and reap it,
        and give each student site a private copy of its buffer."""
        try:
            self.sync()
        finally:
            os.close(self.cmd)
            if self.pid is not None:
                os.waitpid(self.pid, 0)
            os.close(self.reply)
            for b in self.sites:
                self.model.blocks[b]._view(self.params[b].copy())


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
