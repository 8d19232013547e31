"""usable_cores: the CPU affinity count, capped by a cgroup v2 CPU quota;
blas_threads: the thread count numpy's OpenBLAS reads from the environment;
forked: a forked worker per job, each writing to a buffered file on a pipe
that the parent reads whole."""

import io
import multiprocessing
import os
import signal
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import enns.cores
from enns.cores import blas_threads, forked, usable_cores


@pytest.mark.parametrize(
    "cpu_max, cores",
    [
        ("max 100000\n", 4),  # no quota
        ("100000 100000\n", 1),
        ("150000 100000\n", 2),  # a fraction of a core counts as one
        ("800000 100000\n", 4),  # a quota above the affinity does not raise it
        ("20000 100000\n", 1),
        (None, 4),  # no cpu.max (cgroup v1, or not Linux)
        ("garbage\n", 4),
        ("100000 100000 7\n", 4),
        ("0 100000\n", 4),
        ("", 4),
    ],
)
def test_usable_cores_caps_affinity_by_cgroup_quota(tmp_path, monkeypatch, cpu_max, cores):
    path = tmp_path / "cpu.max"
    if cpu_max is not None:
        path.write_text(cpu_max)
    monkeypatch.setattr(enns.cores, "CPU_MAX", path)
    monkeypatch.setattr(enns.cores.os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    assert usable_cores() == cores


def test_usable_cores_without_affinity_uses_cpu_count(tmp_path, monkeypatch):
    monkeypatch.setattr(enns.cores, "CPU_MAX", tmp_path / "cpu.max")
    monkeypatch.delattr(enns.cores.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(enns.cores.os, "cpu_count", lambda: 3)
    assert usable_cores() == 3
    monkeypatch.setattr(enns.cores.os, "cpu_count", lambda: None)
    assert usable_cores() == 1


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.parametrize(
    "env, threads",
    [
        ({}, 3),  # unset: one thread per usable core
        ({"OPENBLAS_NUM_THREADS": "1"}, 1),
        ({"OPENBLAS_NUM_THREADS": "2"}, 2),
        ({"OPENBLAS_NUM_THREADS": "0"}, 3),
        ({"OPENBLAS_NUM_THREADS": "abc"}, 3),
        ({"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "2"}, 2),
        ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "abc", "OMP_NUM_THREADS": "1"}, 1),
        ({"GOTO_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 4),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 1),  # OpenBLAS's own first
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
    ],
)
def test_blas_threads_reads_the_first_positive_count(monkeypatch, env, threads):
    for name in BLAS_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(enns.cores, "usable_cores", lambda: 3)
    assert blas_threads() == threads


# --- forked: one child per job, each with a pipe to the parent ------------------------
# A worker writes to ``out``, a buffered binary file; a fake that must leave a
# partial result in the pipe writes to its descriptor, past the buffer.


def send_index(i, out):
    out.write(np.int64(i).tobytes())


def send_half_then_die(out):
    os.write(out.fileno(), b"\0" * 4)
    os._exit(1)


def sleep_long(out):
    time.sleep(60)


def send_bytewise(data, out):
    for b in data:
        out.write(bytes([b]))
        out.flush()
        time.sleep(0.001)


def send_unflushed(data, out):
    out.write(data)  # left in the file's buffer when the worker returns


def test_forked_yields_children_in_job_order_and_reaps_them():
    with forked(send_index, [(i,) for i in range(3)]) as children:
        got = np.empty(3, dtype=np.int64)
        for (pipe, _), slot in zip(children, got.reshape(3, 1)):
            assert pipe.readinto(slot) == slot.nbytes
    assert got.tolist() == [0, 1, 2]
    # done or not, each child is killed and joined on leaving the block
    assert all(proc.exitcode is not None for _, proc in children)
    assert all(pipe.closed for pipe, _ in children)
    assert multiprocessing.active_children() == []


def test_worker_that_exits_early_ends_the_read_and_survives_nothing():
    with forked(send_half_then_die, [()]) as children:
        pipe, proc = children[0]
        assert pipe.readinto(np.empty(1, dtype=np.int64)) == 4  # short: the writer is gone
        assert pipe.read() == b""
    assert proc.exitcode == 1
    assert multiprocessing.active_children() == []


def test_parent_raising_mid_read_kills_every_child():
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="mid-read"):
        with forked(sleep_long, [(), ()]) as children:
            raise RuntimeError("mid-read")
    assert time.perf_counter() - start < 30
    assert [proc.exitcode for _, proc in children] == [-signal.SIGKILL] * 2
    assert multiprocessing.active_children() == []


def test_short_pipe_reads_are_completed():
    data = bytes(range(1, 25))
    with forked(send_bytewise, [(data,)]) as children:
        got = np.empty(3, dtype=np.int64)
        assert children[0][0].readinto(got) == got.nbytes
    assert got.tobytes() == data
    assert multiprocessing.active_children() == []

    class Trickle(io.RawIOBase):  # at most 3 bytes a read
        def __init__(self, data):
            self.data = data

        def readable(self):
            return True

        def readinto(self, view):
            n = min(3, len(view), len(self.data))
            view[:n], self.data = self.data[:n], self.data[n:]
            return n

    got = np.zeros(3, dtype=np.int64)
    assert io.BufferedReader(Trickle(data)).readinto(got) == got.nbytes
    assert got.tobytes() == data
    assert io.BufferedReader(Trickle(data[:-1])).readinto(got) == got.nbytes - 1


def test_a_worker_that_returns_without_flushing_is_read_whole():
    data = bytes(range(1, 25))  # far less than the file's buffer
    with forked(send_unflushed, [(data,)]) as children:
        pipe, proc = children[0]
        assert pipe.read() == data  # the child closed, so flushed, the file
        proc.join()
    assert proc.exitcode == 0
    assert multiprocessing.active_children() == []


def test_warned_fork_raises_oserror_and_reaps_the_child(monkeypatch):
    fork = os.fork
    pids = []

    def warned_fork():
        pid = fork()
        if pid:  # as Python 3.12 and later warn in a multi-threaded parent
            pids.append(pid)
            warnings.warn("use of fork() may lead to deadlocks in the child.", DeprecationWarning)
        return pid

    monkeypatch.setattr(os, "fork", warned_fork)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OSError, match="fork warned: use of fork"):
            with forked(send_index, [(0,), (1,)]):
                raise AssertionError("entered the block")
    assert len(pids) == 1  # no second fork after the warned one
    with pytest.raises(ChildProcessError):  # reaped: no child of that pid is left
        os.waitpid(pids[0], os.WNOHANG)
    assert multiprocessing.active_children() == []


def test_forked_raises_oserror_without_affinity(monkeypatch):
    monkeypatch.delattr(enns.cores.os, "sched_getaffinity", raising=False)
    with pytest.raises(OSError, match="no CPU affinity"):
        with forked(send_index, [(0,)]):
            raise AssertionError("entered the block")
    assert multiprocessing.active_children() == []


def raise_value_error(out):
    raise ValueError("not a number")


def test_a_raising_worker_exits_1_without_a_traceback(capfd):
    with forked(raise_value_error, [()]) as children:
        pipe, proc = children[0]
        assert pipe.read() == b""
        proc.join()
    assert proc.exitcode == 1
    assert capfd.readouterr().err == ""


def fill_pipe(out):
    try:
        while True:
            out.write(b"\0" * 65536)
    except BrokenPipeError:
        os._exit(0)


def parent_that_gets_killed(report):
    with forked(fill_pipe, [(), ()]) as children:
        os.write(report, np.array([proc.pid for _, proc in children], dtype=np.int64).tobytes())
        time.sleep(60)


def test_children_of_a_killed_parent_do_not_block_on_their_pipes():
    r, w = os.pipe()
    parent = multiprocessing.get_context("fork").Process(target=parent_that_gets_killed, args=(w,))
    parent.start()
    os.close(w)
    pids = np.empty(2, dtype=np.int64)
    with open(r, "rb") as report:
        assert report.readinto(pids) == pids.nbytes
    parent.kill()  # no chance to leave the block
    parent.join()

    def running(pid):  # an orphan that exited may stay a zombie
        try:
            return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
        except FileNotFoundError:
            return False

    deadline = time.monotonic() + 20
    while any(map(running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    alive = [int(pid) for pid in pids if running(pid)]
    for pid in alive:
        os.kill(pid, signal.SIGKILL)
    assert alive == []
