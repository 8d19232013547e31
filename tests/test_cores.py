"""usable_cores: the CPU affinity count, capped by a cgroup v2 CPU quota."""

import pytest

import enns.cores
from enns.cores import usable_cores


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
