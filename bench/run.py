"""Benchmark of the enns command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``bench/workloads.py``) in-process through
``enns.cli.main``, on inputs generated from ``--seed`` with ``enns gen-data``,
and checks every call's output. The enns package is imported from ``src/`` of
the checkout that holds this file, never from an installed copy.

``--trace 0`` calls the CLI in a closed loop, one call after another, cycling
through the workload's input panel: it starts calls for ``--seconds`` seconds,
and at least one more than the panel size. Nothing is wrapped. It reports the end-to-end
metrics:

- ``setup_s``: median seconds to generate and write one panel member's inputs
  (imports are warmed before this is timed), at reference speed (below);
- ``call_s``: median wall seconds of one CLI call, at reference speed;
- ``peak_rss_mb``: peak resident memory of this process;
- ``ok_share``: share of calls that exited 0, passed the output checks, gave the
  same output as earlier calls on the same inputs and had no bag retried or
  dropped;
- ``quality``: the workload's output quality, averaged over the panel (see the
  workload classes).

``--trace 1`` makes two passes over the panel with every listed enns function
wrapped (``bench/tracing.py``) and an untraced pass between them, and reports the
per-layer metrics: self seconds and call counts per CLI call, work counts
computed from argument shapes (``.mb``, ``.gflop``, ``theory.*``), which must be
identical in both traced passes, and the tracing overhead (second traced pass
against the untraced one). Its length is set by the panel, not by ``--seconds``.

A shared machine's speed can move by a third between stretches of a minute or
so, as other tenants come and go. So every set-up and call is bracketed by a
fixed reference kernel (a Python loop and small matrix products), and
``setup_s`` and ``call_s`` scale each measured wall time by ``REFERENCE_S``
over the kernel's mean time around it: seconds on the machine running at the
speed where the kernel takes ``REFERENCE_S``. Raw wall and kernel times are kept in the run record. On a
shared 2-core VM, scaling cut the quartile spread of medians of ten
consecutive stage-wise selection runs (p=1000) from 0.15 to 0.03.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A run record (machine, versions, git
revision, seeds, per-call samples) goes to ``.bench_out/BENCH_<workload>.json``
and, for traced runs, the spans to ``.bench_out/spans_<workload>.jsonl``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads, so that a call's time does not depend
# on how many cores other processes leave free.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.tracing import Tracer  # noqa: E402
from bench.workloads import WORKLOADS, Checked, CheckFailed  # noqa: E402

# A timed run stops starting new calls after this many seconds whatever its
# minimum call count, to stay inside the three-minute budget of one run.
MAX_LOOP_S = 120.0
# Seconds the reference kernel takes at the speed that setup_s and call_s report.
REFERENCE_S = 0.05
# setup_s is a median over at least this many set-ups unless they take this long.
SETUP_SAMPLES = 8
SETUP_BUDGET_S = 3.0

END_TO_END = (
    ("setup_s", "s"),
    ("call_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
    ("quality", "share"),
)

_SPANS = (
    "cli.main", "cli.read_matrix_csv", "network.backward", "network.empirical_loss",
    "network.forward_batch", "network.adagrad_step", "network.dropout_mask",
    "network.Dataset.subset_rows", "network.Dataset.subset_columns", "network.save_model",
    "stagewise.dnp_run", "stagewise.candidate_scores", "ensemble.enns_round",
    "estimation.fit_l1", "estimation.soft_threshold", "estimation.nearest_rank_percentile",
)
_THEORY_SPANS = (
    "theory.mc_first_selection", "theory.mc_select_over", "theory.prob_select_over", "theory.prob_first_correct",
)
PER_LAYER = (
    *((f"{name}.{kind}", unit) for name in _SPANS for kind, unit in (("s", "s"), ("calls", "count"))),
    ("cli.read_matrix_csv.mb", "MB"),
    ("network.backward.gflop", "GFLOP"),
    ("network.Dataset.subset_rows.mb", "MB"),
    ("network.Dataset.subset_columns.mb", "MB"),
    ("stagewise.dnp_run.p50_s", "s"),
    ("stagewise.candidates_scored", "count"),
    ("ensemble.bags", "count"),
    ("ensemble.bags_retried", "count"),
    ("ensemble.bags_dropped", "count"),
    ("ensemble.kept_per_admission", "share"),
    ("estimation.zero_share_min", "share"),
    *((f"{name}.s", "s") for name in _THEORY_SPANS),
    ("theory.mc_draws", "count"),
    ("theory.qr_gflop", "GFLOP"),
    ("simulate.gen_design_uniform.s", "s"),
    ("simulate.gen_response.s", "s"),
    ("process.cpu_s", "s"),
    ("process.cpu_util", "share"),
    ("host.reference_s", "s"),
    ("trace.call_s", "s"),
    ("trace.overhead_s", "s"),
)
# Work counts derived from argument shapes rather than measured.
COMPUTED = (
    "cli.read_matrix_csv.mb", "network.backward.gflop", "network.Dataset.subset_rows.mb",
    "network.Dataset.subset_columns.mb", "theory.mc_draws", "theory.qr_gflop",
)


def import_enns():
    """Import enns from this checkout's ``src/``; ImportError if it is not there."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import enns
    import enns.cli  # noqa: F401  (bound as enns.cli so the tracer sees it)

    if Path(enns.__file__).resolve().parent != (src / "enns").resolve():
        raise ImportError(f"enns was imported from {enns.__file__}, not from {src}")
    return enns


class BagEvents(logging.Handler):
    """Counts the bag retries and drops that ``enns.ensemble`` logs."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.retried = 0
        self.dropped = 0

    def emit(self, record: logging.LogRecord) -> None:
        message = record.getMessage()
        if "retrying" in message:
            self.retried += 1
        elif "dropping" in message:
            self.dropped += 1


class Reference:
    """The fixed kernel timed around every set-up and call (see the module docstring)."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((300, 1000))
        self.b = rng.standard_normal((1000, 10))

    def seconds(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(250_000):
            total += i * i
        for _ in range(100):
            self.a @ self.b
        return time.perf_counter() - start


def at_reference_speed(wall: float, reference: float) -> float:
    return wall * REFERENCE_S / reference


@dataclass
class Call:
    member: int
    wall: float
    cpu: float
    reference: float
    traced: bool
    error: str | None
    checked: Checked | None


class Session:
    """One workload run: set-up, calls, their checks and the collected samples."""

    def __init__(self, workload, seed: int, work_root: Path, enns, trace: bool) -> None:
        self.workload = workload
        self.enns = enns
        self.seeds = [workload.member_seed(seed, i) for i in range(workload.members)]
        self.dirs = [work_root / f"member{i}" for i in range(workload.members)]
        self.tracer = Tracer() if trace else None
        self.events = BagEvents()
        self.reference = Reference()
        self.setup_s: list[float] = []
        self.setup_reference: list[float] = []
        self.calls: list[Call] = []
        self.digests: dict[int, str] = {}
        self.errors: list[str] = []
        self.pass_counts: list[dict] = []

    def set_up(self) -> None:
        """Set up the whole panel, again while fewer than ``SETUP_SAMPLES``
        set-ups took less than ``SETUP_BUDGET_S`` in all; the last inputs stay."""
        while not self.setup_s or (len(self.setup_s) < SETUP_SAMPLES and sum(self.setup_s) < SETUP_BUDGET_S):
            for i, (work, seed) in enumerate(zip(self.dirs, self.seeds)):
                gc.collect()
                before = self.reference.seconds()
                start = time.perf_counter()
                with self.tracer.span("setup", -(i + 1)) if self.tracer else nullcontext():
                    self.workload.setup(self.enns.cli.main, work, seed)
                self.setup_s.append(time.perf_counter() - start)
                self.setup_reference.append((before + self.reference.seconds()) / 2)

    def call(self, member: int, call_id: int | None = None) -> None:
        work = self.dirs[member]
        for path in self.workload.outputs(work):
            path.unlink(missing_ok=True)
        bag_events = self.events.retried + self.events.dropped
        argv = self.workload.argv(work, self.seeds[member])
        span = self.tracer.span("cli.main", call_id) if call_id is not None else nullcontext()
        gc.collect()
        before = self.reference.seconds()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            with span:
                rc = self.enns.cli.main(argv)
        except Exception:  # a crash is one failed call, reported with its traceback
            traceback.print_exc()
            rc = None
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        reference = (before + self.reference.seconds()) / 2
        error, checked = self._check(member, rc, bag_events)
        if error is not None:
            print(f"call {len(self.calls)} on member {member} failed: {error}", file=sys.stderr)
        self.calls.append(Call(member, wall, cpu, reference, call_id is not None, error, checked))

    def _check(self, member: int, rc, bag_events: int):
        if rc != 0:
            return f"exit code {rc}", None
        if self.events.retried + self.events.dropped != bag_events:
            return "an ensemble bag was retried or dropped", None
        try:
            checked = self.workload.check(self.dirs[member])
        except CheckFailed as exc:
            return str(exc), None
        first = self.digests.setdefault(member, checked.digest)
        if checked.digest != first:
            return "output differs from an earlier call on the same inputs", None
        return None, checked

    def timed_run(self, seconds: float) -> None:
        """Start calls until ``seconds`` have passed and every member has been
        called and one repeated, or until ``MAX_LOOP_S``."""
        start = time.perf_counter()
        min_calls = self.workload.members + 1
        while not self.calls or time.perf_counter() - start < (seconds if len(self.calls) >= min_calls else MAX_LOOP_S):
            self.call(len(self.calls) % self.workload.members)

    def traced_run(self) -> None:
        """A traced pass over the panel, an untraced pass, a second traced pass.

        The first pass also warms the process, so the overhead compares the
        two later passes, which run on warm state next to each other.
        """
        members = self.workload.members
        for pass_index in range(2):
            if pass_index == 1:
                for i in range(members):
                    self.call(i)
            self.tracer.counts.clear()
            retried, dropped = self.events.retried, self.events.dropped
            self.tracer.install(self.enns)
            try:
                for i in range(members):
                    self.call(i, pass_index * members + i)
            finally:
                self.tracer.restore()
            counts = dict(self.tracer.counts)
            counts["ensemble.bags_retried"] = float(self.events.retried - retried)
            counts["ensemble.bags_dropped"] = float(self.events.dropped - dropped)
            ids = range(pass_index * members, (pass_index + 1) * members)
            for span in self.tracer.spans:
                if span is not None and span[2] in ids:
                    counts[f"{span[3]}.calls"] = counts.get(f"{span[3]}.calls", 0.0) + 1.0
            self.pass_counts.append(counts)
        if self.pass_counts[0] != self.pass_counts[1]:
            self.errors.append("work counts differ between the two traced passes")

    # --- metrics -----------------------------------------------------------------

    @property
    def failed(self) -> int:
        return sum(c.error is not None for c in self.calls)

    def end_to_end(self) -> dict[str, float]:
        qualities = {}
        for c in self.calls:
            if c.checked is not None:
                qualities.setdefault(c.member, c.checked.quality)
        return {
            "setup_s": statistics.median(map(at_reference_speed, self.setup_s, self.setup_reference)),
            "call_s": statistics.median(at_reference_speed(c.wall, c.reference) for c in self.calls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_share": 1.0 - self.failed / len(self.calls),
            "quality": sum(qualities.get(i, 0.0) for i in range(self.workload.members)) / self.workload.members,
        }

    def per_layer(self) -> dict[str, float]:
        """Per-layer metrics per traced CLI call (``simulate.*`` per set-up)."""
        members = self.workload.members
        traced = [c for c in self.calls if c.traced]
        plain = [c for c in self.calls if not c.traced]
        out = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
        self_call = self.tracer.self_times(range(len(traced)))
        for name in (*_SPANS, *_THEORY_SPANS):
            out[f"{name}.s"] = self_call.get(name, 0.0) / len(traced)
        self_setup = self.tracer.self_times(range(-members, 0))
        for name in ("simulate.gen_design_uniform", "simulate.gen_response"):
            out[f"{name}.s"] = self_setup.get(name, 0.0) / len(self.setup_s)
        counts = self.pass_counts[0]
        out.update({name: value / members for name, value in counts.items() if name in out})
        admissions = counts.get("stagewise.admissions", 0.0)
        checked = [c.checked for c in traced if c.checked is not None]
        if counts.get("ensemble.enns_round.calls") and admissions:
            selected = sum(c.checked.selected for c in traced[:members] if c.checked is not None)
            out["ensemble.kept_per_admission"] = selected / admissions
        shares = [c.zero_share for c in checked if c.zero_share is not None]
        out["estimation.zero_share_min"] = min(shares, default=0.0)
        out["stagewise.dnp_run.p50_s"] = self.dnp_run_percentiles().get("p50_s", 0.0)
        out["process.cpu_s"] = statistics.median(c.cpu for c in plain)
        out["process.cpu_util"] = statistics.median(c.cpu / c.wall for c in plain)
        out["host.reference_s"] = statistics.median(c.reference for c in self.calls)
        out["trace.call_s"] = statistics.fmean(c.wall for c in traced)
        out["trace.overhead_s"] = (
            statistics.median(c.wall for c in traced[members:]) - statistics.median(c.wall for c in plain)
        )
        layer_sum = sum(self_call.values()) / len(traced)
        if layer_sum > out["trace.call_s"] * (1.0 + 1e-9):
            self.errors.append(f"layer self times sum to {layer_sum} s, above the traced call {out['trace.call_s']} s")
        return out

    def dnp_run_percentiles(self) -> dict[str, float]:
        """p50, and p90 once at least ten samples lie beyond it."""
        samples = sorted(self.tracer.durations("stagewise.dnp_run"))
        out = {"count": len(samples)}
        if samples:
            out["p50_s"] = statistics.median(samples)
        if len(samples) >= 100:
            out["p90_s"] = statistics.quantiles(samples, n=10)[-1]
        return out


def git_revision() -> str | None:
    """HEAD of the checkout, read without starting git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_record() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_revision": git_revision(),
    }


def run(workload, seed: int, seconds: float, trace: bool, work_root: Path, enns) -> tuple[Session, dict]:
    """Set up and run one workload; returns the session and its metrics."""
    session = Session(workload, seed, work_root, enns, trace)
    logger = logging.getLogger("enns.ensemble")
    logger.addHandler(session.events)
    try:
        if not trace:
            session.set_up()
            session.timed_run(seconds)
            return session, session.end_to_end()
        session.tracer.install(enns)
        try:
            session.set_up()
        finally:
            session.tracer.restore()
        session.traced_run()
        return session, session.per_layer()
    finally:
        logger.removeHandler(session.events)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        enns = import_enns()
    except ImportError as exc:
        print(f"error: cannot import enns from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_out"
    work_root = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        session, metrics = run(workload, args.seed, args.seconds, bool(args.trace), work_root, enns)
    except CheckFailed as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    units = dict(PER_LAYER if args.trace else END_TO_END)
    result = {
        "correct": session.failed == 0 and not session.errors,
        "attempted": len(session.calls),
        "failed": session.failed + len(session.errors),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    out_dir.mkdir(exist_ok=True)
    suffix = ".trace" if args.trace else ""
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "member_seeds": session.seeds,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "machine": machine_record(),
        "setup_s": session.setup_s,
        "setup_reference_s": session.setup_reference,
        "calls": [{"member": c.member, "wall_s": c.wall, "cpu_s": c.cpu, "reference_s": c.reference,
                   "traced": c.traced, "error": c.error} for c in session.calls],
        "errors": session.errors,
        "computed_counts": list(COMPUTED) if args.trace else [],
        "result": result,
    }
    if args.trace:
        record["dnp_run_percentiles"] = session.dnp_run_percentiles()
        session.tracer.write(out_dir / f"spans_{workload.name}.jsonl")
    with open(out_dir / f"BENCH_{workload.name}{suffix}.json", "w", encoding="utf8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    for error in session.errors:
        print(f"check failed: {error}", file=sys.stderr)
    walls = [c.wall for c in session.calls]
    print(f"{workload.name}: {len(walls)} calls, raw median wall {statistics.median(walls):.6g} s, "
          f"reference kernel median {statistics.median(c.reference for c in session.calls):.6g} s")
    for name, entry in result["metrics"].items():
        label = " (computed)" if name in COMPUTED else ""
        print(f"{workload.name} {name} = {entry['value']:.6g} {entry['unit']}{label}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
