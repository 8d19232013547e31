"""Spans around calls into the enns modules, recorded from outside the package.

``Tracer.install`` replaces every module attribute that is bound to a traced
function (``stagewise.backward`` is the same object as ``network.backward``, and
``network._train_loop`` looks ``backward`` up as a module global), so a call is
seen whichever name it goes through. ``Dataset`` methods are replaced on the
class. ``restore`` puts every original back. Nothing is installed unless the
benchmark asks for a traced run.

A span is ``(span_id, parent_id, call_id, name, start, end)``; spans stay in
memory until the run ends. A span's self time is its duration minus the part of
it that its child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterable


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# --- computed work counts -------------------------------------------------------
# Each takes (counts, args, kwargs) and adds work derived from argument shapes
# only, so the totals repeat exactly for a fixed seed.


def _csv_mb(counts, args, kwargs):
    counts["cli.read_matrix_csv.mb"] += os.path.getsize(_arg(args, kwargs, 0, "path")) / 1e6


def _backward_gflop(counts, args, kwargs):
    params = _arg(args, kwargs, 0, "params")
    n = _arg(args, kwargs, 2, "data").x.shape[0]
    sizes = [w.shape[0] * w.shape[1] for w in params.weights]
    # forward pass, weight gradients, and deltas pushed below every layer but W_0
    counts["network.backward.gflop"] += 2.0 * n * (2 * sum(sizes) + sum(sizes[1:])) / 1e9


def _subset_rows_mb(counts, args, kwargs):
    data, idx = args[0], _arg(args, kwargs, 1, "idx")
    counts["network.Dataset.subset_rows.mb"] += len(idx) * (data.x.shape[1] + 1) * 8 / 1e6


def _subset_columns_mb(counts, args, kwargs):
    data, cols = args[0], _arg(args, kwargs, 1, "cols")
    counts["network.Dataset.subset_columns.mb"] += data.x.shape[0] * len(cols) * 8 / 1e6


def _dnp_admissions(counts, args, kwargs):
    counts["stagewise.admissions"] += _arg(args, kwargs, 2, "s_target")


def _candidates(counts, args, kwargs):
    counts["stagewise.candidates_scored"] += len(_arg(args, kwargs, 3, "state").candidates)


def _bags(counts, args, kwargs):
    counts["ensemble.bags"] += _arg(args, kwargs, 3, "cfg").num_bags


def _mc_first(counts, args, kwargs):
    p = _arg(args, kwargs, 0, "profile").p
    n = _arg(args, kwargs, 1, "n")
    reps = _arg(args, kwargs, 2, "reps")
    counts["theory.mc_draws"] += reps
    # reduced QR of an n x p block: Householder factorization plus forming Q
    counts["theory.qr_gflop"] += reps * (4.0 * n * p * p - 4.0 * p**3 / 3.0) / 1e9


def _mc_pair(counts, args, kwargs):
    counts["theory.mc_draws"] += _arg(args, kwargs, 3, "reps")


# (span name, module, attribute path, work counter)
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("cli.read_matrix_csv", "cli", "read_matrix_csv", _csv_mb),
    ("network.backward", "network", "backward", _backward_gflop),
    ("network.empirical_loss", "network", "empirical_loss", None),
    ("network.forward_batch", "network", "forward_batch", None),
    ("network.adagrad_step", "network", "adagrad_step", None),
    ("network.dropout_mask", "network", "dropout_mask", None),
    ("network.save_model", "network", "save_model", None),
    ("network.Dataset.subset_rows", "network", "Dataset.subset_rows", _subset_rows_mb),
    ("network.Dataset.subset_columns", "network", "Dataset.subset_columns", _subset_columns_mb),
    ("stagewise.dnp_run", "stagewise", "dnp_run", _dnp_admissions),
    ("stagewise.candidate_scores", "stagewise", "candidate_scores", _candidates),
    ("ensemble.enns_round", "ensemble", "enns_round", _bags),
    ("estimation.fit_l1", "estimation", "fit_l1", None),
    ("estimation.soft_threshold", "estimation", "soft_threshold", None),
    ("estimation.nearest_rank_percentile", "estimation", "nearest_rank_percentile", None),
    ("theory.mc_first_selection", "theory", "mc_first_selection", _mc_first),
    ("theory.mc_select_over", "theory", "mc_select_over", _mc_pair),
    ("theory.prob_select_over", "theory", "prob_select_over", None),
    ("theory.prob_first_correct", "theory", "prob_first_correct", None),
    ("simulate.gen_design_uniform", "simulate", "gen_design_uniform", None),
    ("simulate.gen_response", "simulate", "gen_response", None),
)


class Tracer:
    """In-memory span recorder with install/restore of the function wrappers."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self.call_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- spans ---------------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        span_id = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id: int, parent: int, name: str, start: float) -> None:
        self.spans[span_id] = (span_id, parent, self.call_id, name, start, time.perf_counter())
        self._stack.pop()

    @contextmanager
    def span(self, name: str, call_id: int):
        """A span of the benchmark's own; ``call_id`` labels its descendants."""
        self.call_id = call_id
        span_id, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(span_id, parent, name, start)

    def wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(self.counts, args, kwargs)
            span_id, parent = self._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span_id, parent, name, start)

        return traced

    # --- install / restore ---------------------------------------------------

    def install(self, package) -> None:
        """Wrap every target under every name that ``package`` or one of its
        submodules binds to it."""
        modules = [package] + [mod for mod in vars(package).values() if type(mod) is type(package)]
        for name, module_name, attr_path, count in TARGETS:
            owner = getattr(package, module_name)
            *class_path, attr = attr_path.split(".")
            for part in class_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, count)
            if class_path:
                bindings = [(owner, attr)]
            else:
                bindings = [(m, a) for m in modules for a, v in list(vars(m).items()) if v is original]
            for holder, holder_attr in bindings:
                self._patches.append((holder, holder_attr, original))
                setattr(holder, holder_attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    # --- analysis ------------------------------------------------------------

    def self_times(self, call_ids: Iterable[int]) -> dict[str, float]:
        """Total self seconds per span name over the spans of ``call_ids``."""
        wanted = set(call_ids)
        spans = [s for s in self.spans if s is not None and s[2] in wanted]
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, parent, _, _, start, end in spans:
            children[parent].append((start, end))
        totals: dict[str, float] = defaultdict(float)
        for span_id, _, _, name, start, end in spans:
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            totals[name] += (end - start) - covered
        return dict(totals)

    def durations(self, name: str) -> list[float]:
        return [s[5] - s[4] for s in self.spans if s is not None and s[3] == name]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
