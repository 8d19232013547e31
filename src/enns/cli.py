"""Command-line front door: data generation, selection, estimation,
repeated experiments and verification of the selection-probability formulas.

External conventions: feature indices are 1-based and match the x1..xp CSV
headers; floats are serialized with 17 significant digits so files round-trip
bit-exactly; exit codes are 0 (ok), 1 (usage/config error), 2 (data error)
and 3 (numerical failure).
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import io
import json
import math
import os
import re
import shutil
import stat
import sys
import time
import typing
import warnings
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Optional, Sequence

import numpy as np

from .cores import forked, usable_cores
from .ensemble import EnnsConfig, SelectionReport, enns_select
from .estimation import SPARSITY_MODES, SparsitySpec, fit_l1
from .metrics import METRIC_COLUMNS, PredictionMetrics, classification_metrics, regression_metrics, selection_metrics
from .network import (
    ACTIVATIONS,
    TASKS,
    Dataset,
    NetworkArchitecture,
    NetworkParameters,
    NumericalError,
    TrainOptions,
    forward_batch,
    model_to_json,
    train,
    xavier_init,
)
from .seeding import derive_seed, spawn_rng
from .simulate import DEFAULT_GENERATOR_HIDDEN, RESPONSE_KINDS, GroundTruth, ResponseSpec, gen_response
from .simulate import gen_design_correlated, gen_design_uniform
from .stagewise import DnpConfig, dnp_run

FLOAT_FMT = "%.17g"


class UsageError(Exception):
    """Bad flags, bad config keys or inconsistent request."""


class DataError(Exception):
    """Unreadable or malformed input files, or an output that cannot be written."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route to exit code 1
        raise UsageError(message)


def _fmt(value: float) -> str:
    return FLOAT_FMT % value


def _cell(value: float) -> str:
    """A results-CSV cell: NaN (a metric that does not apply) is left empty."""
    return "" if math.isnan(value) else _fmt(value)


# --- file output ------------------------------------------------------------------


@contextmanager
def _writing(path):
    """An ``OSError`` in the block becomes a ``DataError`` naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from exc


@contextmanager
def _atomic_open(path):
    """Text handle on a temp file beside ``path`` that replaces ``path`` only
    once the block completes; a failed write leaves any earlier file intact
    and no temp file, and an ``OSError`` becomes a ``DataError`` naming ``path``."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    with _writing(path):
        try:
            with open(tmp, "w", encoding="utf8", newline="\n") as fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            with suppress(OSError):  # no temp file, or its directory is a file
                tmp.unlink()
            raise


def _check_output_dirs(*paths: Optional[str]) -> None:
    """Before any work, the ``DataError`` that ``_atomic_open`` would raise after
    it for an output (None is standard output) that is a directory or in a missing one."""
    for path in (Path(p) for p in paths if p is not None):
        with _writing(path):
            os.stat(os.path.join(path.parent, ""))  # with the slash, a file is ENOTDIR
            if path.is_dir() and not path.is_symlink():  # os.replace replaces a symlink
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))


def _write_csv(path, header: Sequence[str], rows: Iterable[Iterable[str]]) -> None:
    with _atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _write_json(doc: dict, path: Optional[str]) -> None:
    text = json.dumps(doc, indent=2, allow_nan=False)  # NaN and Infinity are not JSON
    if path is None:
        print(text)
    else:
        with _atomic_open(path) as fh:
            fh.write(text + "\n")


# --- CSV input and output -----------------------------------------------------------


# A file's data lines are split into k = min(usable_cores(), data bytes // _RANGE_BYTES)
# ranges when k >= 2: range 0 parsed here, 1..k-1 in forked workers. Reading 1 to
# 6 MB files of 300 rows on a 2-core x86-64 VM took 12, 24, 35, 46, 57 and 68 ms
# in one range; 16, 23, 30, 36, 43 and 53 ms in two workers (the earlier scheme);
# 13, 19, 26, 32, 38 and 45 ms in range 0 here and one worker. The break-even
# lies near a 1.2 MB file (0.6 MB ranges); 2 MB keeps a margin for the costlier
# fork of a larger process and splits a 6.2 MB file (n=300, p=1000). Formatting
# costs more than parsing, so the write splits by cells (_RANGE_CELLS).
_RANGE_BYTES = 2_000_000

# A matrix is written over k = min(usable_cores(), cells // _RANGE_CELLS) row
# ranges, each formatted in a forked worker, when k >= 2. On the same VM two
# workers against one process took 32.5 against 24.0 ms at 30,000 cells, 53.3
# against 52.5 ms at 60,000, 84.5 against 100 ms at 120,000 and 182 against
# 259 ms at 300,000; 100,000 keeps a margin for the costlier fork of a larger process.
_RANGE_CELLS = 100_000


def _write_rows(fh, matrix: np.ndarray) -> None:
    """The rows of a 2-D ``matrix`` as CSV lines on the text handle ``fh``."""
    line = ",".join([FLOAT_FMT] * matrix.shape[1]) + "\n"
    for row in matrix:
        fh.write(line % tuple(row.tolist()))


def _rows_worker(matrix: np.ndarray, start: int, stop: int, out: BinaryIO) -> None:
    """Forked worker: rows [start, stop) of ``matrix`` to the binary pipe ``out``,
    formatted first, as the parent copies the ranges in order (streamed, a
    later range would wait on its pipe)."""
    text = io.StringIO()
    _write_rows(text, matrix[start:stop])
    out.write(text.getvalue().encode("utf8"))


def _write_split(fh, matrix: np.ndarray) -> bool:
    """``_write_rows`` over row ranges in forked workers, whose pipes are copied
    in order, in bounded chunks. False, with nothing written, when the matrix
    is too small to split, when ``forked`` raises, or when a worker fails."""
    k = min(usable_cores(), matrix.size // _RANGE_CELLS)
    if k < 2:
        return False
    fh.flush()
    out = fh.buffer
    start = out.tell()
    cuts = [i * len(matrix) // k for i in range(k + 1)]
    try:
        with forked(_rows_worker, [(matrix, a, b) for a, b in zip(cuts, cuts[1:])]) as workers:
            for pipe, proc in workers:
                shutil.copyfileobj(pipe, out, 1 << 20)
                proc.join()
                if proc.exitcode != 0:
                    raise EOFError
        return True
    except (OSError, EOFError):
        out.seek(start)
        out.truncate()
        return False


def write_matrix_csv(path: Path, header: Sequence[str], matrix: np.ndarray) -> None:
    """``header`` and the rows of ``matrix`` (a vector is one row) as a CSV file
    of 17-significant-digit cells, replacing ``path`` only once complete. A
    large matrix is formatted in forked workers, one per usable core; if any
    fails, every row is written here, so bytes and errors are those of one process."""
    matrix = np.atleast_2d(matrix)
    with _atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        if not _write_split(fh, matrix):
            _write_rows(fh, matrix)


def _parse_lines(lines) -> np.ndarray:
    """np.loadtxt's float64 matrix of CSV data lines: a text handle or any
    iterable of lines. Lines without data give zero rows."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # loadtxt warns on no data rows
        return np.loadtxt(lines, dtype=np.float64, delimiter=",", ndmin=2, comments=None)


class _Range(io.RawIOBase):
    """Bytes [start, stop) of the file open as ``fd``, read with ``os.pread``,
    which leaves the descriptor's offset, shared with forked children, alone."""

    def __init__(self, fd: int, start: int, stop: int):
        self.fd, self.at, self.stop = fd, start, stop

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        data = os.pread(self.fd, min(len(buf), self.stop - self.at), self.at)
        if not data and self.at < self.stop:
            raise OSError("file shrank during the parse")
        buf[: len(data)] = data
        self.at += len(data)
        return len(data)


def _parse_range(fd: int, start: int, stop: int) -> np.ndarray:
    """``_parse_lines`` of bytes [start, stop) of the file open as ``fd``, decoded
    with universal newlines as the one-range parse reads them."""
    return _parse_lines(io.TextIOWrapper(_Range(fd, start, stop), encoding="utf8"))


def _range_worker(fd: int, start: int, stop: int, out: BinaryIO) -> None:
    """Forked worker: ``_parse_range``'s matrix to the binary pipe ``out``, its
    shape (two int64) first; a range that fails to parse writes nothing."""
    x = _parse_range(fd, start, stop)
    out.write(np.array(x.shape, dtype=np.int64).tobytes())
    out.write(x)


def _parse_split(path, opened: os.stat_result, fields: int) -> Optional[np.ndarray]:
    """The matrix of the data lines of ``path`` parsed over line-aligned byte
    ranges, the first here and the others in forked workers, grown in place.
    ``opened`` is the status of the handle the caller read the header from.

    None, and the caller parses the file as one range, when that handle is not
    a regular file (a pipe cannot be read twice), when the file is too small
    to split, when ``forked`` raises, or when any range fails to parse (here
    or in a worker) or disagrees with the header on the column count."""
    if not stat.S_ISREG(opened.st_mode):
        return None
    with open(path, "rb") as fh:  # the workers read it too
        if not os.path.samestat(os.fstat(fh.fileno()), opened):
            return None  # the path names another file by now
        head = fh.readline()
        start = fh.tell()
        size = opened.st_size
        k = min(usable_cores(), (size - start) // _RANGE_BYTES)
        # a lone CR ends the header early for the text reader, which would then
        # start the data at another byte than this one
        if k < 2 or b"\r" in head[:-2]:
            return None
        cuts = [start]
        for i in range(1, k):
            fh.seek(max(cuts[-1], start + i * (size - start) // k))
            fh.readline()
            cuts.append(fh.tell())
        cuts.append(size)
        try:
            with forked(_range_worker, [(fh.fileno(), a, b) for a, b in zip(cuts[1:], cuts[2:])]) as workers:
                first = _parse_range(fh.fileno(), cuts[0], cuts[1])
                shapes = np.array([first.shape] * k, dtype=np.int64)
                for (pipe, _), shape in zip(workers, shapes[1:]):
                    if pipe.readinto(shape) < shape.nbytes:
                        raise EOFError
                rows, cols = shapes.T
                if np.any((rows > 0) & (cols != fields)):
                    return None
                x, first = first, None  # x is the one reference: resize grows it in place
                x.resize((rows.sum(), fields))
                for (pipe, _), end, n in zip(workers, np.cumsum(rows)[1:], rows[1:]):
                    if pipe.readinto(x[end - n : end]) < n * fields * x.itemsize:
                        raise EOFError
        except (OSError, EOFError, ValueError):  # ValueError: range 0's parse, or resize
            return None
    return x


def read_matrix_csv(path) -> tuple[list[str], np.ndarray]:
    """Header and float64 matrix of a comma-separated file; blank lines are
    skipped, and every other data line must have one field per header name.

    The data lines of a large file are parsed in line-aligned byte ranges, one
    per usable core: the first here, the others in forked workers. The matrix
    is the one a single parse gives, bit for bit: if any range fails, the whole
    file is parsed here instead, so every error reads as from that parse."""
    try:
        with open(path, encoding="utf8") as fh:
            header_line = fh.readline()
            if not header_line:
                raise DataError(f"{path}: empty file")
            header = header_line.rstrip("\r\n").split(",")
            x = _parse_split(path, os.fstat(fh.fileno()), len(header))
            if x is None:
                x = _parse_lines(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
    if x.shape[0] == 0:
        raise DataError(f"{path}: no data rows")
    if x.shape[1] != len(header):
        raise DataError(f"{path}: expected {len(header)} fields per row, got {x.shape[1]}")
    return header, x


def load_dataset(x_path, y_path, task: str) -> Dataset:
    _, x = read_matrix_csv(x_path)
    y_header, y = read_matrix_csv(y_path)
    if y.shape[1] != 1:
        raise DataError(f"{y_path}: expected a single response column, got {y.shape[1]}")
    try:
        return Dataset(x, y[:, 0], task)
    except ValueError as exc:
        raise DataError(str(exc)) from exc


# --- small flag parsers --------------------------------------------------------------


def _list_of(item: Callable[[str], object], expected: str) -> Callable[[str], tuple]:
    """A converter of comma-separated ``item``s, empty ones skipped, whose ``UsageError`` expects ``expected``."""

    def convert(text: str) -> tuple:
        try:
            return tuple(item(v) for v in text.split(",") if v != "")
        except ValueError as exc:
            raise UsageError(f"expected {expected}, got {text!r}") from exc

    return convert


def _pair(text: str) -> tuple[int, int]:
    s, p = text.split(":")  # ValueError unless one colon
    return int(s), int(p)


_int_list = _list_of(int, "a comma-separated integer list")
_float_list = _list_of(float, "a comma-separated number list")
_pairs = _list_of(_pair, "s:p pairs like '1:2,3:20'")


# --- experiment config file -----------------------------------------------------------


def _key(default=dataclasses.MISSING, **metadata) -> dataclasses.Field:
    """A config key with metadata: "convert", "choices", "flag" or "field" (the value-class field it sets)."""
    return field(default=default, metadata=metadata)


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """Validated contents of a run-experiment config file, and the one
    declaration of the options that gen-data, select and estimate share with it.

    Every field is a config key; a field without a default is a required key.
    Values are converted by the field's type, or by ``metadata["convert"]``
    for the comma-separated list keys, and must be one of
    ``metadata["choices"]`` where that is given. A subcommand takes a field as
    the flag ``--field-name``, or ``metadata["flag"]``, with the same default.
    """

    design: str = _key("uniform", choices=("uniform", "correlated"))
    rho: Optional[float] = None
    n: int
    p: int
    response: str = _key(choices=RESPONSE_KINDS)
    task: str = _key("regression", choices=TASKS)
    s: int
    coef_mean: Optional[float] = None
    coef_sd: Optional[float] = None
    noise_sd: float = 1.0
    net_hidden: tuple[int, ...] = _key(DEFAULT_GENERATOR_HIDDEN, convert=_int_list)
    method: str = _key("enns", choices=("enns", "dnp"))
    s0: int = _key(field="target_s0")
    bags: int = _key(10, field="num_bags")
    ps: float = _key(0.3, field="appearance_proportion")
    bootstrap_size: Optional[int] = None
    per_round: Optional[int] = None
    b1: int = _key(2, field="num_dropouts")
    dropout_rate: float = 0.5
    norm_q: float = 2.0
    hidden: tuple[int, ...] = _key((10,), convert=_int_list, field="hidden_sizes")
    activation: str = _key("relu", choices=ACTIVATIONS)
    learning_rate: float = 0.1
    max_epochs: int = _key(50, flag="--epochs")
    batch_size: Optional[int] = None
    patience: int = 0
    sparsity_mode: str = _key("none", choices=("none", *SPARSITY_MODES))
    sparsity_values: Optional[tuple[float, ...]] = _key(None, convert=_float_list, field="per_layer_values")
    repetitions: int = 1
    train_fraction: float = 0.6
    validation_fraction: float = 0.2
    test_fraction: float = 0.2
    seed: int = 0
    output: Optional[str] = None


# Resolved once, at import: ``main`` builds the parser on every call.
_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
_HINTS = typing.get_type_hints(ExperimentConfig)


def _converter(key: str) -> Callable[[str], object]:
    if "convert" in _FIELDS[key].metadata:
        return _FIELDS[key].metadata["convert"]
    # Optional[X] converts with X
    return next((a for a in typing.get_args(_HINTS[key]) if a is not type(None)), _HINTS[key])


def parse_experiment_config(text: str) -> ExperimentConfig:
    """Parse the flat ``key = value`` config format; unknown keys are errors."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _FIELDS:
            raise UsageError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise UsageError(f"config line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _converter(key)(val)
        except (ValueError, UsageError) as exc:  # the list converters raise UsageError
            raise UsageError(f"config line {lineno}: bad value for {key}: {exc}") from exc
    for key, f in _FIELDS.items():
        if key not in values and f.default is dataclasses.MISSING:
            raise UsageError(f"config is missing required key {key!r}")
    cfg = ExperimentConfig(**values)
    _validate_experiment_config(cfg)
    return cfg


def _validate_experiment_config(cfg: ExperimentConfig) -> None:
    for key, f in _FIELDS.items():
        if "choices" in f.metadata and getattr(cfg, key) not in f.metadata["choices"]:
            raise UsageError(f"unknown {key} {getattr(cfg, key)!r}")
    if not 1 <= cfg.s0 <= cfg.p:
        raise UsageError(f"s0 must be in 1..p, got s0 = {cfg.s0} with p = {cfg.p}")
    fractions = (cfg.train_fraction, cfg.validation_fraction, cfg.test_fraction)
    if not all(0.0 <= f <= 1.0 for f in fractions):
        raise UsageError("train/validation/test fractions must each be in [0, 1]")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise UsageError("train/validation/test fractions must sum to 1")
    for key in ("train_fraction", "test_fraction"):
        if math.floor(getattr(cfg, key) * cfg.n) == 0:
            raise UsageError(f"{key} leaves no rows: floor({key} * n) is 0 for n = {cfg.n}")
    if cfg.repetitions < 1:
        raise UsageError("repetitions must be >= 1")
    if cfg.seed < 0:
        raise UsageError(f"seed must be non-negative, got {cfg.seed}")


# --- the pipeline, shared by the subcommands and run-experiment ---------------------
# ``src`` is the parsed flags or an ExperimentConfig: the flags that these read
# are generated from ExperimentConfig's fields, with the field names as dests.


def _flag(key: str) -> str:
    return _FIELDS[key].metadata.get("flag", "--" + key.replace("_", "-"))


@contextmanager
def _named(src):
    """A ``ValueError`` in the block becomes a ``UsageError`` naming the flags or config keys of ``src``."""
    try:
        yield
    except ValueError as exc:
        config = isinstance(src, ExperimentConfig)
        names = {f.metadata.get("field", k): k if config else _flag(k) for k, f in _FIELDS.items() if k in vars(src)}
        if "val_fraction" in vars(src):  # select's and estimate's own flag
            names["validation_fraction"] = "--val-fraction"
        raise UsageError(re.sub(r"\w+", lambda m: names.get(m[0], m[0]), str(exc))) from exc


class _Settings(typing.NamedTuple):
    """A command's value classes, built from ``src`` before any data are read or
    drawn: the network (``input_dim`` 0), training options, selector and sparsity."""

    arch: NetworkArchitecture
    opts: TrainOptions
    selector: Optional[EnnsConfig]  # None for estimate; under dnp, its target_s0 and dnp settings
    sparsity: Optional[SparsitySpec]  # None for plain training


def _settings(src, validation_fraction: float) -> _Settings:
    with _named(src):
        opts = TrainOptions(src.learning_rate, src.max_epochs, src.batch_size, src.patience, validation_fraction)
        selector = sparsity = None
        if "method" in vars(src):  # select and run-experiment
            dnp = DnpConfig(src.norm_q, src.b1, src.dropout_rate, opts)
            selector = EnnsConfig(src.s0, src.bags, src.bootstrap_size, src.ps, src.per_round, dnp)
        arch = NetworkArchitecture(0, src.hidden, src.activation, src.task)
        if getattr(src, "sparsity_mode", "none") != "none":  # estimate and run-experiment
            sparsity = SparsitySpec(src.sparsity_mode, src.sparsity_values)
            sparsity.validate_for(arch)
        elif getattr(src, "sparsity_values", None) is not None:
            raise ValueError("per_layer_values need a sparsity_mode other than none")
        return _Settings(arch, opts, selector, sparsity)


def _response_spec(src) -> ResponseSpec:
    """The response of gen-data or run-experiment, checked with ``p`` and ``rho`` before any design is drawn."""
    with _named(src):
        spec = ResponseSpec(src.response, src.task, src.s, src.coef_mean, src.coef_sd, src.noise_sd, src.net_hidden)
        if src.n < 1:
            raise ValueError(f"n must be positive, got {src.n}")
        if spec.s > src.p:
            raise ValueError(f"s exceeds p ({spec.s} > {src.p})")
        if (src.design == "correlated") != (src.rho is not None):
            raise ValueError("rho must be given exactly when design is correlated")
        if src.rho is not None and not 0.0 <= src.rho < 1.0:
            raise ValueError("rho must be in [0, 1)")
        return spec


def _generate(src, spec: ResponseSpec, seed: int) -> tuple[np.ndarray, np.ndarray, GroundTruth]:
    """Design matrix, response and ground truth for one seeded dataset."""
    if src.design == "correlated":
        x = gen_design_correlated(src.n, src.p, src.rho, derive_seed(seed, "design"))
    else:
        x = gen_design_uniform(src.n, src.p, derive_seed(seed, "design"))
    y, truth = gen_response(x, spec, derive_seed(seed, "response"))
    return x, y, truth


def _select(data: Dataset, settings: _Settings, method: str, seed: int) -> SelectionReport:
    """Ensemble or stage-wise selection by ``method``; a stage-wise result is one complete pass without rounds."""
    if method == "enns":
        return enns_select(data, settings.arch, settings.selector, seed)
    order = dnp_run(data, settings.arch, settings.selector.target_s0, settings.selector.dnp, seed)
    return SelectionReport(tuple(order), per_round_appearances=(), complete=True)


def _fit(data_fit: Dataset, settings: _Settings, seed: int) -> tuple[NetworkParameters, NetworkArchitecture]:
    """Plain training or the l1 soft-threshold fit, by ``settings.sparsity``."""
    arch = dataclasses.replace(settings.arch, input_dim=data_fit.p)
    if settings.sparsity is None:
        return train(xavier_init(arch, seed), arch, data_fit, settings.opts, seed), arch
    return fit_l1(data_fit, arch, settings.sparsity, settings.opts, seed), arch


def _prediction_metrics(task: str, y: np.ndarray, preds: np.ndarray) -> PredictionMetrics:
    if task == "regression":
        return regression_metrics(y, preds)
    return classification_metrics(y, preds, threshold=0.5)


# --- subcommands -----------------------------------------------------------------


def cmd_gen_data(args) -> int:
    spec = _response_spec(args)
    out = Path(args.out_dir)
    with _writing(out), suppress(FileNotFoundError):  # made once the data are drawn
        os.stat(os.path.join(out, ""))  # with the slash, a file is ENOTDIR
        _check_output_dirs(out / "X.csv", out / "y.csv", out / "truth.json")
    x, y, truth = _generate(args, spec, args.seed)
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(out / "X.csv", [f"x{j + 1}" for j in range(args.p)], x)
    write_matrix_csv(out / "y.csv", ["y"], y[:, None])
    keys = ("n", "p", "design", "rho", "response", "task", "s", "noise_sd")
    truth_doc = {"support": [j + 1 for j in truth.support], "seed": args.seed}
    _write_json({**truth_doc, **{k: getattr(args, k) for k in keys}}, out / "truth.json")
    return 0


def cmd_select(args) -> int:
    settings = _settings(args, args.val_fraction)
    _check_output_dirs(args.out)
    data = load_dataset(args.x, args.y, args.task)
    if args.s0 > data.p:
        raise UsageError(f"s0={args.s0} exceeds the number of columns ({data.p})")
    start = time.perf_counter()
    report = _select(data, settings, args.method, args.seed)
    doc = {
        "method": args.method,
        "s0": args.s0,
        "seed": args.seed,
        "selected": [j + 1 for j in report.selected],
        "complete": report.complete,
        "rounds": [
            {"round": i + 1, "appearances": {str(j + 1): c for j, c in sorted(counts.items())}}
            for i, counts in enumerate(report.per_round_appearances)
        ],
        "wall_clock_seconds": time.perf_counter() - start,
    }
    _write_json(doc, args.out)
    return 0


def cmd_estimate(args) -> int:
    if not 0.0 <= args.test_fraction < 1.0:
        raise UsageError(f"--test-fraction must be in [0, 1), got {args.test_fraction}")
    settings = _settings(args, args.val_fraction)
    if (args.selected is None) == (args.selection_json is None):
        raise UsageError("give exactly one of --selected and --selection-json")
    if args.selection_json is None:
        selected_1based = list(args.selected)
    else:
        try:
            with open(args.selection_json, encoding="utf8") as fh:
                selected_1based = json.load(fh)["selected"]
        except (OSError, KeyError, TypeError, json.JSONDecodeError) as exc:
            raise DataError(f"cannot read selection from {args.selection_json}: {exc}") from exc
        # bool is an int subclass, so compare types exactly
        if not isinstance(selected_1based, list) or any(type(j) is not int for j in selected_1based):
            raise DataError(f"{args.selection_json}: 'selected' must be a list of integers")
    if len(set(selected_1based)) != len(selected_1based):
        raise UsageError(f"selected columns repeat: {selected_1based}")
    if not selected_1based:
        raise UsageError("no columns selected")
    if args.metrics_out is not None and os.path.realpath(args.metrics_out) == os.path.realpath(args.model_out):
        raise UsageError(f"--model-out and --metrics-out name the same file: {args.metrics_out}")
    _check_output_dirs(args.model_out, args.metrics_out)
    data = load_dataset(args.x, args.y, args.task)
    for j in selected_1based:
        if not 1 <= j <= data.p:
            raise UsageError(f"selected column {j} outside 1..{data.p}")
    selected = [j - 1 for j in selected_1based]

    n_test = int(math.floor(args.test_fraction * data.n))
    perm = spawn_rng(args.seed, "estimate-split").permutation(data.n)
    test_idx, fit_idx = perm[:n_test], perm[n_test:]
    data_sel = data.subset_columns(selected)
    params, arch = _fit(data_sel.subset_rows(fit_idx), settings, derive_seed(args.seed, "fit"))
    _write_json({**model_to_json(params, arch), "selected_columns": [j + 1 for j in selected]}, args.model_out)

    metrics_doc = {"task": args.task, "n_test": n_test, "metrics": {}}
    if n_test > 0:
        preds = forward_batch(params, arch, data_sel.x[test_idx])
        values = _prediction_metrics(args.task, data.y[test_idx], preds).as_dict()  # null: not finite or n/a
        metrics_doc["metrics"] = {k: None if v is None or not math.isfinite(v) else v for k, v in values.items()}
    _write_json(metrics_doc, args.metrics_out)
    return 0


def _experiment_repetition(cfg: ExperimentConfig, spec: ResponseSpec, settings: _Settings, rep_seed: int) -> list[float]:
    """The numeric results-CSV columns of one repetition; NaN for a metric
    that is undefined (AUC with one class in the test rows)."""
    x, y, truth = _generate(cfg, spec, rep_seed)
    data = Dataset(x, y, cfg.task)
    n_test = int(math.floor(cfg.test_fraction * cfg.n))
    perm = spawn_rng(rep_seed, "split").permutation(cfg.n)
    test_idx, rest_idx = perm[:n_test], perm[n_test:]
    data_rest = data.subset_rows(rest_idx)

    report = _select(data_rest, settings, cfg.method, derive_seed(rep_seed, cfg.method))
    selected = list(report.selected)
    if selected:
        params, arch = _fit(data_rest.subset_columns(selected), settings, derive_seed(rep_seed, "fit"))
        preds = forward_batch(params, arch, x[test_idx][:, selected])
    else:
        # no features: predict the mean response (a share in [0, 1] for 0/1 labels)
        preds = np.full(n_test, float(np.mean(data_rest.y)))
    sel = selection_metrics(selected, truth.support)
    values = _prediction_metrics(cfg.task, y[test_idx], preds).as_dict().values()
    return [
        float(len(selected)),
        float(sel.true_positives),
        float(sel.false_positive_rate),
        *[float("nan") if v is None else float(v) for v in values],
    ]


def run_experiment(cfg: ExperimentConfig) -> tuple[list[str], list[list[str]]]:
    """All repetition rows plus mean and standard-error aggregate rows."""
    spec = _response_spec(cfg)
    inner_val = cfg.validation_fraction / max(cfg.train_fraction + cfg.validation_fraction, 1e-12)
    settings = _settings(cfg, inner_val)
    metric_cols = METRIC_COLUMNS[cfg.task]
    header = ["repetition", "seed", "status", "n_selected", "correct_count", "false_positive_rate", *metric_cols]
    rows: list[list[str]] = []
    numeric: list[list[float]] = []
    for rep in range(cfg.repetitions):
        rep_seed = derive_seed(cfg.seed, "rep", rep)
        try:
            record = _experiment_repetition(cfg, spec, settings, rep_seed)
        except NumericalError:
            rows.append([str(rep + 1), str(rep_seed), "failed"] + [""] * (3 + len(metric_cols)))
            continue
        numeric.append(record)
        rows.append([str(rep + 1), str(rep_seed), "ok", *map(_cell, record)])
    if numeric:
        means, stderr = _column_mean_stderr(np.asarray(numeric))
        rows.append(["mean", "", "", *map(_cell, means)])
        rows.append(["stderr", "", "", *map(_cell, stderr)])
    return header, rows


def _column_mean_stderr(table: np.ndarray) -> tuple[list[float], list[float]]:
    means, errs = [], []
    for col in table.T:
        vals = col[~np.isnan(col)]
        if vals.size == 0:
            means.append(float("nan"))
            errs.append(float("nan"))
        else:
            means.append(float(vals.mean()))
            errs.append(float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0)
    return means, errs


def cmd_run_experiment(args) -> int:
    try:
        text = Path(args.config).read_text(encoding="utf8")
    except OSError as exc:
        raise DataError(f"cannot read config {args.config}: {exc}") from exc
    cfg = parse_experiment_config(text)
    out = args.out or cfg.output
    if out is None:
        raise UsageError("no output path: set 'output' in the config or pass --out")
    _check_output_dirs(out)
    header, rows = run_experiment(cfg)
    _write_csv(out, header, rows)
    return 0


def _agreement(tol: float, analytic: float, mc: float, **case) -> dict:
    delta = abs(analytic - mc)
    return {**case, "analytic": analytic, "monte_carlo": mc, "abs_delta": delta, "pass": delta < tol}


def cmd_verify_theory(args) -> int:
    from concurrent.futures import ThreadPoolExecutor  # as theory, loaded for this command only
    from . import theory  # loaded here, for this command only
    if not (args.pair_betas and args.sigmas or args.first_cases):
        raise UsageError("no cases to verify")
    rules = {"finite": math.isfinite, "positive": lambda value: value > 0}
    for flag, values, checks in (
        ("--reps", [args.reps], "positive"), ("--pair-betas", args.pair_betas, "finite"),
        ("--beta-support", [args.beta_support], "finite"), ("--sigmas", args.sigmas, "positive finite"),
        ("--first-sigma", [args.first_sigma], "positive finite"), ("--pair-tol", [args.pair_tol], "positive finite"),
        ("--first-tol", [args.first_tol], "positive finite"),
    ):
        for value in values:
            for rule in checks.split():  # in order, so NaN reads as not positive
                if not rules[rule](value):
                    raise UsageError(f"{flag} must be {rule}, got {value}")
    profiles = []  # every case checked before any probability is computed
    for s, p in args.first_cases:
        if not 1 <= s <= p:
            raise UsageError(f"--first-cases {s}:{p}: s must be in 1..p")
        profiles.append(theory.SignalProfile(np.repeat([args.beta_support, 0.0], [s, p - s]), args.first_sigma, s))
    _check_output_dirs(args.out)
    pairs = [(bj, bk, sigma) for sigma in args.sigmas for bj in args.pair_betas for bk in args.pair_betas]
    # the pair cases, each on its own seed, run on one side thread beside the first cases' blocks
    side = ThreadPoolExecutor(1)
    try:
        wins = [side.submit(theory.pair_wins, *case, args.reps, derive_seed(args.seed, "pair", *map(_fmt, case)))
                for case in pairs]
        first_cases = []
        for (s, p), profile in zip(args.first_cases, profiles):
            analytic = theory.prob_first_correct(profile)
            try:
                mc = theory.mc_first_selection(profile, p + 10, args.reps, derive_seed(args.seed, "first", s, p))
            except MemoryError as exc:
                raise UsageError(f"--first-cases {s}:{p}: {str(exc) or 'out of memory'}") from exc
            case = dict(s=s, p=p, beta=args.beta_support, sigma=args.first_sigma, n=p + 10)
            first_cases.append(_agreement(args.first_tol, analytic, mc, **case))
        pair_cases = [_agreement(args.pair_tol, theory.prob_select_over(bj, bk, sigma), won.result() / args.reps,
                                 beta_j=bj, beta_k=bk, sigma=sigma) for (bj, bk, sigma), won in zip(pairs, wins)]
    finally:  # after an error or an interrupt too: drop the queued pair cases and join the thread
        side.shutdown(cancel_futures=True)
    doc = {
        "seed": args.seed,
        "reps": args.reps,
        "pair_tolerance": args.pair_tol,
        "first_tolerance": args.first_tol,
        "pair_cases": pair_cases,
        "first_selection_cases": first_cases,
        "all_pass": all(c["pass"] for c in pair_cases + first_cases),
    }
    _write_json(doc, args.out)
    return 0


# --- parser ------------------------------------------------------------------------


def _add_config_flags(parser: argparse.ArgumentParser, *keys: str) -> None:
    """The ExperimentConfig fields ``keys`` as flags, in that order: default,
    converter and choices are the field's, and a field without a default is a
    required flag."""
    for key in keys:
        f = _FIELDS[key]
        default = {"required": True} if f.default is dataclasses.MISSING else {"default": f.default}
        parser.add_argument(_flag(key), dest=key, type=_converter(key), choices=f.metadata.get("choices"), **default)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="enns", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    training = ("hidden", "activation", "learning_rate", "max_epochs", "batch_size", "patience")

    g = sub.add_parser("gen-data", help="generate a synthetic dataset as CSV files")
    g.add_argument("--out-dir", required=True)
    _add_config_flags(g, "n", "p", "design", "rho", "response", "task", "s")
    _add_config_flags(g, "coef_mean", "coef_sd", "noise_sd", "net_hidden", "seed")
    g.set_defaults(func=cmd_gen_data)

    s = sub.add_parser("select", help="run variable selection on CSV data")
    s.add_argument("--x", required=True)
    s.add_argument("--y", required=True)
    _add_config_flags(s, "task", "method", "s0", "bags", "ps", "bootstrap_size", "per_round")
    _add_config_flags(s, "b1", "dropout_rate", "norm_q", *training)
    s.add_argument("--val-fraction", type=float, default=0.0)
    _add_config_flags(s, "seed")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_select)

    e = sub.add_parser("estimate", help="fit a model on selected columns and report test metrics")
    e.add_argument("--x", required=True)
    e.add_argument("--y", required=True)
    _add_config_flags(e, "task")
    e.add_argument("--selected", type=_int_list, default=None, help="1-based column indices")
    e.add_argument("--selection-json", default=None, help="output of the select subcommand")
    _add_config_flags(e, *training, "sparsity_mode", "sparsity_values")
    # not the config's fractions: shares of the given rows, with their own defaults
    e.add_argument("--val-fraction", type=float, default=0.0)
    e.add_argument("--test-fraction", type=float, default=0.25)
    _add_config_flags(e, "seed")
    e.add_argument("--model-out", required=True)
    e.add_argument("--metrics-out", default=None)
    e.set_defaults(func=cmd_estimate)

    r = sub.add_parser("run-experiment", help="run a seeded repeated experiment from a config file")
    r.add_argument("--config", required=True)
    r.add_argument("--out", default=None)
    r.set_defaults(func=cmd_run_experiment)

    v = sub.add_parser("verify-theory", help="compare the probability formulas with simulation")
    v.add_argument("--pair-betas", type=_float_list, default=(0.0, 1.0, 2.0, 3.0))
    v.add_argument("--sigmas", type=_float_list, default=(0.5, 1.0, 2.0))
    v.add_argument("--first-cases", type=_pairs, default=((1, 2), (3, 20), (5, 50)))
    v.add_argument("--beta-support", type=float, default=2.0)
    v.add_argument("--first-sigma", type=float, default=1.0)
    v.add_argument("--reps", type=int, default=100_000)
    v.add_argument("--pair-tol", type=float, default=0.01)
    v.add_argument("--first-tol", type=float, default=0.02)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", default=None)
    v.set_defaults(func=cmd_verify_theory)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "seed", 0) < 0:  # every command but run-experiment, whose config is checked
            raise UsageError(f"--seed must be non-negative, got {args.seed}")
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
