"""The command-line surface, pinned: every flag of every subcommand with its
option string, dest, default, required flag, choices and converter, in
``--help`` order. A refactor of the parser must leave this table unchanged;
a flag, default or choice that is added or lost fails it."""

import argparse

import pytest

from enns.cli import build_parser

# Each converter is pinned by what it makes of these strings: the value's
# repr, or the name of the exception it raises.
SAMPLES = ("3", "-2.5", "1,2", "nan", "inf", "relu", "1:2", "")

CONVERTERS = {
    "str": ["'3'", "'-2.5'", "'1,2'", "'nan'", "'inf'", "'relu'", "'1:2'", "''"],
    "int": ["3"] + ["ValueError"] * 7,
    "float": ["3.0", "-2.5", "ValueError", "nan", "inf", "ValueError", "ValueError", "ValueError"],
    "int_list": ["(3,)", "UsageError", "(1, 2)", "UsageError", "UsageError", "UsageError", "UsageError", "()"],
    "float_list": ["(3.0,)", "(-2.5,)", "(1.0, 2.0)", "(nan,)", "(inf,)", "UsageError", "UsageError", "()"],
    "pairs": ["UsageError"] * 6 + ["((1, 2),)", "()"],
}

REQUIRED = object()  # a required flag; its default is None

TASKS = ("regression", "classification")
TRAINING = [
    ("--hidden", "hidden", (10,), None, "int_list"),
    ("--activation", "activation", "relu", ("relu", "sigmoid"), "str"),
    ("--learning-rate", "learning_rate", 0.1, None, "float"),
    ("--epochs", "max_epochs", 50, None, "int"),
    ("--batch-size", "batch_size", None, None, "int"),
    ("--patience", "patience", 0, None, "int"),
]

# option string, dest, default (or REQUIRED), choices, converter
SURFACE = {
    "gen-data": [
        ("--out-dir", "out_dir", REQUIRED, None, "str"),
        ("--n", "n", REQUIRED, None, "int"),
        ("--p", "p", REQUIRED, None, "int"),
        ("--design", "design", "uniform", ("uniform", "correlated"), "str"),
        ("--rho", "rho", None, None, "float"),
        ("--response", "response", REQUIRED, ("linear", "additive", "network"), "str"),
        ("--task", "task", "regression", TASKS, "str"),
        ("--s", "s", REQUIRED, None, "int"),
        ("--coef-mean", "coef_mean", None, None, "float"),
        ("--coef-sd", "coef_sd", None, None, "float"),
        ("--noise-sd", "noise_sd", 1.0, None, "float"),
        ("--net-hidden", "net_hidden", (50, 30, 15, 10), None, "int_list"),
        ("--seed", "seed", 0, None, "int"),
    ],
    "select": [
        ("--x", "x", REQUIRED, None, "str"),
        ("--y", "y", REQUIRED, None, "str"),
        ("--task", "task", "regression", TASKS, "str"),
        ("--method", "method", "enns", ("enns", "dnp"), "str"),
        ("--s0", "s0", REQUIRED, None, "int"),
        ("--bags", "bags", 10, None, "int"),
        ("--ps", "ps", 0.3, None, "float"),
        ("--bootstrap-size", "bootstrap_size", None, None, "int"),
        ("--per-round", "per_round", None, None, "int"),
        ("--b1", "b1", 2, None, "int"),
        ("--dropout-rate", "dropout_rate", 0.5, None, "float"),
        ("--norm-q", "norm_q", 2.0, None, "float"),
        *TRAINING,
        ("--val-fraction", "val_fraction", 0.0, None, "float"),
        ("--seed", "seed", 0, None, "int"),
        ("--out", "out", None, None, "str"),
    ],
    "estimate": [
        ("--x", "x", REQUIRED, None, "str"),
        ("--y", "y", REQUIRED, None, "str"),
        ("--task", "task", "regression", TASKS, "str"),
        ("--selected", "selected", None, None, "int_list"),
        ("--selection-json", "selection_json", None, None, "str"),
        *TRAINING,
        ("--sparsity-mode", "sparsity_mode", "none", ("none", "percentile", "explicit_lambda"), "str"),
        ("--sparsity-values", "sparsity_values", None, None, "float_list"),
        ("--val-fraction", "val_fraction", 0.0, None, "float"),
        ("--test-fraction", "test_fraction", 0.25, None, "float"),
        ("--seed", "seed", 0, None, "int"),
        ("--model-out", "model_out", REQUIRED, None, "str"),
        ("--metrics-out", "metrics_out", None, None, "str"),
    ],
    "run-experiment": [
        ("--config", "config", REQUIRED, None, "str"),
        ("--out", "out", None, None, "str"),
    ],
    "verify-theory": [
        ("--pair-betas", "pair_betas", (0.0, 1.0, 2.0, 3.0), None, "float_list"),
        ("--sigmas", "sigmas", (0.5, 1.0, 2.0), None, "float_list"),
        ("--first-cases", "first_cases", ((1, 2), (3, 20), (5, 50)), None, "pairs"),
        ("--beta-support", "beta_support", 2.0, None, "float"),
        ("--first-sigma", "first_sigma", 1.0, None, "float"),
        ("--reps", "reps", 100_000, None, "int"),
        ("--pair-tol", "pair_tol", 0.01, None, "float"),
        ("--first-tol", "first_tol", 0.02, None, "float"),
        ("--seed", "seed", 0, None, "int"),
        ("--out", "out", None, None, "str"),
    ],
}


def subcommands() -> dict[str, argparse.ArgumentParser]:
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def converted(action: argparse.Action, text: str) -> str:
    try:
        return repr((action.type or str)(text))
    except Exception as exc:  # the exception's name is the pinned result
        return type(exc).__name__


def surface_row(action: argparse.Action) -> tuple:
    (option,) = action.option_strings
    assert type(action) is argparse._StoreAction and action.nargs is None
    if action.required:
        assert action.default is None
    default = REQUIRED if action.required else action.default
    choices = None if action.choices is None else tuple(action.choices)
    kinds = [k for k, results in CONVERTERS.items() if [converted(action, s) for s in SAMPLES] == results]
    assert len(kinds) == 1, (option, [converted(action, s) for s in SAMPLES])
    return option, action.dest, typed(default), choices, kinds[0]


def typed(value) -> str:
    """The repr, so that 0 and 0.0 or (10,) and [10] differ."""
    return "required" if value is REQUIRED else repr(value)


def test_subcommands_in_order():
    assert list(subcommands()) == list(SURFACE)


@pytest.mark.parametrize("name", list(SURFACE))
def test_subcommand_flags(name):
    actions = [a for a in subcommands()[name]._actions if not isinstance(a, argparse._HelpAction)]
    expected = [(option, dest, typed(default), *rest) for option, dest, default, *rest in SURFACE[name]]
    assert [surface_row(a) for a in actions] == expected
