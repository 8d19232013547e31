#!/usr/bin/env python3
"""Paired comparison of selection false-positive rates: bagged ensemble
selection versus a single stage-wise pass on the same data."""

import argparse

import numpy as np
from scipy import stats

from enns.studies import paired_false_positive_study


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=300)
    ap.add_argument("--p", type=int, default=1000)
    ap.add_argument("--s", type=int, default=5)
    ap.add_argument("--seeds", type=int, default=30)
    ap.add_argument("--seed", type=int, default=61)
    args = ap.parse_args()

    ensemble_fpr, plain_fpr = paired_false_positive_study(
        n=args.n, p=args.p, s=args.s, seeds=args.seeds, seed=args.seed
    )
    diffs = plain_fpr - ensemble_fpr
    t_stat, p_two = stats.ttest_rel(plain_fpr, ensemble_fpr)
    p_one = p_two / 2 if t_stat > 0 else 1.0 - p_two / 2
    print(f"n={args.n} p={args.p} s={args.s} paired seeds={args.seeds}")
    print(f"mean FPR ensemble: {ensemble_fpr.mean():.3f}")
    print(f"mean FPR plain:    {plain_fpr.mean():.3f}")
    print(f"mean difference:   {diffs.mean():+.3f}")
    print(f"positive diffs:    {int(np.sum(diffs > 0))}/{args.seeds}")
    print(f"one-sided paired t-test p-value: {p_one:.4f}")


if __name__ == "__main__":
    main()
