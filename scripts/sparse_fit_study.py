#!/usr/bin/env python3
"""Paired test RMSE of l1 soft-threshold fitting versus plain training on
noisy network-generated regression over the true support columns."""

import argparse

import numpy as np

from enns.studies import sparse_versus_plain_rmse


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--seed", type=int, default=81)
    ap.add_argument("--noise-sd", type=float, default=40.0)
    ap.add_argument("--n-train", type=int, default=100)
    args = ap.parse_args()

    sparse_rmse, plain_rmse = sparse_versus_plain_rmse(
        seeds=args.seeds, seed=args.seed, noise_sd=args.noise_sd, n_train=args.n_train
    )
    wins = int(np.sum(sparse_rmse <= plain_rmse))
    print(f"paired seeds={args.seeds} noise_sd={args.noise_sd} n_train={args.n_train}")
    print(f"mean test RMSE soft-threshold: {sparse_rmse.mean():.3f}")
    print(f"mean test RMSE plain:          {plain_rmse.mean():.3f}")
    print(f"per-seed wins: {wins}/{args.seeds}, mean improvement {(plain_rmse - sparse_rmse).mean():+.3f}")


if __name__ == "__main__":
    main()
