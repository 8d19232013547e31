"""Benchmark of the enns command line; run ``python3 bench/run.py --help``."""
