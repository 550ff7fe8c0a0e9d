"""Benchmark of the groupoids checker; see README.md and run.py."""
