"""Benchmark of the minsos package; see run.py."""
