"""Benchmark of the simulator: see run.py."""
