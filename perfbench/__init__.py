"""Benchmark of the mspc pipeline, measured from outside the program (see README.md)."""
