"""Benchmark of record for this repository (see README.md)."""
