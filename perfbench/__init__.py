"""Benchmark harness for fareyweb; the entry point is ``run.py``."""
