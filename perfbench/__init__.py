"""Benchmark for thzirs; ``perfbench/run.py`` is the entry point."""
