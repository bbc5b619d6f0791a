"""Experiment harnesses: one module per table/figure of the paper.

Every module exposes a ``run_*`` function returning a plain result
object with a ``render()`` method that prints the same rows/series the
paper reports.  ``benchmarks/`` wraps these for pytest-benchmark; the
modules are also runnable directly (``python -m
repro.experiments.accuracy``).
"""
