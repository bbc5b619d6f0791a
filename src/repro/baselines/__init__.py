"""Comparator baselines: VTune-like profiling and the Sheriff schemes."""
