"""PEBS performance-monitoring substrate.

Models the Haswell PMU facilities LASER depends on (Section 3): per-core
HITM event counters, Precise Event-Based Sampling with a Sample-After
Value, the PEBS record format, and — crucially — the *imprecision* of
HITM records that Section 3.1 characterizes, without which LASERDETECT's
filtering pipeline would have nothing to do.
"""
