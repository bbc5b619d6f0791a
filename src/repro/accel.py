"""Acceleration engine selection (the ``[accel]`` extra).

Two independent engines make the hot paths fast while numpy stays
optional:

* the **record/detection engine** (``"numpy"`` or ``"python"``) decides
  whether the PEBS record plane and the detection pipeline flow
  struct-of-arrays batches through vectorized kernels or scalar
  per-record loops;
* the **simulator engine** (``"trace"`` or ``"interp"``) decides whether
  the machine executes precompiled basic-block traces or the legacy
  per-instruction interpreter.

Both selections are *observationally invisible*: every golden pin
(cycles, reports, trace/window SHA-256, health dicts) is byte-identical
under any engine combination — the engines change host wall-clock only.
``Laser.run_built`` resolves ``auto`` for both: ``resolve_engine``
picks numpy when it imports, pure Python otherwise, and
``resolve_sim_engine`` picks the trace engine.  The ``LASER_ENGINE`` /
``LASER_SIM_ENGINE`` environment variables override the ``auto``
choice; the CI engines matrix uses them to force each combination, and
``perfbench/make_digests.py`` to make its reference digests on the
interpreter.  Components built directly (``Machine``, ``KernelDriver``,
``DetectionPipeline``) also take an explicit engine name.
"""

import os
from typing import Optional

__all__ = [
    "get_numpy",
    "numpy_available",
    "resolve_engine",
    "resolve_sim_engine",
    "ENGINES",
    "SIM_ENGINES",
]

#: Valid record/detection engine names (``auto`` resolves to one of the
#: concrete two).
ENGINES = ("auto", "numpy", "python")

#: Valid simulator engine names.
SIM_ENGINES = ("auto", "trace", "interp")

_NUMPY_CACHE: Optional[tuple] = None


def get_numpy():
    """The numpy module, or ``None`` when it is not installed.

    Cached after the first probe so engine checks on hot paths cost a
    tuple unpack, not an import-machinery round trip.
    """
    global _NUMPY_CACHE
    if _NUMPY_CACHE is None:
        try:
            import numpy
        except ImportError:  # pragma: no cover - depends on install
            numpy = None
        _NUMPY_CACHE = (numpy,)
    return _NUMPY_CACHE[0]


def numpy_available() -> bool:
    return get_numpy() is not None


def resolve_engine(requested: str = "auto") -> str:
    """Resolve a record/detection engine name to ``numpy``/``python``.

    Explicit requests win.  ``auto`` honors the ``LASER_ENGINE``
    environment variable when set, then falls back to numpy-if-
    importable.  Requesting ``numpy`` without numpy installed is an
    error — a silent fallback would misreport which engine ran.
    """
    if requested not in ENGINES:
        raise ValueError(
            "unknown engine %r (expected one of %s)" % (requested, ENGINES)
        )
    if requested == "auto":
        env = os.environ.get("LASER_ENGINE", "").strip().lower()
        if env:
            if env not in ("numpy", "python"):
                raise ValueError("LASER_ENGINE must be 'numpy' or 'python'")
            requested = env
        else:
            requested = "numpy" if numpy_available() else "python"
    if requested == "numpy" and not numpy_available():
        raise RuntimeError(
            "engine 'numpy' requested but numpy is not installed "
            "(pip install repro[accel], or use engine='auto')"
        )
    return requested


def resolve_sim_engine(requested: str = "auto") -> str:
    """Resolve a simulator engine name to ``trace``/``interp``.

    ``auto`` honors ``LASER_SIM_ENGINE`` when set and otherwise picks
    the precompiled-trace engine (pure Python, no dependency — it is the
    default because it is bit-identical and strictly faster).
    """
    if requested not in SIM_ENGINES:
        raise ValueError(
            "unknown sim engine %r (expected one of %s)"
            % (requested, SIM_ENGINES)
        )
    if requested == "auto":
        env = os.environ.get("LASER_SIM_ENGINE", "").strip().lower()
        if env:
            if env not in ("trace", "interp"):
                raise ValueError(
                    "LASER_SIM_ENGINE must be 'trace' or 'interp'")
            requested = env
        else:
            requested = "trace"
    return requested
