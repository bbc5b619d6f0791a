"""Simulator engine selection.

The **simulator engine** (``"trace"`` or ``"interp"``) decides whether
the machine executes precompiled basic-block traces or the reference
per-instruction interpreter.  The choice is *observationally
invisible*: every golden pin (cycles, reports, trace/window SHA-256,
health dicts) is byte-identical under either engine — the engines
change host wall-clock only.  ``Laser.run_built`` resolves ``auto``,
which picks the trace engine; the ``LASER_SIM_ENGINE`` environment
variable overrides that choice, which the CI engines matrix uses to
force each engine and ``perfbench/make_digests.py`` to make its
reference digests on the interpreter.  ``Machine`` built directly also
takes an explicit engine name.

The record plane and the detection pipeline have one implementation,
a scalar per-record loop with no optional dependency.
"""

import os

__all__ = [
    "resolve_sim_engine",
    "SIM_ENGINES",
]

#: Valid simulator engine names.
SIM_ENGINES = ("auto", "trace", "interp")


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
