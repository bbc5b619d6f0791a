"""Cache-line state definitions.

The coherence directory (``repro.sim.coherence``) tracks every cached
line's per-core state with the three essential states the paper's
Section 2 identifies: Modified, Shared and Invalid (we add Exclusive for
fidelity to MESI; E behaves like S for HITM purposes since an E line is
clean).
"""

import enum

__all__ = ["LineState"]


class LineState(enum.Enum):
    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"
