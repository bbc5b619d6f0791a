"""Stride-interval abstract domain for register values.

The static analyzer approximates every register with a *stride
interval*: the set of integers ``{lo + k*stride | k >= 0}`` clipped to
``[lo, hi]``.  The domain is the classic strided-interval lattice of
binary analysis (Reps/Balakrishnan's value-set analysis uses the same
shape) restricted to a single region: mini-ISA programs address memory
with absolute heap addresses, so one numeric strided interval per
register suffices.

``lo``/``hi`` of ``None`` mean unbounded below/above.  A ``stride`` of
0 denotes a singleton (and requires ``lo == hi``); a stride of 1 is a
dense interval.  Alignment information only makes sense relative to a
known lower bound, so any interval without one is normalized to
stride 1.

The domain deliberately ignores 64-bit wraparound: the analyzer treats
register arithmetic as ideal integers, which is sound for the address
computations it is used on (workload pointers never wrap) and keeps
every operation a few integer comparisons.
"""

from math import gcd
from typing import Iterator, Optional

__all__ = ["StrideInterval"]

#: Spans wider than this are not enumerated by callers that walk the
#: concretization (the sharing predictor clips and accounts instead).
DEFAULT_MAX_SPAN = 1 << 20


def _min(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None or b is None:
        return None
    return min(a, b)


def _max(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None or b is None:
        return None
    return max(a, b)


def _add(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None or b is None:
        return None
    return a + b


def _sub(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None or b is None:
        return None
    return a - b


class StrideInterval:
    """An immutable strided interval ``{lo + k*stride} ∩ [lo, hi]``."""

    __slots__ = ("lo", "hi", "stride")

    def __init__(self, lo: Optional[int], hi: Optional[int], stride: int = 1):
        if stride < 0:
            raise ValueError("stride must be non-negative")
        if lo is not None and hi is not None:
            if lo > hi:
                raise ValueError("empty interval: [%d, %d]" % (lo, hi))
            if lo == hi:
                stride = 0
            elif stride > 1:
                # Snap hi onto the stride grid anchored at lo.
                hi = lo + ((hi - lo) // stride) * stride
            elif stride == 0:
                stride = 1
        else:
            # Alignment is anchored at lo; without both bounds sane,
            # keep stride only when lo is known.
            if lo is None or stride == 0:
                stride = 1
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "stride", stride)

    def __setattr__(self, name, value):
        raise AttributeError("StrideInterval is immutable")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def const(cls, value: int) -> "StrideInterval":
        return cls(value, value, 0)

    @classmethod
    def top(cls) -> "StrideInterval":
        return cls(None, None, 1)

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------

    @property
    def is_const(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    @property
    def is_bounded(self) -> bool:
        return self.lo is not None and self.hi is not None

    @property
    def span(self) -> Optional[int]:
        """``hi - lo`` when bounded, else None."""
        if not self.is_bounded:
            return None
        return self.hi - self.lo

    def contains(self, value: int) -> bool:
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        if self.lo is not None and self.stride > 1:
            return (value - self.lo) % self.stride == 0
        return True

    def values(self, max_count: int) -> Iterator[int]:
        """Enumerate the concretization (bounded intervals only)."""
        if not self.is_bounded:
            raise ValueError("cannot enumerate an unbounded interval")
        step = self.stride or 1
        count = (self.hi - self.lo) // step + 1
        if count > max_count:
            raise ValueError("interval too wide to enumerate: %d values" % count)
        return iter(range(self.lo, self.hi + 1, step))

    # ------------------------------------------------------------------
    # Lattice operations
    # ------------------------------------------------------------------

    def join(self, other: "StrideInterval") -> "StrideInterval":
        lo = _min(self.lo, other.lo)
        hi = _max(self.hi, other.hi)
        if lo is None:
            return StrideInterval(lo, hi, 1)
        if self.lo is None or other.lo is None:
            stride = 1
        else:
            stride = gcd(self.stride, other.stride, abs(self.lo - other.lo))
        return StrideInterval(lo, hi, stride or (0 if lo == hi else 1))

    def widen(self, newer: "StrideInterval") -> "StrideInterval":
        """Standard interval widening: drop any bound that moved."""
        joined = self.join(newer)
        lo = self.lo if (self.lo is not None and joined.lo == self.lo) else None
        hi = self.hi if (self.hi is not None and joined.hi == self.hi) else None
        stride = joined.stride if lo is not None else 1
        return StrideInterval(lo, hi, stride or 1 if lo != hi or lo is None else 0)

    def meet_range(self, lo: Optional[int],
                   hi: Optional[int]) -> Optional["StrideInterval"]:
        """Intersect with ``[lo, hi]``; None if the result is empty.

        Unlike the join helpers, a ``None`` bound here means *unbounded*,
        so the intersection keeps whichever bound is known.
        """
        if lo is None:
            new_lo = self.lo
        elif self.lo is None:
            new_lo = lo
        else:
            new_lo = max(self.lo, lo)
        if hi is None:
            new_hi = self.hi
        elif self.hi is None:
            new_hi = hi
        else:
            new_hi = min(self.hi, hi)
        if new_lo is not None and self.lo is not None and self.stride > 1:
            # Snap the new lower bound up onto the stride grid.
            excess = (new_lo - self.lo) % self.stride
            if excess:
                new_lo += self.stride - excess
        if new_lo is not None and new_hi is not None and new_lo > new_hi:
            return None
        stride = self.stride if (new_lo is not None and self.lo is not None) else 1
        return StrideInterval(new_lo, new_hi, stride or 1)

    # ------------------------------------------------------------------
    # Arithmetic transfer functions
    # ------------------------------------------------------------------

    def add(self, other: "StrideInterval") -> "StrideInterval":
        lo = _add(self.lo, other.lo)
        hi = _add(self.hi, other.hi)
        stride = gcd(self.stride, other.stride) if lo is not None else 1
        return StrideInterval(
            lo, hi, stride or (0 if lo is not None and lo == hi else 1))

    def sub(self, other: "StrideInterval") -> "StrideInterval":
        lo = _sub(self.lo, other.hi)
        hi = _sub(self.hi, other.lo)
        stride = gcd(self.stride, other.stride) if lo is not None else 1
        return StrideInterval(
            lo, hi, stride or (0 if lo is not None and lo == hi else 1))

    def mul(self, other: "StrideInterval") -> "StrideInterval":
        if self.is_const:
            return other._mul_const(self.lo)
        if other.is_const:
            return self._mul_const(other.lo)
        if self.is_bounded and other.is_bounded:
            products = [
                self.lo * other.lo, self.lo * other.hi,
                self.hi * other.lo, self.hi * other.hi,
            ]
            return StrideInterval(min(products), max(products), 1)
        return StrideInterval.top()

    def _mul_const(self, c: int) -> "StrideInterval":
        if c == 0:
            return StrideInterval.const(0)
        if c > 0:
            return StrideInterval(
                None if self.lo is None else self.lo * c,
                None if self.hi is None else self.hi * c,
                self.stride * c,
            )
        return StrideInterval(
            None if self.hi is None else self.hi * c,
            None if self.lo is None else self.lo * c,
            self.stride * -c,
        )

    def shl(self, other: "StrideInterval") -> "StrideInterval":
        if other.is_const and 0 <= other.lo < 64:
            return self._mul_const(1 << other.lo)
        return StrideInterval.top()

    def shr(self, other: "StrideInterval") -> "StrideInterval":
        if not (other.is_const and 0 <= other.lo < 64):
            return StrideInterval.top()
        c = other.lo
        if self.is_const:
            return StrideInterval.const(self.lo >> c)
        lo = None if self.lo is None else self.lo >> c
        hi = None if self.hi is None else self.hi >> c
        stride = self.stride >> c if self.stride % (1 << c) == 0 else 1
        return StrideInterval(lo, hi, stride or 1)

    def div(self, other: "StrideInterval") -> "StrideInterval":
        if self.is_const and other.is_const and other.lo != 0:
            return StrideInterval.const(self.lo // other.lo)
        return StrideInterval.top()

    def and_(self, other: "StrideInterval") -> "StrideInterval":
        if self.is_const and other.is_const:
            return StrideInterval.const(self.lo & other.lo)
        # AND with a non-negative constant mask bounds the result.
        for side in (self, other):
            if side.is_const and side.lo >= 0:
                return StrideInterval(0, side.lo, 1)
        return StrideInterval.top()

    def or_(self, other: "StrideInterval") -> "StrideInterval":
        return self._bitwise(other, int.__or__)

    def xor(self, other: "StrideInterval") -> "StrideInterval":
        return self._bitwise(other, int.__xor__)

    def _bitwise(self, other: "StrideInterval", op) -> "StrideInterval":
        if self.is_const and other.is_const:
            return StrideInterval.const(op(self.lo, other.lo))
        if (self.is_bounded and other.is_bounded
                and self.lo >= 0 and other.lo >= 0):
            bits = max(self.hi.bit_length(), other.hi.bit_length())
            return StrideInterval(0, (1 << bits) - 1, 1)
        return StrideInterval.top()

    # ------------------------------------------------------------------
    # Footprint reasoning
    # ------------------------------------------------------------------

    def may_overlap(self, size: int, other: "StrideInterval",
                    other_size: int) -> bool:
        """Can an access ``[a, a+size)`` with ``a`` drawn from this
        interval touch a byte of ``[b, b+other_size)`` with ``b`` drawn
        from ``other``?  Conservative: True unless provably disjoint.
        """
        # Range-level disjointness first.
        if self.hi is not None and other.lo is not None:
            if self.hi + size - 1 < other.lo:
                return False
        if other.hi is not None and self.lo is not None:
            if other.hi + other_size - 1 < self.lo:
                return False
        # Ranges overlap; try stride/offset reasoning (the AoS case:
        # interleaved fields with a common element stride never collide).
        if (self.lo is None or other.lo is None
                or self.stride == 0 and other.stride == 0):
            if self.lo is not None and other.lo is not None \
                    and self.stride == 0 and other.stride == 0:
                return not (self.lo + size - 1 < other.lo
                            or other.lo + other_size - 1 < self.lo)
            return True
        s = gcd(self.stride, other.stride)
        if s <= 1:
            return True
        d = (other.lo - self.lo) % s
        # Addresses are self.lo + i*s' and other.lo + j*s''; modulo s the
        # residues are fixed, so byte ranges collide only if the residue
        # gap admits it in either direction around the ring.
        return d < size or s - d < other_size

    def __eq__(self, other):
        return (isinstance(other, StrideInterval)
                and self.lo == other.lo
                and self.hi == other.hi
                and self.stride == other.stride)

    def __hash__(self):
        return hash((self.lo, self.hi, self.stride))

    def __repr__(self):
        def b(v):
            return "?" if v is None else "%#x" % v if abs(v) > 4096 else str(v)
        if self.is_const:
            return "<SI %s>" % b(self.lo)
        return "<SI [%s, %s] /%d>" % (b(self.lo), b(self.hi), self.stride)
