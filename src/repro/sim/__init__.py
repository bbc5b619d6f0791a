"""Multicore machine substrate.

This package provides the simulated Haswell machine that stands in for
the paper's i7-4770K testbed: a flat byte-addressable memory, a virtual
memory map (the ``/proc/<pid>/maps`` analog), a bump allocator whose
layout decisions create false sharing exactly as glibc malloc does, a
MESI coherence directory that generates HITM events, an HTM model, and
the multicore interpreter itself.
"""
