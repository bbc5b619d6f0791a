"""Mini-ISA substrate: instructions, programs, assembler and CFG analysis.

The reproduction interprets workloads written in a small x86-flavoured
instruction set.  The ISA is deliberately minimal but keeps the features
LASER's analyses depend on: byte-granular loads and stores of 1-8 bytes,
atomic read-modify-writes, fences, and branches (so control-flow analysis
and flush placement are non-trivial).
"""
