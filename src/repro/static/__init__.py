"""Static analysis over mini-ISA programs.

Three layers, each usable on its own:

* :mod:`repro.static.interval` / :mod:`repro.static.absint` — a
  stride-interval abstract interpreter computing per-instruction memory
  footprints (with counted-loop trip-count induction, so pointer-bump
  loops stay bounded);
* :mod:`repro.static.lockset` — must-held lockset analysis over the
  ISA's cmpxchg lock idioms;
* :mod:`repro.static.predict` — whole-program sharing prediction:
  footprints projected onto 64-byte cache lines, classified TS/FS, in
  the same report shape the dynamic detector emits;
* :mod:`repro.static.verify` — the TSO/SSB rewrite verifier gating
  LASERREPAIR's instrumented code (see ``core/repair/manager.py``);
* :mod:`repro.static.mhp` — may-happen-in-parallel / happens-before
  analysis over the flag-handoff and counting-barrier idioms;
* :mod:`repro.static.race` — the data-race certifier: every shared
  cache line classified RACE / SYNC_TRUE_SHARING / FALSE_SHARING /
  THREAD_LOCAL into a serializable :class:`SharingCertificate` that
  gates repair (``LaserConfig.race_gate``).

``python -m repro.static <workload>`` prints the prediction and the
certificate for a bundled workload (nonzero exit if unsafe);
``python -m repro.static.racecheck`` certifies the whole registry
against the committed golden verdicts.
"""
