"""Host-time benchmark of monitored LASER runs, end to end and by layer.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` is the entry point; see ``perfbench/README.md``.
"""
