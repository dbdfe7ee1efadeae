"""Outside-in benchmark of the Skip It reproduction.

Four single-process workloads time the simulator's layers through their
public constructors and entry points: the cycle-level SoC
(``soc-flush``), the timing model under persistent data structures
(``ds-read``), the serving tier over the shared-log store
(``serve-write``) and the verifier's crash sweeps (``crash-sweep``).
``python3 perfbench/run.py --workload <name>`` runs one of them; see
``run.py`` for the flags and the output format.
"""
