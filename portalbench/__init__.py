"""Portal-pass benchmark for the ``repro`` simulator.

Run ``python3 portalbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``portalbench/README.md``.
"""
