"""The repository benchmark: closed-loop workloads, untraced end-to-end
timings, and a traced per-layer breakdown read back from ``repro.obs``.

``python3 perfbench/run.py --help`` describes the command line.
"""
