"""Repository benchmark for dcn-robust.

``python3 perfbench/run.py --workload NAME`` runs one workload and prints
its metrics; ``README.md`` beside this file explains the workloads.
"""
