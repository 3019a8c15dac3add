"""Closed-loop ingest and read benchmark; run it with ``python3 perfbench/run.py``."""
