"""Scenario benchmark for anthractl; run it with ``python3 perfbench/run.py``."""
