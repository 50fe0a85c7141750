"""Benchmark and trace harness for the pilotopt package; entry point run.py."""
