"""Experiment harnesses: static sweeps (T1-T6) and adaptive sim (T7-T8)."""
