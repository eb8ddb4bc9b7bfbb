"""Experiment harnesses: static sweeps (T1-T6) and adaptive sim (T7-T8)."""
from repro.sim.adaptive import adaptive_simulation  # noqa: F401
from repro.sim.runner import METHODS, allocate  # noqa: F401
