"""Deterministic discrete-event simulation engine (the timing substrate)."""

from .engine import Engine, Event, Process
from .resources import LatencyRecorder

__all__ = [
    "Engine",
    "Event",
    "Process",
    "LatencyRecorder",
]
