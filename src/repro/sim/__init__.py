"""Deterministic discrete-event simulation engine (the timing substrate)."""

from .engine import Engine, Event, Process, Timeout
from .resources import LatencyRecorder

__all__ = [
    "Engine",
    "Event",
    "Process",
    "Timeout",
    "LatencyRecorder",
]
