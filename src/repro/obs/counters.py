"""The shared per-index counter facade.

Every index client in this library keeps small named counters - cache
hits and misses, filter false positives, lock conflicts, splits.  Before
`repro.obs` they lived in three shapes (a :class:`TreeMetrics` dataclass,
plain dicts, loose attributes) and every consumer re-implemented the
aggregation.  :class:`Counters` is the one shape they all funnel into:

* every index client exposes ``counters() -> Counters`` (see
  :meth:`repro.core.remote_art.RemoteArtTree.counters` and friends);
* the YCSB runner and the figure code aggregate through
  :meth:`Counters.merge` / :meth:`Counters.from_opstats` instead of
  reading individual fields.

The facade is deliberately dependency-free (no imports from the rest of
the library) so hot-path modules can import it without cycles.  It is
*not* itself on the per-verb hot path: clients keep their native counter
stores and snapshot into a :class:`Counters` only when asked.
"""

from __future__ import annotations

from dataclasses import fields as _dataclass_fields
from typing import Dict, Iterable, Iterator, Mapping, Tuple, Union

CounterSource = Union["Counters", Mapping[str, int]]


class Counters:
    """A name -> integer counter store with uniform aggregation."""

    __slots__ = ("_data",)

    def __init__(self, initial: Mapping[str, int] | None = None):
        self._data: Dict[str, int] = dict(initial) if initial else {}

    # -- mutation --------------------------------------------------------
    def inc(self, name: str, delta: int = 1) -> None:
        data = self._data
        data[name] = data.get(name, 0) + delta

    def __setitem__(self, name: str, value: int) -> None:
        self._data[name] = value

    def merge(self, other: CounterSource) -> "Counters":
        """Add ``other``'s counts into this store; returns self."""
        data = self._data
        for name, value in other.items():
            data[name] = data.get(name, 0) + value
        return self

    # -- access ----------------------------------------------------------
    def __getitem__(self, name: str) -> int:
        """Missing counters read as zero - a counter nobody bumped."""
        return self._data.get(name, 0)

    def get(self, name: str, default: int = 0) -> int:
        return self._data.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self._data

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Counters):
            return self._data == other._data
        if isinstance(other, Mapping):
            return self._data == dict(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._data.items()))
        return f"Counters({inner})"

    def items(self) -> Iterable[Tuple[str, int]]:
        return self._data.items()

    def as_dict(self) -> Dict[str, int]:
        return dict(self._data)

    # -- derived views ---------------------------------------------------
    def per_op(self, ops: int) -> Dict[str, float]:
        """Every counter divided by an operation count (0 ops -> zeros)."""
        if ops <= 0:
            return {name: 0.0 for name in self._data}
        return {name: value / ops for name, value in self._data.items()}

    # -- constructors ----------------------------------------------------
    @classmethod
    def from_opstats(cls, stats) -> "Counters":
        """Snapshot an :class:`repro.dm.rdma.OpStats` (or any dataclass of
        integer fields) into the facade."""
        return cls({f.name: getattr(stats, f.name)
                    for f in _dataclass_fields(stats)})

    @classmethod
    def aggregate(cls, sources: Iterable[CounterSource]) -> "Counters":
        total = cls()
        for source in sources:
            total.merge(source)
        return total


def client_counters(client) -> Counters:
    """``client.counters()``: kept as a name the benchmark imports."""
    return client.counters()
