"""The node-based CN cache used by the SMART baseline.

A byte-budgeted LRU of inner-node snapshots keyed by remote address.
This is the caching mechanism the paper argues against: each cached node
costs its full physical size (2056 B in SMART, which preallocates
Node-256), so a realistic CN budget covers only a small fraction of the
inner nodes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from ..art.layout import NodeView, node_size
from ..errors import InvalidArgument


class NodeCache:
    """LRU cache of :class:`NodeView` snapshots, bounded in bytes."""

    def __init__(self, budget_bytes: int):
        if budget_bytes < 0:
            raise InvalidArgument("budget must be >= 0")
        self.budget_bytes = budget_bytes
        self._items: "OrderedDict[int, tuple]" = OrderedDict()
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, addr: int) -> Optional[NodeView]:
        item = self._items.get(addr)
        if item is None:
            self.misses += 1
            return None
        self._items.move_to_end(addr)
        self.hits += 1
        return item[0]

    def put(self, addr: int, view: NodeView) -> None:
        size = node_size(view.header.node_type)
        if size > self.budget_bytes:
            return  # a single node larger than the whole budget
        old = self._items.pop(addr, None)
        if old is not None:
            self.bytes -= old[1]
        self._items[addr] = (view, size)
        self.bytes += size
        while self.bytes > self.budget_bytes:
            _addr, (_view, evicted_size) = self._items.popitem(last=False)
            self.bytes -= evicted_size
            self.evictions += 1

    def drop(self, addr: int) -> None:
        item = self._items.pop(addr, None)
        if item is not None:
            self.bytes -= item[1]

    def __len__(self) -> int:
        return len(self._items)
