"""Host-time attribution: profiled functions -> repo layers.

A layer is a repo module (or a small family of modules).  Every function
``cProfile`` saw is mapped to a layer by its file path under
``src/repro/``; builtin / C-function self time has no file, so it is
charged to the layer of whichever function *called* it, through the
pstats callers table.  Layer self times therefore sum to the profile's
total self time - nothing is left in an "other" bucket that an
optimisation could hide in.
"""

from __future__ import annotations

import pstats
from typing import Dict, List, Tuple

#: Path (relative to ``src/repro/``) prefix -> layer.  First match wins,
#: so file entries precede the directory that would swallow them.
LAYER_OF_PATH: Tuple[Tuple[str, str], ...] = (
    ("sim/engine.py", "sim.engine"),
    ("sim/", "sim.resources"),
    ("dm/rdma.py", "dm.rdma"),
    ("dm/network.py", "dm.network"),
    ("dm/memory.py", "dm.memory"),
    ("dm/", "dm.rack"),              # rack + placement + cluster
    ("art/", "art"),
    ("filters/", "filters"),
    ("race/", "race"),
    ("core/", "core"),
    ("util/zipf.py", "util.zipf"),
    ("util/", "util.hashing"),       # hashing + bits + checksum
    ("ycsb/", "ycsb"),
    ("tenancy/", "tenancy"),
    ("recover/", "recover"),
    ("", "hooks"),                   # fault, obs, san, tools, errors, ...
)

#: Everything outside ``src/repro/``: the standard library (random,
#: dataclasses, array, ...) and this benchmark's own files.
STDLIB = "stdlib"

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    [layer for _prefix, layer in LAYER_OF_PATH] + [STDLIB]))

_MARKER = "/src/repro/"


def layer_of_file(filename: str) -> str:
    """The layer owning ``filename`` (a profiler code-object path)."""
    path = filename.replace("\\", "/")
    at = path.rfind(_MARKER)
    if at < 0:
        return STDLIB
    rel = path[at + len(_MARKER):]
    for prefix, layer in LAYER_OF_PATH:
        if rel.startswith(prefix):
            return layer
    return STDLIB  # unreachable: the "" prefix matches everything


def _is_builtin(func: tuple) -> bool:
    # pstats names C functions ('~', 0, "<built-in method ...>").
    return func[0] == "~"


def attribute(profile) -> Dict:
    """Fold a finished ``cProfile.Profile`` into per-layer totals.

    Returns ``{"layers": {layer: {"self_s", "calls"}}, "total_self_s",
    "total_calls", "top": [...50 hottest functions by self time]}``.
    """
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    top: List[Tuple[float, int, str, str]] = []
    for func, (_cc, ncalls, self_s, _cum, callers) in stats.items():
        if not _is_builtin(func):
            layer = layer_of_file(func[0])
            layers[layer]["self_s"] += self_s
            layers[layer]["calls"] += ncalls
            top.append((self_s, ncalls, layer,
                        f"{func[0].rsplit('/', 1)[-1]}:{func[1]}:{func[2]}"))
            continue
        top.append((self_s, ncalls, "(builtin)", func[2]))
        if not callers:
            layers[STDLIB]["self_s"] += self_s
            layers[STDLIB]["calls"] += ncalls
            continue
        for caller, (_ccc, cnc, cself, _ccum) in callers.items():
            layer = STDLIB if _is_builtin(caller) \
                else layer_of_file(caller[0])
            layers[layer]["self_s"] += cself
            layers[layer]["calls"] += cnc
    top.sort(reverse=True)
    return {
        "layers": layers,
        "total_self_s": sum(v["self_s"] for v in layers.values()),
        "total_calls": sum(v["calls"] for v in layers.values()),
        "top": [{"self_s": round(s, 6), "calls": n, "layer": layer,
                 "function": name} for s, n, layer, name in top[:50]],
    }
