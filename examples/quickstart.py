#!/usr/bin/env python3
"""Quickstart: build a simulated DM cluster, create a Sphinx index, and
run the five index operations.

Run:  python examples/quickstart.py
"""

from repro.art import encode_str
from repro.core import SphinxConfig, SphinxIndex
from repro.dm import Cluster, ClusterConfig, OpStats


def main() -> None:
    # A paper-style testbed: 3 compute nodes + 3 memory nodes.
    cluster = Cluster(ClusterConfig(num_cns=3, num_mns=3))
    index = SphinxIndex(cluster, SphinxConfig(filter_budget_bytes=1 << 16))

    # Each compute node gets one client; clients on a CN share its
    # succinct filter cache and directory caches.
    client = index.client(0)

    # The DirectExecutor runs operations instantly (no simulated clock)
    # while still counting RDMA verbs - ideal for exploring the API.
    executor = cluster.direct_executor()

    words = ["LYRICS", "LYRE", "LYRA", "LAMBDA", "LIMIT", "LIMA"]
    for i, word in enumerate(words):
        created = executor.run(client.insert(encode_str(word),
                                             f"value-{i}".encode()))
        print(f"insert {word!r:10} -> new={created}")

    # Point lookups: 3 round trips in the common case (hash entry read,
    # inner node read, leaf read).
    stats = OpStats()
    lookup_executor = cluster.direct_executor(stats)
    value = lookup_executor.run(client.search(encode_str("LYRICS")))
    print(f"search LYRICS -> {value!r}  "
          f"(round trips: {stats.round_trips})")

    # Update in place (checksum-protected, lock folded into the write).
    executor.run(client.update(encode_str("LYRICS"), b"fresh-value"))
    print("update LYRICS ->", executor.run(client.search(encode_str("LYRICS"))))

    # Ordered range scan.
    results = executor.run(client.scan_range(encode_str("LA"),
                                             encode_str("LZ")))
    print("scan [LA, LZ]:", [(k.rstrip(b'\0').decode(), v.decode())
                             for k, v in results])

    # Delete.
    executor.run(client.delete(encode_str("LIMA")))
    print("after delete, LIMA ->",
          executor.run(client.search(encode_str("LIMA"))))

    print("\nMN memory by category:", cluster.mn_bytes_by_category())
    print(f"CN cache: {client.cn_cache_bytes()} B")
    print("client counters:", client.counters().as_dict())


if __name__ == "__main__":
    main()
