"""Near-miss for S004: intrinsic protocol bounds carry a
``# lint: disable=S004`` pragma with their justification."""


def walk_chain(head_addr):
    for _hop in range(512):  # lint: disable=S004
        word = yield ReadOp(head_addr, 8)
        if word == b"\x00" * 8:
            return head_addr
        head_addr += 8
    return None


def probe_groups(seg_addr):
    # 256 buckets is table geometry, not a retry budget.
    for _probe in range(256):  # lint: disable=S004
        word = yield ReadOp(seg_addr, 8)
        if word != b"\x00" * 8:
            return word
        seg_addr += 8
    return None
