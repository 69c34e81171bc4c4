"""Bit-field packing helpers.

All on-"wire" structures in this library (ART headers, slots, RACE hash
entries) are packed 64-bit little-endian words built out of named bit
fields.  :class:`BitField` and :class:`BitStruct` give those layouts a
single declarative definition with symmetric ``pack``/``unpack``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

from ..errors import InvalidArgument

_U64 = struct.Struct("<Q")

U64_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class BitField:
    """A named contiguous run of bits inside a 64-bit word."""

    name: str
    shift: int
    width: int

    @property
    def mask(self) -> int:
        return ((1 << self.width) - 1) << self.shift

    def get(self, word: int) -> int:
        return (word >> self.shift) & ((1 << self.width) - 1)

    def set(self, word: int, value: int) -> int:
        limit = 1 << self.width
        if not 0 <= value < limit:
            raise InvalidArgument(
                f"value {value} does not fit in field {self.name!r} "
                f"({self.width} bits)"
            )
        return (word & ~self.mask) | (value << self.shift)


class BitStruct:
    """A 64-bit word made of consecutive :class:`BitField` entries.

    Fields are declared low-bit-first as ``(name, width)`` pairs.  Unused
    high bits are allowed; overlapping or overflowing fields are not.
    """

    def __init__(self, name: str, fields: Iterable[Tuple[str, int]]):
        self.name = name
        self.fields: Dict[str, BitField] = {}
        shift = 0
        for fname, width in fields:
            if width <= 0:
                raise InvalidArgument(f"field {fname!r} must have positive width")
            if fname in self.fields:
                raise InvalidArgument(f"duplicate field {fname!r}")
            self.fields[fname] = BitField(fname, shift, width)
            shift += width
        if shift > 64:
            raise InvalidArgument(f"{name}: fields occupy {shift} bits > 64")
        # Flattened (shift, width, value-limit, positioned-mask) per field:
        # pack/unpack sit under every node encode/decode, so they work on
        # plain tuples instead of calling BitField methods per field.
        self._packers = {fname: (f.shift, f.width, 1 << f.width, f.mask)
                         for fname, f in self.fields.items()}
        self._unpackers = [(fname, f.shift, (1 << f.width) - 1)
                           for fname, f in self.fields.items()]

    def pack(self, **values: int) -> int:
        """Build a word from field values; unspecified fields are zero."""
        word = 0
        packers = self._packers
        for fname, value in values.items():
            try:
                shift, width, limit, mask = packers[fname]
            except KeyError:
                raise InvalidArgument(f"{self.name} has no field {fname!r}") from None
            if not 0 <= value < limit:
                raise InvalidArgument(
                    f"value {value} does not fit in field {fname!r} "
                    f"({width} bits)"
                )
            word = (word & ~mask) | (value << shift)
        return word

    def unpack(self, word: int) -> Dict[str, int]:
        """Explode a word into a dict of all field values."""
        if not 0 <= word <= U64_MASK:
            raise InvalidArgument("word out of 64-bit range")
        return {fname: (word >> shift) & mask
                for fname, shift, mask in self._unpackers}

    def get(self, word: int, fname: str) -> int:
        return self.fields[fname].get(word)

    def set(self, word: int, fname: str, value: int) -> int:
        return self.fields[fname].set(word, value)


def u64_to_bytes(word: int) -> bytes:
    """Encode a 64-bit word little-endian (the library's wire order)."""
    return _U64.pack(word & U64_MASK)


def u64_from_bytes(data: bytes, offset: int = 0) -> int:
    """Decode a little-endian 64-bit word from ``data`` at ``offset``."""
    return _U64.unpack_from(data, offset)[0]


def round_up(value: int, multiple: int) -> int:
    """Round ``value`` up to the next multiple of ``multiple``."""
    if multiple <= 0:
        raise InvalidArgument("multiple must be positive")
    return ((value + multiple - 1) // multiple) * multiple
