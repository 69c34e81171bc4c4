"""The succinct filter cache: a cuckoo filter with hotness bits."""

from .hotness import SuccinctFilterCache

__all__ = ["SuccinctFilterCache"]
