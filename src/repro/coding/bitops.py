"""Small integer-bitmask utilities shared across the protocol
implementations (player inputs are bitmasks over the coordinate
universe)."""

from __future__ import annotations

from typing import List

__all__ = ["bits_of", "popcount"]


def bits_of(mask: int) -> List[int]:
    """The set bit positions of ``mask`` in increasing order."""
    if mask < 0:
        raise ValueError(f"mask must be non-negative, got {mask}")
    # ``digits[i]`` is bit ``i``.  Scanning the string keeps this linear
    # in the mask's length; shifting a big integer per bit is quadratic.
    digits = bin(mask)[:1:-1]
    out: List[int] = []
    position = digits.find("1")
    while position >= 0:
        out.append(position)
        position = digits.find("1", position + 1)
    return out


def popcount(mask: int) -> int:
    """The number of set bits of ``mask``."""
    if mask < 0:
        raise ValueError(f"mask must be non-negative, got {mask}")
    return bin(mask).count("1")
