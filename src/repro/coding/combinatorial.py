"""Combinatorial (combinadic) subset encoding.

The optimal Section 5 disjointness protocol writes a batch of
:math:`z_i / k` new zero coordinates "encoded as a subset of
:math:`Z_i`", costing :math:`\\lceil \\log_2 \\binom{z_i}{z_i/k} \\rceil`
bits — the amortized :math:`\\log(ek)` bits per coordinate that gives the
protocol its :math:`O(n \\log k)` term.  This module implements that
encoding exactly via the combinatorial number system: a bijection between
``m``-element subsets of ``{0, ..., n-1}`` and integers in
``[0, C(n, m))``, serialized at fixed width.

Also exposed: exact ``binomial``, subset ranking/unranking, and the bit
cost helper used by both the protocol and its analysis.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from .bitio import BitReader, BitWriter, Bits

__all__ = [
    "binomial",
    "subset_rank",
    "subset_unrank",
    "subset_code_width",
    "encode_subset",
    "decode_subset",
]


def binomial(n: int, m: int) -> int:
    """The exact binomial coefficient :math:`\\binom{n}{m}` (0 if invalid)."""
    if m < 0 or n < 0 or m > n:
        return 0
    return math.comb(n, m)


def subset_rank(subset: Sequence[int], n: int) -> int:
    """Rank an ``m``-subset of ``{0, ..., n-1}`` in colexicographic order.

    The subset must be strictly increasing.  The rank is
    :math:`\\sum_j \\binom{c_j}{j+1}` where :math:`c_j` is the ``j``-th
    (smallest-first) element — the standard combinadic.
    """
    rank = 0
    previous = -1
    for position, element in enumerate(subset):
        if element <= previous:
            raise ValueError("subset must be strictly increasing")
        if not 0 <= element < n:
            raise ValueError(f"element {element} outside universe of size {n}")
        rank += binomial(element, position + 1)
        previous = element
    return rank


def subset_unrank(rank: int, n: int, m: int) -> List[int]:
    """Inverse of :func:`subset_rank`: the ``rank``-th ``m``-subset of
    ``{0, ..., n-1}`` in colexicographic order."""
    if not 0 <= rank < binomial(n, m):
        raise ValueError(
            f"rank {rank} out of range for C({n}, {m}) = {binomial(n, m)}"
        )
    subset: List[int] = []
    remaining = rank
    # Choose elements largest-first: the largest element c satisfies
    # C(c, m) <= remaining < C(c+1, m).  ``count`` tracks
    # C(candidate, size) and is stepped by exact integer ratios instead
    # of recomputed per candidate:
    #   C(c-1, s)   = C(c, s) * (c - s) / c
    #   C(c-1, s-1) = C(c, s) * s / c
    # Both divisions are exact.  A step down only happens while
    # count > remaining >= 0, so there c >= s >= 1; a chosen c of 0 ends
    # the loop (it can only be chosen at size 1).
    size = m
    candidate = n - 1
    count = binomial(candidate, size)
    while size > 0:
        while count > remaining:
            count = count * (candidate - size) // candidate
            candidate -= 1
        subset.append(candidate)
        remaining -= count
        if candidate:
            count = count * size // candidate
        size -= 1
        candidate -= 1
    subset.reverse()
    return subset


def subset_code_width(n: int, m: int) -> int:
    """Bits needed to encode an ``m``-subset of an ``n``-universe:
    :math:`\\lceil \\log_2 \\binom{n}{m} \\rceil` (0 when there is a single
    subset)."""
    count = binomial(n, m)
    if count <= 0:
        raise ValueError(f"no {m}-subsets of a universe of size {n}")
    return (count - 1).bit_length()


def encode_subset(subset: Sequence[int], n: int) -> Bits:
    """Encode a subset (of known size, against a known universe) as bits.

    The subset's *size* is not part of the encoding: in the Section 5
    protocol both the batch size ``z_i / k`` and the universe ``Z_i`` are
    determined by the board contents, so only the rank is written.
    """
    m = len(subset)
    width = subset_code_width(n, m)
    writer = BitWriter()
    writer.write_uint(subset_rank(subset, n), width)
    return writer.getvalue()


def decode_subset(reader: BitReader, n: int, m: int) -> List[int]:
    """Decode a subset written by :func:`encode_subset`.

    The caller supplies the universe size ``n`` and subset size ``m`` it
    derived from the board state.
    """
    width = subset_code_width(n, m)
    rank = reader.read_uint(width)
    return subset_unrank(rank, n, m)
