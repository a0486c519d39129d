"""Two-party baselines referenced in the paper's introduction.

The paper contrasts the :math:`k`-party broadcast bound with classical
two-player results: disjointness needs :math:`\\Theta(n)` bits for two
players [21, 25], and two players with sets of size :math:`s` can solve
disjointness — indeed find the whole intersection — in :math:`O(s)` bits
[19, 6, 8].  We implement:

* :class:`TwoPartyDisjointnessProtocol` — Alice sends her whole set, Bob
  answers with one bit.  :math:`n + 1` bits, the classical upper bound.
* :class:`TwoPartySparseIntersectionProtocol` — for the promise
  :math:`|X| \\le s`: Alice sends her set as an :math:`s`-subset rank
  (:math:`\\log \\binom{n}{|X|} + O(\\log s)` bits, the information-
  theoretic minimum for one-way), Bob replies with the intersection
  relative to Alice's set (:math:`|X|` bits).  This exhibits the
  "no log factor" phenomenon the introduction highlights (Håstad–
  Wigderson): cost :math:`O(s \\log(n/s))` one-way instead of
  :math:`O(s \\log n)` element-by-element, and output-side :math:`O(s)`.

These are used as baselines in tests and as a sanity anchor in E1: the
``k``-party optimal protocol must degrade gracefully to ``k = 2``.
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..coding.bitops import bits_of
from ..coding.bitio import BitReader, BitWriter
from ..coding.combinatorial import (
    subset_code_width,
    subset_rank,
    subset_unrank,
)
from ..coding.varint import decode_elias_gamma, encode_elias_gamma
from ..information.distribution import BIT_POINT_MASSES, DiscreteDistribution
from ..core.model import Message, Protocol, Transcript

__all__ = [
    "TwoPartyDisjointnessProtocol",
    "TwoPartySparseIntersectionProtocol",
]


class TwoPartyDisjointnessProtocol(Protocol):
    """Alice broadcasts her characteristic vector; Bob answers one bit."""

    def __init__(self, n: int) -> None:
        super().__init__(2)
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        self._n = n

    def initial_state(self) -> Any:
        return (0, None)  # (messages so far, Bob's answer bit)

    def advance_state(self, state: Any, message: Message) -> Any:
        count, answer = state
        if count == 1:
            answer = 1 if message.bits == "1" else 0
        return (count + 1, answer)

    def next_speaker(self, state: Any, board: Transcript) -> Optional[int]:
        count, _ = state
        if count == 0:
            return 0
        if count == 1:
            return 1
        return None

    def message_distribution(
        self, state: Any, player: int, player_input: Any, board: Transcript
    ) -> DiscreteDistribution:
        if player == 0:
            mask = int(player_input)
            return DiscreteDistribution.point_mass(format(mask, f"0{self._n}b"))
        alice_mask = int(board[0].bits, 2)
        disjoint = (alice_mask & int(player_input)) == 0
        return BIT_POINT_MASSES[1 if disjoint else 0]

    def output(self, state: Any, board: Transcript) -> int:
        _count, answer = state
        return answer


class TwoPartySparseIntersectionProtocol(Protocol):
    """Compute the exact intersection under the promise ``|X_i| <= s``.

    Alice writes ``|X|`` (Elias gamma of ``|X| + 1``) followed by the rank
    of her set among ``|X|``-subsets of ``[n]``; Bob replies with one bit
    per element of Alice's set, marking membership in his set.  The
    output is the intersection as a bitmask (DISJ is then a free
    predicate on the output).
    """

    def __init__(self, n: int, s: int) -> None:
        super().__init__(2)
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        if not 0 <= s <= n:
            raise ValueError(f"need 0 <= s <= n, got s={s}")
        self._n = n
        self._s = s

    @property
    def set_bound(self) -> int:
        return self._s

    def initial_state(self) -> Any:
        return 0  # messages so far

    def advance_state(self, state: Any, message: Message) -> Any:
        return state + 1

    def next_speaker(self, state: Any, board: Transcript) -> Optional[int]:
        if state == 0:
            return 0
        if state == 1:
            return 1
        return None

    def _decode_alice(self, bits: str) -> List[int]:
        reader = BitReader(bits)
        size = decode_elias_gamma(reader) - 1
        if size == 0:
            reader.expect_exhausted()
            return []
        width = subset_code_width(self._n, size)
        rank = reader.read_uint(width)
        reader.expect_exhausted()
        return subset_unrank(rank, self._n, size)

    def message_distribution(
        self, state: Any, player: int, player_input: Any, board: Transcript
    ) -> DiscreteDistribution:
        mask = int(player_input)
        if player == 0:
            elements = bits_of(mask)
            if len(elements) > self._s:
                raise ValueError(
                    f"promise violated: |X| = {len(elements)} > s = {self._s}"
                )
            writer = BitWriter()
            writer.write_bits(encode_elias_gamma(len(elements) + 1))
            if elements:
                width = subset_code_width(self._n, len(elements))
                writer.write_uint(subset_rank(elements, self._n), width)
            return DiscreteDistribution.point_mass(writer.getvalue())
        alice_elements = self._decode_alice(board[0].bits)
        if not alice_elements:
            return BIT_POINT_MASSES[0]
        writer = BitWriter()
        for element in alice_elements:
            writer.write_flag(bool(mask >> element & 1))
        return DiscreteDistribution.point_mass(writer.getvalue())

    def output(self, state: Any, board: Transcript) -> int:
        alice_elements = self._decode_alice(board[0].bits)
        if not alice_elements:
            return 0
        bob_bits = board[1].bits
        intersection = 0
        for element, flag in zip(alice_elements, bob_bits):
            if flag == "1":
                intersection |= 1 << element
        return intersection

