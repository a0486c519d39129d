"""The naive disjointness protocol from the paper's introduction.

"The players go in order, with each player ``i`` writing on the board the
coordinates ``j`` where :math:`X_i^j = 0`, unless they already appear on
the board.  A player that has no new zero coordinates to contribute writes
a single bit to indicate this.  After all players have taken their turn,
if there is some coordinate that does not appear on the board, then this
coordinate is in the intersection; otherwise the intersection is empty."

Communication: each of the at-most-``n`` distinct zero coordinates is
written once at :math:`\\lceil \\log_2 n \\rceil` bits, plus per-player
framing, for :math:`O(n \\log n + k)` total — the baseline the Section 5
protocol improves to :math:`O(n \\log k + k)`.

Message format (self-delimiting given the board):

* ``0`` — "pass", the player has no new zero coordinates;
* ``1`` + Elias-gamma(count) + ``count`` fixed-width
  (:math:`\\lceil \\log_2 n \\rceil`-bit) coordinate indices, written in
  increasing order.
"""

from __future__ import annotations

from typing import Any, Optional

from ..coding.bitops import bits_of
from ..coding.bitio import BitReader, BitWriter
from ..coding.varint import decode_elias_gamma, encode_elias_gamma
from ..information.distribution import BIT_POINT_MASSES, DiscreteDistribution
from ..core.model import Message, Protocol, ProtocolViolation, Transcript

__all__ = ["NaiveDisjointnessProtocol"]


class NaiveDisjointnessProtocol(Protocol):
    """Single-cycle protocol: every player dumps its new zeros once."""

    def __init__(self, n: int, k: int) -> None:
        super().__init__(k)
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        self._n = n
        self._index_width = max((n - 1).bit_length(), 1)

    @property
    def universe_size(self) -> int:
        return self._n

    # State: (players spoken, covered-coordinates bitmask).
    def initial_state(self) -> Any:
        return (0, 0)

    def advance_state(self, state: Any, message: Message) -> Any:
        count, covered = state
        covered |= self._decode_coordinates(message.bits)
        return (count + 1, covered)

    def _decode_coordinates(self, bits: str) -> int:
        """Parse a turn message into the bitmask of coordinates it wrote."""
        reader = BitReader(bits)
        if not reader.read_flag():
            reader.expect_exhausted()
            return 0
        count = decode_elias_gamma(reader)
        mask = 0
        previous = -1
        for _ in range(count):
            coordinate = reader.read_uint(self._index_width)
            if coordinate <= previous or coordinate >= self._n:
                raise ProtocolViolation(
                    f"malformed coordinate list in message {bits!r}"
                )
            mask |= 1 << coordinate
            previous = coordinate
        reader.expect_exhausted()
        return mask

    def next_speaker(self, state: Any, board: Transcript) -> Optional[int]:
        count, _covered = state
        return count if count < self.num_players else None

    def message_distribution(
        self, state: Any, player: int, player_input: Any, board: Transcript
    ) -> DiscreteDistribution:
        _count, covered = state
        mask = int(player_input)
        if not 0 <= mask < (1 << self._n):
            raise ValueError(
                f"input {player_input!r} is not an {self._n}-bit mask"
            )
        full = (1 << self._n) - 1
        new_zeros = (~mask) & full & ~covered
        if new_zeros == 0:
            return BIT_POINT_MASSES[0]
        coordinates = bits_of(new_zeros)
        writer = BitWriter()
        writer.write_flag(True)
        writer.write_bits(encode_elias_gamma(len(coordinates)))
        for coordinate in coordinates:
            writer.write_uint(coordinate, self._index_width)
        return DiscreteDistribution.point_mass(writer.getvalue())

    def output(self, state: Any, board: Transcript) -> int:
        _count, covered = state
        return int(covered == (1 << self._n) - 1)

