"""The streaming → blackboard reduction (the [1]-style application).

Given a one-pass streaming algorithm ``A`` that decides whether some item
appears in all ``k`` players' sets (e.g.
:class:`~repro.streaming.algorithms.CappedFrequencyCounter` with
``cap = k``), the blackboard protocol is mechanical:

* player 0 streams its elements through ``A`` and writes ``A``'s
  serialized memory state on the board;
* player ``i`` decodes the posted state, streams its own elements,
  and posts the updated state;
* the last player posts the one-bit answer instead of its state.

Communication: ``(k − 1) · space(A) + 1`` bits, and the protocol decides
disjointness exactly (DISJ = 1 − the frequency-``k`` indicator).  The
paper's :math:`\\Omega(n \\log k + k)` communication bound therefore
forces

.. math::
    \\text{space}(A) \\;\\ge\\; \\frac{\\Omega(n \\log k + k) - 1}{k - 1},

which :func:`space_lower_bound` computes; experiment E12 tabulates the
measured space of the exact algorithms against it.
"""

from __future__ import annotations

import math
from typing import Any, Optional

from ..coding.bitops import bits_of
from ..coding.bitio import BitReader
from ..information.distribution import BIT_POINT_MASSES, DiscreteDistribution
from ..core.model import Message, Protocol, ProtocolViolation, Transcript
from .model import StreamingAlgorithm

__all__ = ["StreamingSimulationProtocol", "space_lower_bound"]


class StreamingSimulationProtocol(Protocol):
    """The blackboard protocol induced by a streaming algorithm.

    Player inputs are integer bitmasks over ``[n]`` (the disjointness
    input format); each player streams its set's elements in increasing
    order.  The final player writes ``"1"`` iff the algorithm's output is
    truthy; the protocol's output is the *complement* when
    ``answer_is_disjoint`` (the frequency-``k`` event is "non-disjoint").
    """

    def __init__(
        self,
        algorithm: StreamingAlgorithm,
        k: int,
        *,
        answer_is_disjoint: bool = True,
    ) -> None:
        super().__init__(k)
        self._algorithm = algorithm
        self._n = algorithm.universe_size
        self._answer_is_disjoint = answer_is_disjoint

    @property
    def algorithm(self) -> StreamingAlgorithm:
        return self._algorithm

    # State: (players spoken, decoded stream state or None, answer bit).
    def initial_state(self) -> Any:
        return (0, self._algorithm.initial_state(), None)

    def advance_state(self, state: Any, message: Message) -> Any:
        count, _stream_state, answer = state
        if count < self.num_players - 1:
            reader = BitReader(message.bits)
            decoded = self._algorithm.decode_state(reader)
            reader.expect_exhausted()
            return (count + 1, decoded, answer)
        return (count + 1, None, 1 if message.bits == "1" else 0)

    def next_speaker(self, state: Any, board: Transcript) -> Optional[int]:
        count, _stream_state, _answer = state
        return count if count < self.num_players else None

    def message_distribution(
        self, state: Any, player: int, player_input: Any, board: Transcript
    ) -> DiscreteDistribution:
        count, stream_state, _answer = state
        mask = int(player_input)
        if not 0 <= mask < (1 << self._n):
            raise ValueError(
                f"input {player_input!r} is not an {self._n}-bit mask"
            )
        for item in bits_of(mask):
            stream_state = self._algorithm.update(stream_state, item)
        if count < self.num_players - 1:
            return DiscreteDistribution.point_mass(
                self._algorithm.encode_state(stream_state)
            )
        indicator = bool(self._algorithm.output(stream_state))
        return BIT_POINT_MASSES[1 if indicator else 0]

    def output(self, state: Any, board: Transcript) -> int:
        _count, _stream_state, answer = state
        if answer is None:
            raise ProtocolViolation("output requested before halting")
        if self._answer_is_disjoint:
            return 1 - answer
        return answer


def space_lower_bound(n: int, k: int, *, constant: float = 0.25) -> float:
    """The space bound implied by Corollary 1 through the reduction:
    ``space >= (c (n log2 k + k) - 1) / (k - 1)`` bits.

    ``constant`` is the (unspecified) constant of the paper's Ω; the E12
    experiment uses a conservative 1/4.
    """
    if k < 2:
        raise ValueError(f"the reduction needs k >= 2, got {k}")
    return max(
        (constant * (n * math.log2(k) + k) - 1.0) / (k - 1), 0.0
    )

