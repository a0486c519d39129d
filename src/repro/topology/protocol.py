"""Medium-generalized protocols, and the broadcast-protocol adapter.

A :class:`MediumProtocol` is the :class:`repro.core.model.Protocol`
contract restated over an arbitrary :class:`~repro.topology.medium.
Medium`: instead of a single next speaker writing on the implicit board,
the protocol names a **(speaker, link)** edge and the message law of that
speaker on that link.  Nodes ``0..num_players-1`` hold inputs; auxiliary
nodes (a coordinator, graph relays) receive ``player_input=None``.

:class:`BroadcastAdapter` lifts any legacy broadcast protocol into this
interface verbatim — same state machine, same distribution objects, same
halting rule — so running an adapted protocol on :data:`~repro.topology.
medium.BROADCAST` consumes the rng stream identically to
:func:`repro.core.runner.run_protocol` and produces the same transcript,
output, and bit count.  ``tests/topology/test_bit_identity.py`` pins
this over every registry and generated protocol.

Discipline (audited by :mod:`repro.topology.validate`):

* **scheduler locality** — :meth:`MediumProtocol.next_edge` may depend
  only on the medium's scheduler view of the transcript;
* **view locality** — a speaker's message law may depend only on its own
  input and its own view (the traffic on its visible links);
* prefix-freeness of each node's message set at each view, so message
  boundaries are recoverable by every reader.

All hooks must be pure functions: the exact analyzer replays transcripts
in arbitrary interleavings.
"""

from __future__ import annotations

import abc
from typing import Any, List, Optional, Sequence, Tuple

from ..core.model import Message, Protocol, ProtocolViolation, Transcript
from ..information.distribution import DiscreteDistribution
from .medium import BOARD_LINK, LinkMessage, LinkTranscript

__all__ = ["MediumProtocol", "BroadcastAdapter"]


class MediumProtocol(abc.ABC):
    """A multi-party protocol stated over an explicit medium.

    Attributes
    ----------
    num_players:
        The number of input-holding players ``k`` (nodes ``0..k-1``).
        Auxiliary medium nodes at ids ``>= k`` carry no input.
    """

    def __init__(self, num_players: int) -> None:
        if num_players < 1:
            raise ValueError(f"need at least one player, got {num_players}")
        self._num_players = num_players

    @property
    def num_players(self) -> int:
        return self._num_players

    # ------------------------------------------------------------------
    # Transcript-state folding, as in the legacy Protocol.
    # ------------------------------------------------------------------
    def initial_state(self) -> Any:
        """The state of the empty transcript."""
        return None

    def advance_state(self, state: Any, message: LinkMessage) -> Any:
        """The state after ``message`` is sent.  Pure."""
        return None

    # ------------------------------------------------------------------
    # Protocol logic.
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def next_edge(
        self, state: Any, transcript: LinkTranscript
    ) -> Optional[Tuple[int, Any]]:
        """The next ``(speaker, link)`` to carry a message, or ``None``
        to halt.

        May depend only on the medium's scheduler view of the transcript
        — the coordinator's view in the coordinator model, public trace
        metadata on a general graph.
        """

    @abc.abstractmethod
    def message_distribution(
        self,
        state: Any,
        speaker: int,
        speaker_input: Any,
        transcript: LinkTranscript,
    ) -> DiscreteDistribution:
        """The exact law of the next message on the scheduled link.

        ``speaker_input`` is ``None`` for non-player nodes.  May depend
        only on the speaker's input and the speaker's *view* of the
        transcript, not on traffic the speaker cannot read.
        """

    @abc.abstractmethod
    def output(self, state: Any, transcript: LinkTranscript) -> Any:
        """The protocol's output from the final transcript (not charged)."""

    # ------------------------------------------------------------------
    # Conveniences.
    # ------------------------------------------------------------------
    def validate_inputs(self, inputs: Sequence[Any]) -> None:
        """Raise if ``inputs`` is not one input per player."""
        if len(inputs) != self._num_players:
            raise ProtocolViolation(
                f"protocol has {self._num_players} players but got "
                f"{len(inputs)} inputs"
            )

    def replay_state(self, transcript: LinkTranscript) -> Any:
        """Fold an existing transcript into a state object from scratch."""
        state = self.initial_state()
        for message in transcript:
            state = self.advance_state(state, message)
        return state


class BroadcastAdapter(MediumProtocol):
    """Run a legacy broadcast :class:`~repro.core.model.Protocol` on the
    broadcast medium, bit-identically.

    The adapter's state is ``(inner_state, board)``: the wrapped
    protocol's own state plus the board :class:`Transcript` folded
    incrementally, so every hook of the wrapped protocol is called with
    exactly the arguments the legacy runner would pass — including the
    very same :class:`DiscreteDistribution` objects, which keeps the rng
    consumption stream identical.
    """

    def __init__(self, protocol: Protocol) -> None:
        super().__init__(protocol.num_players)
        self._protocol = protocol

    @property
    def protocol(self) -> Protocol:
        """The wrapped legacy broadcast protocol."""
        return self._protocol

    def initial_state(self) -> Any:
        from ..core.model import EMPTY_TRANSCRIPT

        return (self._protocol.initial_state(), EMPTY_TRANSCRIPT)

    def advance_state(self, state: Any, message: LinkMessage) -> Any:
        inner, board = state
        board_message = Message(speaker=message.speaker, bits=message.bits)
        return (
            self._protocol.advance_state(inner, board_message),
            board.extend(board_message),
        )

    def next_edge(
        self, state: Any, transcript: LinkTranscript
    ) -> Optional[Tuple[int, Any]]:
        inner, board = state
        speaker = self._protocol.next_speaker(inner, board)
        if speaker is None:
            return None
        return (speaker, BOARD_LINK)

    def message_distribution(
        self,
        state: Any,
        speaker: int,
        speaker_input: Any,
        transcript: LinkTranscript,
    ) -> DiscreteDistribution:
        inner, board = state
        return self._protocol.message_distribution(
            inner, speaker, speaker_input, board
        )

    def output(self, state: Any, transcript: LinkTranscript) -> Any:
        inner, board = state
        return self._protocol.output(inner, board)

    def __repr__(self) -> str:
        return f"BroadcastAdapter({self._protocol!r})"
