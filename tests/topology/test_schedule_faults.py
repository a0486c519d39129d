"""A bad schedule fails the same way in every engine.

A speaker that is not an ``int`` naming a node — ``1.0``, ``"1"``, one
past the last node, ``-1`` — raises :class:`ProtocolViolation` from both
runners and every exact walk, board and medium alike.  A well-formed
speaker on a link it may not write stays a :class:`TopologyViolation`.
"""

import itertools

import pytest

from repro.core.model import ProtocolViolation
from repro.core.runner import run_protocol
from repro.core.tree import transcript_distribution, transcript_distributions
from repro.protocols import SequentialAndProtocol
from repro.topology import (
    COORDINATOR,
    CoordinatorTrivialDisjointness,
    Link,
    TopologyViolation,
    run_on_medium,
)
from repro.topology.tree import (
    medium_transcript_distribution,
    medium_transcript_distributions,
)

BAD_SPEAKERS = [1.0, "1", 99, -1]


class _BadSpeaker(SequentialAndProtocol):
    """Sequential AND whose first turn names ``speaker``."""

    def __init__(self, k, speaker):
        super().__init__(k)
        self.speaker = speaker

    def next_speaker(self, state, board):
        if len(board) == 0:
            return self.speaker
        return super().next_speaker(state, board)


class _BadNode(CoordinatorTrivialDisjointness):
    """Coordinator disjointness whose first edge names ``speaker``."""

    def __init__(self, speaker, link=None):
        super().__init__(2, 2)
        self.speaker = speaker
        self.link = Link(1, 2) if link is None else link

    def next_edge(self, state, transcript):
        if len(transcript) == 0:
            return (self.speaker, self.link)
        return super().next_edge(state, transcript)


ENGINES = {
    "run_protocol": lambda s: run_protocol(_BadSpeaker(3, s), (1, 1, 1)),
    "run_on_medium": lambda s: run_on_medium(_BadNode(s), COORDINATOR, (1, 2)),
    "dfs": lambda s: transcript_distribution(_BadSpeaker(3, s), (1, 1, 1)),
    # A population of 1 input takes the DFS, of 2 the dict walk, of 64
    # the array walk.
    "population-dfs": lambda s: transcript_distributions(
        _BadSpeaker(3, s), [(1, 1, 1)]
    ),
    "dict-walk": lambda s: transcript_distributions(
        _BadSpeaker(3, s), [(1, 1, 1), (0, 1, 1)]
    ),
    "array-walk": lambda s: transcript_distributions(
        _BadSpeaker(6, s), list(itertools.product((0, 1), repeat=6))
    ),
    "medium-dfs": lambda s: medium_transcript_distribution(
        _BadNode(s), COORDINATOR, (1, 2)
    ),
    "medium-walk": lambda s: medium_transcript_distributions(
        _BadNode(s), COORDINATOR, [(1, 2), (3, 0)]
    ),
}


@pytest.mark.parametrize("speaker", BAD_SPEAKERS, ids=repr)
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_bad_speaker_is_a_protocol_violation(engine, speaker):
    with pytest.raises(ProtocolViolation, match="invalid"):
        ENGINES[engine](speaker)


@pytest.mark.parametrize(
    "engine",
    [
        lambda p: run_on_medium(p, COORDINATOR, (1, 2)),
        lambda p: medium_transcript_distribution(p, COORDINATOR, (1, 2)),
        lambda p: medium_transcript_distributions(
            p, COORDINATOR, [(1, 2), (3, 0)]
        ),
    ],
    ids=["run_on_medium", "medium-dfs", "medium-walk"],
)
def test_bad_link_stays_a_topology_violation(engine):
    # Player 1 on player 0's private link.
    with pytest.raises(TopologyViolation):
        engine(_BadNode(1, Link(0, 2)))
