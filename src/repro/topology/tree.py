"""Exact enumeration of transcript distributions on arbitrary media.

The medium entry points of the exact walks of :mod:`repro.core.tree`:
each runs the core per-input DFS or dict shared walk under the medium's
:class:`~repro.core.tree.TurnRule` (:func:`medium_turns`) and returns
the exact law of the :class:`~repro.topology.medium.LinkTranscript` —
the object the per-view information decomposition of
:mod:`repro.topology.analysis` is computed over.

The walks are the board's own, so a
:class:`~repro.topology.protocol.BroadcastAdapter` enumerated here
yields distributions whose probabilities equal the board walk's floats
exactly (pinned by the bit-identity tests).  The shared walk's speaker
partition covers auxiliary nodes: a coordinator holds no input, so
every input tuple shares its message law and the whole population
rides one branch — the same rectangle-property reasoning as Lemma 3,
with the coordinator's "coordinate" trivial.

The numpy array walk of :mod:`repro.perf.kernels` stays board-only (see
docs/performance.md); every medium population takes the dict walk.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Tuple

from ..core import tree
from ..core.model import ProtocolViolation
from ..core.tree import DEFAULT_MAX_MESSAGES, TurnRule
from ..information.distribution import DiscreteDistribution, JointDistribution
from ..obs.trace import Tracer
from .medium import LinkMessage, LinkTranscript, Medium
from .protocol import MediumProtocol

__all__ = [
    "medium_transcript_distribution",
    "medium_transcript_distributions",
    "medium_joint_transcript_distribution",
]


def medium_turns(protocol: MediumProtocol, medium: Medium) -> TurnRule:
    """A medium's turn rule: ``next_edge`` names a ``(speaker, link)``
    edge, the speaker must be an ``int`` naming one of the medium's
    nodes (else :class:`~repro.core.model.ProtocolViolation`, as
    :func:`~repro.topology.runtime.run_on_medium` raises) and the edge
    must pass :meth:`~repro.topology.medium.Medium.check_edge` (else
    :class:`~repro.topology.medium.TopologyViolation`), so an
    enumeration doubles as a structural audit of the transcripts it
    visits."""
    k = protocol.num_players
    num_nodes = medium.num_nodes(k)
    next_edge = protocol.next_edge
    check_edge = medium.check_edge

    def turn(
        state: Any, transcript: LinkTranscript
    ) -> Optional[Tuple[int, Any]]:
        edge = next_edge(state, transcript)
        if edge is None:
            return None
        speaker, link = edge
        if not isinstance(speaker, int) or not 0 <= speaker < num_nodes:
            raise ProtocolViolation(
                f"next_edge returned invalid node {speaker!r}"
            )
        check_edge(k, speaker, link)
        return speaker, link

    return TurnRule(turn, LinkMessage, LinkTranscript)


def medium_transcript_distribution(
    protocol: MediumProtocol,
    medium: Medium,
    inputs: Sequence[Any],
    *,
    max_messages: int = DEFAULT_MAX_MESSAGES,
    tracer: Optional[Tracer] = None,
) -> DiscreteDistribution:
    """The exact law of the link transcript for one fixed input tuple:
    :func:`repro.core.tree.transcript_distribution` on ``medium``."""
    return tree._transcript_law(
        protocol,
        inputs,
        medium_turns(protocol, medium),
        max_messages=max_messages,
        tracer=tracer,
    )


def medium_transcript_distributions(
    protocol: MediumProtocol,
    medium: Medium,
    inputs: Iterable[Sequence[Any]],
    *,
    max_messages: int = DEFAULT_MAX_MESSAGES,
    tracer: Optional[Tracer] = None,
) -> Dict[Tuple[Any, ...], DiscreteDistribution]:
    """The exact link-transcript law of every input tuple in a
    population, from one shared walk:
    :func:`repro.core.tree.transcript_distributions` on ``medium``.
    Each law is bit-identical to :func:`medium_transcript_distribution`
    on that input."""
    return tree._transcript_laws(
        protocol,
        inputs,
        medium_turns(protocol, medium),
        max_messages=max_messages,
        tracer=tracer,
    )


def medium_joint_transcript_distribution(
    protocol: MediumProtocol,
    medium: Medium,
    scenarios: DiscreteDistribution,
    inputs_of: Optional[Callable[[Any], Sequence[Any]]] = None,
    *,
    names: Optional[Sequence[str]] = None,
    max_messages: int = DEFAULT_MAX_MESSAGES,
    tracer: Optional[Tracer] = None,
) -> JointDistribution:
    """The exact joint law of ``(scenario components..., transcript)``
    on a medium, from one shared walk:
    :func:`repro.core.tree.batched_joint_transcript_distribution` on
    ``medium``."""
    return tree._joint_law(
        protocol,
        scenarios,
        inputs_of,
        medium_turns(protocol, medium),
        names=names,
        max_messages=max_messages,
        tracer=tracer,
    )
