"""Exact enumeration of transcript distributions on arbitrary media.

The medium-generalized sibling of :mod:`repro.core.tree`: walks a
:class:`~repro.topology.protocol.MediumProtocol`'s protocol tree on a
:class:`~repro.topology.medium.Medium`, branching on every message in
the scheduled speaker's law, and returns the exact law of the
:class:`~repro.topology.medium.LinkTranscript` — the object the
per-view information decomposition of :mod:`repro.topology.analysis` is
computed over.

Both walks replicate the core engine's discipline precisely — LIFO
stack, children pushed in ``dist.items()`` order, zero-probability
pruning, leaf accumulation and ``normalize=True`` folding in the same
order — so a :class:`~repro.topology.protocol.BroadcastAdapter`
enumerated here yields distributions whose probabilities equal the
legacy walk's floats exactly (pinned by the bit-identity tests).  The
batched walk generalizes the speaker-input partition to auxiliary
nodes: a coordinator holds no input, so every input tuple shares its
message law and the whole population rides one branch — the same
rectangle-property reasoning as Lemma 3, with the coordinator's
"coordinate" trivial.

No vectorized kernel backs these walks; the numpy fast path of
:mod:`repro.perf.kernels` remains broadcast-only (see
docs/performance.md).  Enumeration sizes in the coordinator experiments
are small, so the dict engine suffices.

The core :class:`~repro.core.tree.MessageDistributionMemo` is reusable
here unchanged — its key is ``(protocol, speaker, input, state,
transcript)`` and :class:`LinkTranscript` is hashable.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.model import ProtocolViolation
from ..core.tree import (
    DEFAULT_MAX_MESSAGES,
    LeafTable,
    MessageDistributionMemo,
    _assemble_joint,
    _laws_from_leaf_table,
    _population_walk,
    _record_walk,
    _scenario_rows,
)
from ..information.distribution import DiscreteDistribution, JointDistribution
from ..obs.metrics import REGISTRY
from ..obs.trace import Tracer, get_tracer
from .medium import LinkMessage, LinkTranscript, Medium
from .protocol import MediumProtocol

__all__ = [
    "medium_transcript_distribution",
    "medium_transcript_distributions",
    "medium_joint_transcript_distribution",
]

#: Probabilities below this threshold are treated as unreachable branches.
_PRUNE_BELOW = 0.0


def medium_transcript_distribution(
    protocol: MediumProtocol,
    medium: Medium,
    inputs: Sequence[Any],
    *,
    max_messages: int = DEFAULT_MAX_MESSAGES,
    tracer: Optional[Tracer] = None,
    memo: Optional[MessageDistributionMemo] = None,
) -> DiscreteDistribution:
    """The exact law of the link transcript for one fixed input tuple.

    A DFS over the protocol tree with the core walker's exact order of
    operations; adjacency of every scheduled edge is enforced via
    :meth:`~repro.topology.medium.Medium.check_edge`, so an enumeration
    doubles as a structural audit of the transcripts it visits.
    """
    if tracer is None:
        tracer = get_tracer()
    reg = REGISTRY if REGISTRY.enabled else None
    memo_before = (memo.hits, memo.misses) if memo is not None else (0, 0)
    protocol.validate_inputs(inputs)
    leaves, nodes_expanded, max_depth = _medium_dfs_leaves(
        protocol, medium, inputs, max_messages=max_messages, memo=memo
    )
    if tracer:
        tracer.event(
            "tree_enumerated",
            protocol=type(protocol).__name__,
            nodes=nodes_expanded,
            leaves=len(leaves),
            max_depth=max_depth,
        )
    _record_walk(
        reg, protocol, nodes_expanded, len(leaves), max_depth, memo, memo_before
    )
    return DiscreteDistribution(leaves, normalize=True)


def _medium_dfs_leaves(
    protocol: MediumProtocol,
    medium: Medium,
    inputs: Sequence[Any],
    *,
    max_messages: int,
    memo: Optional[MessageDistributionMemo],
) -> Tuple[Dict[LinkTranscript, float], int, int]:
    """The per-input DFS: ``(leaves, nodes_expanded, max_depth)``, with
    ``leaves`` the unnormalized leaf masses in DFS arrival order."""
    k = protocol.num_players
    leaves: Dict[LinkTranscript, float] = {}
    nodes_expanded = 0
    max_depth = 0
    stack: List[Tuple[Any, LinkTranscript, float]] = [
        (protocol.initial_state(), LinkTranscript(), 1.0)
    ]
    while stack:
        state, transcript, prob = stack.pop()
        nodes_expanded += 1
        if len(transcript) > max_messages:
            raise ProtocolViolation(
                f"protocol exceeded {max_messages} messages during exact "
                "enumeration"
            )
        if len(transcript) > max_depth:
            max_depth = len(transcript)
        edge = protocol.next_edge(state, transcript)
        if edge is None:
            leaves[transcript] = leaves.get(transcript, 0.0) + prob
            continue
        speaker, link = edge
        medium.check_edge(k, speaker, link)
        speaker_input = inputs[speaker] if speaker < k else None
        if memo is not None:
            dist = memo.distribution(
                protocol, state, speaker, speaker_input, transcript
            )
        else:
            dist = protocol.message_distribution(
                state, speaker, speaker_input, transcript
            )
        for bits, p in dist.items():
            if p <= _PRUNE_BELOW:
                continue
            if bits == "":
                raise ProtocolViolation("protocols may not write empty messages")
            message = LinkMessage(speaker=speaker, link=link, bits=bits)
            stack.append(
                (
                    protocol.advance_state(state, message),
                    transcript.extend(message),
                    prob * p,
                )
            )
    return leaves, nodes_expanded, max_depth


def medium_transcript_distributions(
    protocol: MediumProtocol,
    medium: Medium,
    inputs: Iterable[Sequence[Any]],
    *,
    max_messages: int = DEFAULT_MAX_MESSAGES,
    tracer: Optional[Tracer] = None,
) -> Dict[Tuple[Any, ...], DiscreteDistribution]:
    """The exact link-transcript law of every input tuple in a
    population, from one shared walk of the protocol tree.

    The medium analogue of :func:`repro.core.tree.
    transcript_distributions`: ``{input tuple: law}`` in first-seen
    order, each law bit-identical to
    :func:`medium_transcript_distribution` on that input.  A single
    distinct input takes the per-input DFS, a larger population the
    shared walk of :func:`medium_joint_transcript_distribution`.
    """
    _keys, laws = _population_walk(
        protocol,
        inputs,
        lambda keys: _medium_laws_by_input(
            protocol, medium, keys, max_messages=max_messages, memo=None
        ),
        tracer=tracer,
    )
    return laws or {}


def medium_joint_transcript_distribution(
    protocol: MediumProtocol,
    medium: Medium,
    scenarios: DiscreteDistribution,
    inputs_of: Optional[Callable[[Any], Sequence[Any]]] = None,
    *,
    names: Optional[Sequence[str]] = None,
    max_messages: int = DEFAULT_MAX_MESSAGES,
    tracer: Optional[Tracer] = None,
    memo: Optional[MessageDistributionMemo] = None,
) -> JointDistribution:
    """The exact joint law of ``(scenario components..., transcript)``
    on a medium, computed with one shared walk of the protocol tree.

    The medium analogue of :func:`repro.core.tree.
    batched_joint_transcript_distribution`: the scenario rows, the
    per-input laws of :func:`medium_transcript_distributions`' walk, and
    the core scenario fold and observability tail.
    """
    if inputs_of is None:
        inputs_of = lambda scenario: scenario[0]  # noqa: E731
    if tracer is None:
        tracer = get_tracer()
    reg = REGISTRY if REGISTRY.enabled else None
    memo_before = (memo.hits, memo.misses) if memo is not None else (0, 0)
    scenario_rows, input_keys = _scenario_rows(protocol, scenarios, inputs_of)
    transcripts_by_key, nodes_expanded, union_leaf_count, max_depth = (
        _medium_laws_by_input(
            protocol, medium, input_keys, max_messages=max_messages, memo=memo
        )
    )
    return _assemble_joint(
        protocol,
        scenario_rows,
        input_keys,
        transcripts_by_key,
        nodes_expanded,
        union_leaf_count,
        max_depth,
        names=names,
        tracer=tracer,
        reg=reg,
        memo=memo,
        memo_before=memo_before,
    )


def _medium_laws_by_input(
    protocol: MediumProtocol,
    medium: Medium,
    input_keys: List[Tuple[Any, ...]],
    *,
    max_messages: int,
    memo: Optional[MessageDistributionMemo],
) -> Tuple[Dict[Tuple[Any, ...], DiscreteDistribution], int, int, int]:
    """Each distinct input's link-transcript law:
    ``(laws, nodes_expanded, union_leaves, max_depth)``.

    One input takes the per-input DFS.  Larger populations share one
    dict walk (no vectorized kernel backs the media), with the speaker
    partition extended to auxiliary nodes: when the scheduled speaker is
    a player the population splits by that player's input coordinate;
    when it is an input-less node (coordinator, relay) all input tuples
    share the one message law and no split occurs.  Per input the
    multiplications, leaf order (descending lexicographic child-index
    path), and normalization fold match the per-input walk exactly.
    """
    if len(input_keys) == 1:
        (key,) = input_keys
        leaves, nodes_expanded, max_depth = _medium_dfs_leaves(
            protocol, medium, key, max_messages=max_messages, memo=memo
        )
        law = DiscreteDistribution(leaves, normalize=True)
        return {key: law}, nodes_expanded, len(leaves), max_depth

    k = protocol.num_players
    Groups = Dict[Tuple[Any, ...], Tuple[float, Tuple[int, ...]]]
    leaves_by_key: Dict[
        Tuple[Any, ...], List[Tuple[Tuple[int, ...], int, float]]
    ] = {key: [] for key in input_keys}
    union_leaves: List[LinkTranscript] = []
    nodes_expanded = 0
    max_depth = 0
    root_groups: Groups = {key: (1.0, ()) for key in input_keys}
    stack: List[Tuple[Any, LinkTranscript, Groups]] = [
        (protocol.initial_state(), LinkTranscript(), root_groups)
    ]
    while stack:
        state, transcript, groups = stack.pop()
        nodes_expanded += 1
        if len(transcript) > max_messages:
            raise ProtocolViolation(
                f"protocol exceeded {max_messages} messages during exact "
                "enumeration"
            )
        if len(transcript) > max_depth:
            max_depth = len(transcript)
        edge = protocol.next_edge(state, transcript)
        if edge is None:
            leaf_id = len(union_leaves)
            union_leaves.append(transcript)
            for key, (prob, index_path) in groups.items():
                leaves_by_key[key].append((index_path, leaf_id, prob))
            continue
        speaker, link = edge
        medium.check_edge(k, speaker, link)
        # Partition by the speaking player's input coordinate; an
        # auxiliary (input-less) node keys every tuple to None, so the
        # whole population shares one message law and one subtree.
        partitions: Dict[Any, List[Tuple[Any, ...]]] = {}
        if speaker < k:
            for key in groups:
                partitions.setdefault(key[speaker], []).append(key)
        else:
            partitions[None] = list(groups)
        children: Dict[str, Tuple[LinkMessage, Groups]] = {}
        for speaker_input, keys in partitions.items():
            if memo is not None:
                dist = memo.distribution(
                    protocol, state, speaker, speaker_input, transcript
                )
            else:
                dist = protocol.message_distribution(
                    state, speaker, speaker_input, transcript
                )
            for index, (bits, p) in enumerate(dist.items()):
                if p <= _PRUNE_BELOW:
                    continue
                if bits == "":
                    raise ProtocolViolation(
                        "protocols may not write empty messages"
                    )
                child = children.get(bits)
                if child is None:
                    child = children[bits] = (
                        LinkMessage(speaker=speaker, link=link, bits=bits),
                        {},
                    )
                child_groups = child[1]
                for key in keys:
                    prob, index_path = groups[key]
                    child_groups[key] = (prob * p, index_path + (index,))
        for bits, (message, child_groups) in children.items():
            stack.append(
                (
                    protocol.advance_state(state, message),
                    transcript.extend(message),
                    child_groups,
                )
            )

    # Each input's leaves in its per-input DFS order (descending
    # lexicographic index path), flattened into the core leaf table.
    table = LeafTable([], [], [], union_leaves)
    for key in input_keys:
        entries = leaves_by_key[key]
        entries.sort(key=lambda entry: entry[0], reverse=True)
        table.counts.append(len(entries))
        for _path, leaf_id, prob in entries:
            table.leaf_ids.append(leaf_id)
            table.probs.append(prob)
    laws = _laws_from_leaf_table(input_keys, table)
    return laws, nodes_expanded, len(union_leaves), max_depth
