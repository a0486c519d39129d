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

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.model import ProtocolViolation
from ..core.tree import (
    DEFAULT_MAX_MESSAGES,
    MessageDistributionMemo,
    _flush_memo_counters,
)
from ..information.distribution import DiscreteDistribution, JointDistribution
from ..obs.metrics import REGISTRY
from ..obs.trace import Tracer, get_tracer
from .medium import LinkMessage, LinkTranscript, Medium
from .protocol import MediumProtocol

__all__ = [
    "medium_transcript_distribution",
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
    if tracer:
        tracer.event(
            "tree_enumerated",
            protocol=type(protocol).__name__,
            nodes=nodes_expanded,
            leaves=len(leaves),
            max_depth=max_depth,
        )
    if reg is not None:
        name = type(protocol).__name__
        reg.counter("tree_nodes_expanded").inc(nodes_expanded, protocol=name)
        reg.counter("tree_leaves").inc(len(leaves), protocol=name)
        reg.histogram("tree_depth").observe(max_depth, protocol=name)
        reg.histogram("tree_support").observe(len(leaves), protocol=name)
        _flush_memo_counters(reg, memo, memo_before, name)
    return DiscreteDistribution(leaves, normalize=True)


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
    batched_joint_transcript_distribution` (dict engine), with the
    speaker partition extended to auxiliary nodes: when the scheduled
    speaker is a player the population splits by that player's input
    coordinate; when it is an input-less node (coordinator, relay) all
    input tuples share the one message law and no split occurs.  Per
    input the multiplications, leaf order (descending lexicographic
    child-index path), and normalization fold match the per-input walk
    exactly.
    """
    if inputs_of is None:
        inputs_of = lambda scenario: scenario[0]  # noqa: E731
    if tracer is None:
        tracer = get_tracer()
    reg = REGISTRY if REGISTRY.enabled else None
    memo_before = (memo.hits, memo.misses) if memo is not None else (0, 0)
    k = protocol.num_players

    scenario_rows: List[Tuple[Tuple[Any, ...], float, Tuple[Any, ...]]] = []
    input_keys: List[Tuple[Any, ...]] = []
    seen_keys: Dict[Tuple[Any, ...], None] = {}
    for scenario, p_scenario in scenarios.items():
        if not isinstance(scenario, tuple):
            raise TypeError(
                f"scenario outcomes must be tuples, got {scenario!r}"
            )
        key = tuple(inputs_of(scenario))
        scenario_rows.append((scenario, p_scenario, key))
        if key not in seen_keys:
            seen_keys[key] = None
            input_keys.append(key)
            protocol.validate_inputs(key)

    Groups = Dict[Tuple[Any, ...], Tuple[float, Tuple[int, ...]]]
    leaves_by_key: Dict[
        Tuple[Any, ...], List[Tuple[Tuple[int, ...], LinkTranscript, float]]
    ] = {key: [] for key in input_keys}
    union_leaves: Dict[LinkTranscript, None] = {}
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
            union_leaves[transcript] = None
            for key, (prob, index_path) in groups.items():
                leaves_by_key[key].append((index_path, transcript, prob))
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

    transcripts_by_key: Dict[Tuple[Any, ...], DiscreteDistribution] = {}
    for key in input_keys:
        entries = leaves_by_key[key]
        entries.sort(key=lambda entry: entry[0], reverse=True)
        leaves: Dict[LinkTranscript, float] = {}
        for _path, leaf_transcript, prob in entries:
            leaves[leaf_transcript] = leaves.get(leaf_transcript, 0.0) + prob
        transcripts_by_key[key] = DiscreteDistribution(leaves, normalize=True)

    probs: Dict[Tuple[Any, ...], float] = {}
    for scenario, p_scenario, key in scenario_rows:
        for transcript, p_transcript in transcripts_by_key[key].items():
            outcome = scenario + (transcript,)
            probs[outcome] = probs.get(outcome, 0.0) + p_scenario * p_transcript

    if tracer:
        tracer.event(
            "joint_enumerated",
            protocol=type(protocol).__name__,
            scenarios=len(scenario_rows),
            distinct_inputs=len(input_keys),
            outcomes=len(probs),
            nodes=nodes_expanded,
            max_depth=max_depth,
            batched=True,
        )
    if reg is not None:
        name = type(protocol).__name__
        reg.counter("tree_nodes_expanded").inc(nodes_expanded, protocol=name)
        reg.counter("tree_leaves").inc(len(union_leaves), protocol=name)
        reg.histogram("tree_depth").observe(max_depth, protocol=name)
        reg.histogram("tree_support").observe(len(union_leaves), protocol=name)
        _flush_memo_counters(reg, memo, memo_before, name)
    full_names = None
    if names is not None:
        full_names = tuple(names) + ("transcript",)
    return JointDistribution(probs, names=full_names, normalize=True)
