"""Exact enumeration of a protocol's transcript distribution.

The paper's information-cost quantities are functionals of the joint law
of (inputs, auxiliary variable, transcript).  For protocols whose message
supports are finite and whose input distributions have enumerable support,
this joint law can be computed *exactly* by walking the protocol tree:
from each board state, branch on every message in the speaking player's
message distribution, multiplying probabilities along the way.

This exactness is what lets the test suite assert the paper's lemmas as
equalities/inequalities on concrete numbers rather than Monte-Carlo
estimates:

* Lemma 3's product decomposition ``Pr[Π(X) = ℓ] = Π_i q_{i, X_i}^ℓ``,
* Lemma 4's posterior formula,
* Theorem 1's Ω(log k) conditional information cost,
* the chain-rule identity of Section 6.

Entry points
------------
* :func:`transcript_distribution` — law of the transcript for one fixed
  input tuple.
* :func:`transcript_distributions` — the law of every input tuple of a
  population, from one shared walk (the per-input DFS when the
  population is a single input).  The population analyses of
  :mod:`repro.core.analysis` (expected/worst-case communication and
  error) and :func:`reachable_transcripts` fold these laws.
* :func:`joint_transcript_distribution` — joint law of (scenario
  components..., transcript) for a distribution over scenarios, where a
  scenario is any tuple whose components the caller wants to keep (inputs,
  auxiliary variables, ...).  A thin wrapper over the batched walk below.
* :func:`batched_joint_transcript_distribution` — the same joint law,
  computed with a *single* walk of the protocol tree shared across every
  scenario.  Lemma 3 says a transcript's probability factors into
  per-player terms that depend only on that player's own input, i.e.
  transcripts induce combinatorial rectangles over the input space.  The
  batched walk exploits exactly this structure: at every board prefix it
  carries the whole population of distinct input tuples that reach it and
  partitions them by the *speaker's* input alone, so inputs that agree on
  the speaking player's coordinate share one ``message_distribution``
  call and one subtree.  Distinct input tuples whose behaviors coincide
  along a prefix therefore cost one node expansion instead of many — the
  ``tree_nodes_expanded`` counter drops accordingly.
* :class:`MessageDistributionMemo` — an optional cross-call memo for
  ``message_distribution`` results, for workloads that re-enumerate the
  same protocol many times.

Bit-identity contract
---------------------
``batched_joint_transcript_distribution`` reproduces the legacy
per-input path *bit for bit*: per distinct input tuple it performs the
same multiplications in the same root-to-leaf order, reconstructs the
leaf insertion order the per-input DFS would have produced (children are
explored in reversed ``message_distribution`` order, so leaves arrive in
descending lexicographic child-index order), and accumulates scenario
mass in the same scenario/transcript iteration order.  The regression
suite asserts exact float equality across every shipped protocol class.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..information.distribution import DiscreteDistribution, JointDistribution
from ..obs.metrics import REGISTRY
from ..obs.trace import Tracer, get_tracer
from .model import Message, Protocol, ProtocolViolation, Transcript

__all__ = [
    "MessageDistributionMemo",
    "transcript_distribution",
    "joint_transcript_distribution",
    "batched_joint_transcript_distribution",
    "transcript_distributions",
    "reachable_transcripts",
]

#: Default ceiling on messages along any root-to-leaf path of the tree.
DEFAULT_MAX_MESSAGES = 100_000

#: Probabilities below this threshold are treated as unreachable branches.
_PRUNE_BELOW = 0.0

_MISSING = object()


class MessageDistributionMemo:
    """An optional memo for ``Protocol.message_distribution`` calls.

    Protocol hooks are pure functions, so the distribution returned for a
    given ``(state, speaker, player_input, board)`` is reusable across
    enumerations.  The exact analyzer never asks the same question twice
    *within* one walk (boards are unique along a walk, and a shared walk
    asks once per distinct speaker input), but callers that re-enumerate
    one protocol across calls repeat the identical call at every shared
    board prefix.

    The key is ``(protocol, speaker, player_input, state, board)``; the
    protocol object itself is part of the key, so one memo may be shared
    across protocol instances.  States that are unhashable fall back to
    calling through (counted separately), so the memo is always safe to
    pass.  Returned distributions are the *same objects* as the first
    call's, which preserves bit-identical downstream arithmetic.

    Observability: the analyzer entry points flush :attr:`hits` /
    :attr:`misses` deltas into the ``tree_memo_hits`` /
    ``tree_memo_misses`` counters of :data:`repro.obs.REGISTRY` (labeled
    by protocol class) whenever metrics collection is enabled.
    """

    __slots__ = ("_cache", "hits", "misses", "uncacheable")

    def __init__(self) -> None:
        self._cache: Dict[Any, DiscreteDistribution] = {}
        self.hits = 0
        self.misses = 0
        self.uncacheable = 0

    def __len__(self) -> int:
        return len(self._cache)

    def clear(self) -> None:
        self._cache.clear()

    def distribution(
        self,
        protocol: Protocol,
        state: Any,
        speaker: int,
        player_input: Any,
        board: Transcript,
    ) -> DiscreteDistribution:
        """``protocol.message_distribution(...)``, memoized."""
        try:
            key = (protocol, speaker, player_input, state, board)
            cached = self._cache.get(key, _MISSING)
        except TypeError:  # unhashable state or input
            self.uncacheable += 1
            return protocol.message_distribution(
                state, speaker, player_input, board
            )
        if cached is not _MISSING:
            self.hits += 1
            return cached  # type: ignore[return-value]
        self.misses += 1
        dist = protocol.message_distribution(state, speaker, player_input, board)
        self._cache[key] = dist
        return dist


def _flush_memo_counters(
    reg, memo: Optional[MessageDistributionMemo], before: Tuple[int, int], name: str
) -> None:
    """Feed the per-call memo hit/miss deltas into the registry."""
    if reg is None or memo is None:
        return
    hits = memo.hits - before[0]
    misses = memo.misses - before[1]
    if hits:
        reg.counter("tree_memo_hits").inc(hits, protocol=name)
    if misses:
        reg.counter("tree_memo_misses").inc(misses, protocol=name)


def transcript_distribution(
    protocol: Protocol,
    inputs: Sequence[Any],
    *,
    max_messages: int = DEFAULT_MAX_MESSAGES,
    tracer: Optional[Tracer] = None,
    memo: Optional[MessageDistributionMemo] = None,
    medium: Optional[Any] = None,
) -> DiscreteDistribution:
    """The exact law of the transcript ``Π(inputs)`` over private coins.

    For a deterministic protocol this is a point mass.  The walk is a DFS
    over the protocol tree, so its cost is the number of reachable
    (transcript prefix) nodes under this input.

    ``memo`` optionally reuses ``message_distribution`` results across
    calls (see :class:`MessageDistributionMemo`); results are unchanged.

    ``medium`` parameterizes the communication medium: ``None`` keeps
    the blackboard walk below (distribution over
    :class:`Transcript`); a :class:`~repro.topology.medium.Medium`
    delegates to :func:`repro.topology.tree.
    medium_transcript_distribution` (distribution over
    :class:`~repro.topology.medium.LinkTranscript`), auto-adapting a
    legacy protocol on the broadcast medium with identical floats.

    Observability: each call emits one ``tree_enumerated`` trace event
    summarizing the walk (nodes expanded, leaves, max depth) and feeds
    the ``tree_nodes_expanded`` / ``tree_leaves`` counters plus the
    ``tree_depth`` / ``tree_support`` histograms.  Per-node events are
    deliberately not emitted — tree sizes are exponential and a trace
    must stay proportional to the number of *calls*, not nodes.
    """
    if medium is not None:
        from ..topology.protocol import as_medium_protocol
        from ..topology.tree import medium_transcript_distribution

        return medium_transcript_distribution(
            as_medium_protocol(protocol, medium),
            medium,
            inputs,
            max_messages=max_messages,
            tracer=tracer,
            memo=memo,
        )
    if tracer is None:
        tracer = get_tracer()
    reg = REGISTRY if REGISTRY.enabled else None
    memo_before = (memo.hits, memo.misses) if memo is not None else (0, 0)
    protocol.validate_inputs(inputs)
    leaves, nodes_expanded, max_depth = _dfs_leaves(
        protocol, inputs, max_messages=max_messages, memo=memo
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


def _dfs_leaves(
    protocol: Protocol,
    inputs: Sequence[Any],
    *,
    max_messages: int,
    memo: Optional[MessageDistributionMemo],
) -> Tuple[Dict[Transcript, float], int, int]:
    """The per-input DFS: ``(leaves, nodes_expanded, max_depth)``, with
    ``leaves`` the unnormalized leaf masses in DFS arrival order."""
    leaves: Dict[Transcript, float] = {}
    nodes_expanded = 0
    max_depth = 0
    # Stack entries: (state, board, probability-so-far).
    stack: List[Tuple[Any, Transcript, float]] = [
        (protocol.initial_state(), Transcript(), 1.0)
    ]
    while stack:
        state, board, prob = stack.pop()
        nodes_expanded += 1
        if len(board) > max_messages:
            raise ProtocolViolation(
                f"protocol exceeded {max_messages} messages during exact "
                "enumeration"
            )
        if len(board) > max_depth:
            max_depth = len(board)
        speaker = protocol.next_speaker(state, board)
        if speaker is None:
            leaves[board] = leaves.get(board, 0.0) + prob
            continue
        if not 0 <= speaker < protocol.num_players:
            raise ProtocolViolation(
                f"next_speaker returned invalid player {speaker!r}"
            )
        if memo is not None:
            dist = memo.distribution(
                protocol, state, speaker, inputs[speaker], board
            )
        else:
            dist = protocol.message_distribution(
                state, speaker, inputs[speaker], board
            )
        for bits, p in dist.items():
            if p <= _PRUNE_BELOW:
                continue
            if bits == "":
                raise ProtocolViolation("protocols may not write empty messages")
            message = Message(speaker=speaker, bits=bits)
            stack.append(
                (
                    protocol.advance_state(state, message),
                    board.extend(message),
                    prob * p,
                )
            )
    return leaves, nodes_expanded, max_depth


def _record_walk(
    reg,
    protocol: Any,
    nodes_expanded: int,
    leaf_count: int,
    max_depth: int,
    memo: Optional[MessageDistributionMemo],
    memo_before: Tuple[int, int],
) -> None:
    """Feed one walk's size into the registry's tree counters."""
    if reg is None:
        return
    name = type(protocol).__name__
    reg.counter("tree_nodes_expanded").inc(nodes_expanded, protocol=name)
    reg.counter("tree_leaves").inc(leaf_count, protocol=name)
    reg.histogram("tree_depth").observe(max_depth, protocol=name)
    reg.histogram("tree_support").observe(leaf_count, protocol=name)
    _flush_memo_counters(reg, memo, memo_before, name)


def batched_joint_transcript_distribution(
    protocol: Protocol,
    scenarios: DiscreteDistribution,
    inputs_of: Optional[Callable[[Any], Sequence[Any]]] = None,
    *,
    names: Optional[Sequence[str]] = None,
    max_messages: int = DEFAULT_MAX_MESSAGES,
    tracer: Optional[Tracer] = None,
    memo: Optional[MessageDistributionMemo] = None,
    medium: Optional[Any] = None,
) -> JointDistribution:
    """The exact joint law of ``(scenario components..., transcript)``,
    computed with one shared walk of the protocol tree.

    Semantics and result are bit-identical to enumerating each distinct
    input tuple separately (the legacy per-input path, still available as
    :func:`transcript_distribution` in a loop); see the module docstring
    for why the shared walk is faithful to Lemma 3's rectangle structure.

    Parameters
    ----------
    protocol:
        The protocol to analyze.
    scenarios:
        A distribution whose outcomes are tuples; each tuple is one
        "scenario" (e.g. ``(x,)`` for plain inputs or ``(x, d)`` for the
        conditional-information-cost setting of Definition 6, where ``x``
        is itself the ``k``-tuple of player inputs).
    inputs_of:
        Extracts the player-input tuple from a scenario.  Defaults to the
        scenario's first component.
    names:
        Optional component names for the result; the transcript component
        is appended automatically as ``"transcript"``.
    memo:
        Optional :class:`MessageDistributionMemo` shared across calls.
    medium:
        ``None`` keeps the blackboard walk; a :class:`~repro.topology.
        medium.Medium` delegates to :func:`repro.topology.tree.
        medium_joint_transcript_distribution` (transcript component is a
        :class:`~repro.topology.medium.LinkTranscript`).

    Returns
    -------
    JointDistribution
        Over tuples ``scenario + (transcript,)``.
    """
    if medium is not None:
        from ..topology.protocol import as_medium_protocol
        from ..topology.tree import medium_joint_transcript_distribution

        return medium_joint_transcript_distribution(
            as_medium_protocol(protocol, medium),
            medium,
            scenarios,
            inputs_of,
            names=names,
            max_messages=max_messages,
            tracer=tracer,
            memo=memo,
        )
    if inputs_of is None:
        inputs_of = lambda scenario: scenario[0]  # noqa: E731
    if tracer is None:
        tracer = get_tracer()
    reg = REGISTRY if REGISTRY.enabled else None
    memo_before = (memo.hits, memo.misses) if memo is not None else (0, 0)

    # Pass 1: collect scenarios and the distinct input tuples behind them
    # (distinct scenarios may share an input tuple, e.g. different values
    # of the auxiliary variable D for the same X).
    scenario_rows, input_keys = _scenario_rows(protocol, scenarios, inputs_of)
    # Passes 2-3: every distinct input's transcript law from one walk.
    transcripts_by_key, nodes_expanded, union_leaf_count, max_depth = (
        _laws_by_input(protocol, input_keys, max_messages=max_messages, memo=memo)
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


def transcript_distributions(
    protocol: Protocol,
    inputs: Iterable[Sequence[Any]],
    *,
    max_messages: int = DEFAULT_MAX_MESSAGES,
    tracer: Optional[Tracer] = None,
    medium: Optional[Any] = None,
) -> Dict[Tuple[Any, ...], DiscreteDistribution]:
    """The exact transcript law of every input tuple in a population,
    from one shared walk of the protocol tree.

    Returns ``{input tuple: law}`` in first-seen input order (duplicates
    are enumerated once); each law is bit-identical to
    :func:`transcript_distribution` on that input.  This is the walk the
    population analyses of :mod:`repro.core.analysis` fold over.

    The engine is picked from the population: a single distinct input
    takes the per-input DFS (the array walk's set-up costs more than it
    shares there); larger populations take the array walk of
    :mod:`repro.perf.kernels`, or the dict walk when the input
    coordinates cannot be dense-coded.  ``medium`` delegates to
    :func:`repro.topology.tree.medium_transcript_distributions` (laws
    over :class:`~repro.topology.medium.LinkTranscript`).

    Observability: one ``laws_enumerated`` trace event per call plus the
    same ``tree_*`` counters and histograms as the other entry points.
    """
    if medium is not None:
        from ..topology.protocol import as_medium_protocol
        from ..topology.tree import medium_transcript_distributions

        return medium_transcript_distributions(
            as_medium_protocol(protocol, medium),
            medium,
            inputs,
            max_messages=max_messages,
            tracer=tracer,
        )
    return _population_laws(
        protocol,
        inputs,
        lambda keys: _laws_by_input(
            protocol, keys, max_messages=max_messages, memo=None
        ),
        tracer=tracer,
    )


def _population_laws(
    protocol: Any,
    inputs: Iterable[Sequence[Any]],
    laws_by_input: Callable[
        [List[Tuple[Any, ...]]],
        Tuple[Dict[Tuple[Any, ...], DiscreteDistribution], int, int, int],
    ],
    *,
    tracer: Optional[Tracer],
) -> Dict[Tuple[Any, ...], DiscreteDistribution]:
    """The body of both population entry points (board and medium):
    distinct inputs, one ``laws_by_input`` walk, the observability tail."""
    if tracer is None:
        tracer = get_tracer()
    reg = REGISTRY if REGISTRY.enabled else None
    input_keys = _distinct_inputs(protocol, inputs)
    if not input_keys:
        return {}
    laws, nodes_expanded, union_leaf_count, max_depth = laws_by_input(
        input_keys
    )
    if tracer:
        tracer.event(
            "laws_enumerated",
            protocol=type(protocol).__name__,
            distinct_inputs=len(input_keys),
            nodes=nodes_expanded,
            leaves=union_leaf_count,
            max_depth=max_depth,
        )
    _record_walk(
        reg, protocol, nodes_expanded, union_leaf_count, max_depth, None,
        (0, 0),
    )
    return laws


def _distinct_inputs(
    protocol: Any, inputs: Iterable[Sequence[Any]]
) -> List[Tuple[Any, ...]]:
    """The distinct input tuples of ``inputs`` in first-seen order, each
    validated once."""
    input_keys: Dict[Tuple[Any, ...], None] = {}
    for inputs_ in inputs:
        key = tuple(inputs_)
        if key not in input_keys:
            input_keys[key] = None
            protocol.validate_inputs(key)
    return list(input_keys)


def _scenario_rows(
    protocol: Any,
    scenarios: DiscreteDistribution,
    inputs_of: Callable[[Any], Sequence[Any]],
) -> Tuple[
    List[Tuple[Tuple[Any, ...], float, Tuple[Any, ...]]], List[Tuple[Any, ...]]
]:
    """Pass 1 of a joint law: ``(scenario, mass, input key)`` rows in
    scenario order, and the distinct input keys in first-seen order
    (each validated once)."""
    scenario_rows: List[Tuple[Tuple[Any, ...], float, Tuple[Any, ...]]] = []
    for scenario, p_scenario in scenarios.items():
        if not isinstance(scenario, tuple):
            raise TypeError(
                f"scenario outcomes must be tuples, got {scenario!r}"
            )
        scenario_rows.append((scenario, p_scenario, tuple(inputs_of(scenario))))
    input_keys = _distinct_inputs(protocol, (row[2] for row in scenario_rows))
    return scenario_rows, input_keys


def _laws_by_input(
    protocol: Protocol,
    input_keys: List[Tuple[Any, ...]],
    *,
    max_messages: int,
    memo: Optional[MessageDistributionMemo],
) -> Tuple[Dict[Tuple[Any, ...], DiscreteDistribution], int, int, int]:
    """Each distinct input's transcript law:
    ``(laws, nodes_expanded, union_leaves, max_depth)``.

    One input takes the per-input DFS.  Larger populations take one DFS
    over the *union* protocol tree, each node carrying the population of
    input tuples that reach its board.  The array walk
    (repro.perf.kernels) carries the population as index / probability /
    index-path arrays and partitions it by group-by; when the input
    coordinates cannot be dense-coded, the dict walk carries a mapping
    input tuple -> (probability of this path under that input,
    child-index path in that input's own enumeration).  Either way the
    index path replays, per input, the exact leaf order the per-input
    DFS produces (children are pushed in message order and popped LIFO,
    so leaves arrive in descending lexicographic index order) — which
    pins the normalization sum bit-for-bit.
    """
    if len(input_keys) == 1:
        (key,) = input_keys
        leaves, nodes_expanded, max_depth = _dfs_leaves(
            protocol, key, max_messages=max_messages, memo=memo
        )
        law = DiscreteDistribution(leaves, normalize=True)
        return {key: law}, nodes_expanded, len(leaves), max_depth

    from ..perf import kernels

    try:
        leaf_table, nodes_expanded, union_leaf_count, max_depth = (
            kernels.tree_walk_sorted_leaves(
                protocol,
                input_keys,
                max_messages=max_messages,
                memo=memo,
            )
        )
    except TypeError:
        # Unhashable input coordinates cannot be dense-coded; the
        # dict-driven walk handles them.
        leaf_table, nodes_expanded, union_leaf_count, max_depth = (
            _legacy_walk_sorted_leaves(
                protocol, input_keys, max_messages=max_messages, memo=memo
            )
        )

    laws = _laws_from_leaf_table(input_keys, leaf_table)
    return laws, nodes_expanded, union_leaf_count, max_depth


def _laws_from_leaf_table(
    input_keys: Sequence[Tuple[Any, ...]],
    leaf_table: Tuple[List[int], List[Any], List[float]],
) -> Dict[Tuple[Any, ...], DiscreteDistribution]:
    """Each input's law from its ordered leaf rows (descending
    lexicographic index path — every shared walk delivers this order),
    accumulated and normalized exactly as the per-input DFS does.

    An input with one leaf (every input of a deterministic protocol)
    skips the dict and the generic constructor; its mass is the same
    ``p * (1.0 / p)``.
    """
    counts, leaf_boards, leaf_probs = leaf_table
    single = DiscreteDistribution._normalized_point
    laws: Dict[Tuple[Any, ...], DiscreteDistribution] = {}
    pos = 0
    for key, count in zip(input_keys, counts):
        if count == 1 and leaf_probs[pos] > 0.0:
            laws[key] = single(leaf_boards[pos], leaf_probs[pos])
            pos += 1
            continue
        leaves: Dict[Any, float] = {}
        for offset in range(pos, pos + count):
            leaf_board = leaf_boards[offset]
            leaves[leaf_board] = (
                leaves.get(leaf_board, 0.0) + leaf_probs[offset]
            )
        pos += count
        laws[key] = DiscreteDistribution(leaves, normalize=True)
    return laws


def _legacy_walk_sorted_leaves(
    protocol: Protocol,
    input_keys: Sequence[Tuple[Any, ...]],
    *,
    max_messages: int = DEFAULT_MAX_MESSAGES,
    memo: Optional[MessageDistributionMemo] = None,
) -> Tuple[Tuple[List[int], List[Transcript], List[float]], int, int, int]:
    """The dict-driven shared walk: the engine for inputs the array walk
    cannot dense-code, and the reference the bit-identity tests and the
    ``vectorized-vs-legacy`` oracle compare that walk against.

    Returns ``(leaf_table, nodes_expanded, union_leaves, max_depth)``
    where ``leaf_table = (counts, boards, probabilities)`` concatenates
    every input's leaf entries in input order — ``counts[j]`` rows for
    ``input_keys[j]``, each row already in that input's per-input DFS
    leaf order.  The same contract as
    :func:`repro.perf.kernels.tree_walk_sorted_leaves`, so the caller's
    accumulation is engine-independent.
    """
    Groups = Dict[Tuple[Any, ...], Tuple[float, Tuple[int, ...]]]
    leaves_by_key: Dict[
        Tuple[Any, ...], List[Tuple[Tuple[int, ...], Transcript, float]]
    ] = {key: [] for key in input_keys}
    union_leaves: Dict[Transcript, None] = {}
    nodes_expanded = 0
    max_depth = 0
    root_groups: Groups = {key: (1.0, ()) for key in input_keys}
    stack: List[Tuple[Any, Transcript, Groups]] = [
        (protocol.initial_state(), Transcript(), root_groups)
    ]
    while stack:
        state, board, groups = stack.pop()
        nodes_expanded += 1
        if len(board) > max_messages:
            raise ProtocolViolation(
                f"protocol exceeded {max_messages} messages during exact "
                "enumeration"
            )
        if len(board) > max_depth:
            max_depth = len(board)
        speaker = protocol.next_speaker(state, board)
        if speaker is None:
            union_leaves[board] = None
            for key, (prob, index_path) in groups.items():
                leaves_by_key[key].append((index_path, board, prob))
            continue
        if not 0 <= speaker < protocol.num_players:
            raise ProtocolViolation(
                f"next_speaker returned invalid player {speaker!r}"
            )
        # Partition the population by the speaking player's input — the
        # only coordinate the next message law may depend on (Lemma 3).
        partitions: Dict[Any, List[Tuple[Any, ...]]] = {}
        for key in groups:
            partitions.setdefault(key[speaker], []).append(key)
        children: Dict[str, Tuple[Message, Groups]] = {}
        for speaker_input, keys in partitions.items():
            if memo is not None:
                dist = memo.distribution(
                    protocol, state, speaker, speaker_input, board
                )
            else:
                dist = protocol.message_distribution(
                    state, speaker, speaker_input, board
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
                        Message(speaker=speaker, bits=bits),
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
                    board.extend(message),
                    child_groups,
                )
            )

    # Sort each input's leaves into its per-input DFS order (descending
    # lexicographic index path), then flatten into the engine-shared
    # (counts, boards, probabilities) leaf table — flat parallel lists
    # avoid materializing one pair tuple per (input, leaf) row.
    counts: List[int] = []
    boards_flat: List[Transcript] = []
    probs_flat: List[float] = []
    for key in input_keys:
        entries = leaves_by_key[key]
        entries.sort(key=lambda entry: entry[0], reverse=True)
        counts.append(len(entries))
        for _path, board, prob in entries:
            boards_flat.append(board)
            probs_flat.append(prob)
    return (
        (counts, boards_flat, probs_flat),
        nodes_expanded,
        len(union_leaves),
        max_depth,
    )


def _assemble_joint(
    protocol: Protocol,
    scenario_rows: List[Tuple[Tuple[Any, ...], float, Tuple[Any, ...]]],
    input_keys: List[Tuple[Any, ...]],
    transcripts_by_key: Dict[Tuple[Any, ...], DiscreteDistribution],
    nodes_expanded: int,
    union_leaf_count: int,
    max_depth: int,
    *,
    names: Optional[Sequence[str]],
    tracer: Optional[Tracer],
    reg,
    memo: Optional[MessageDistributionMemo],
    memo_before: Tuple[int, int],
) -> JointDistribution:
    """Scenario-mass accumulation + observability tail shared by the
    dict and array walks (identical float fold either way)."""
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
    _record_walk(
        reg, protocol, nodes_expanded, union_leaf_count, max_depth, memo,
        memo_before,
    )
    full_names = None
    if names is not None:
        full_names = tuple(names) + ("transcript",)
    return JointDistribution(probs, names=full_names, normalize=True)


def joint_transcript_distribution(
    protocol: Protocol,
    scenarios: DiscreteDistribution,
    inputs_of: Optional[Callable[[Any], Sequence[Any]]] = None,
    *,
    names: Optional[Sequence[str]] = None,
    max_messages: int = DEFAULT_MAX_MESSAGES,
    tracer: Optional[Tracer] = None,
    memo: Optional[MessageDistributionMemo] = None,
    medium: Optional[Any] = None,
) -> JointDistribution:
    """The exact joint law of ``(scenario components..., transcript)``.

    A thin wrapper over :func:`batched_joint_transcript_distribution`,
    kept as the stable public name; results are bit-identical to the
    legacy implementation that enumerated every distinct input tuple
    with its own tree walk.
    """
    return batched_joint_transcript_distribution(
        protocol,
        scenarios,
        inputs_of,
        names=names,
        max_messages=max_messages,
        tracer=tracer,
        memo=memo,
        medium=medium,
    )


def reachable_transcripts(
    protocol: Protocol,
    input_tuples: Sequence[Sequence[Any]],
    *,
    max_messages: int = DEFAULT_MAX_MESSAGES,
    tracer: Optional[Tracer] = None,
) -> Dict[Transcript, List[Sequence[Any]]]:
    """All transcripts reachable from any of the given inputs, mapped to
    the inputs that can produce them.

    Used by the lower-bound machinery to enumerate the transcript space a
    protocol induces (e.g. to compute :math:`\\pi_2` over the two-zero
    input class) and by model-discipline tests.

    The laws come from one :func:`transcript_distributions` walk, so
    duplicate input tuples are enumerated once; the returned mapping
    still lists one entry per occurrence, preserving the historical
    output shape.  ``tracer`` passes through to that walk.
    """
    keys = [tuple(inputs) for inputs in input_tuples]
    laws = transcript_distributions(
        protocol, keys, max_messages=max_messages, tracer=tracer
    )
    reachable: Dict[Transcript, List[Sequence[Any]]] = {}
    for key in keys:
        for transcript in laws[key]:
            reachable.setdefault(transcript, []).append(key)
    return reachable
