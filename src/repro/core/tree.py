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
  :mod:`repro.core.analysis` (worst-case communication and error) and
  :func:`reachable_transcripts` fold these laws; the information costs
  and the expected communication fold the walk's :class:`LeafTable`
  itself.
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

Boards and media
----------------
The per-input DFS and the dict shared walk are the exact walks of every
medium, not only of the board.  Each takes a :class:`TurnRule`, chosen
once per call: the board's (:func:`board_turns`) asks ``next_speaker``
and writes a :class:`Message`; a medium's
(:func:`repro.topology.tree.medium_turns`) asks ``next_edge``, checks
the edge against the medium and writes a
:class:`~repro.topology.medium.LinkMessage`.  A speaker with no input
(the coordinator, a relay) does not split the population: every input
tuple shares its message law, the Lemma 3 partition with a trivial
coordinate.  The array walk of :mod:`repro.perf.kernels` stays
board-only.

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

from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..information.distribution import DiscreteDistribution, JointDistribution
from ..obs.metrics import REGISTRY
from ..obs.trace import Tracer, get_tracer
from .model import Message, Protocol, ProtocolViolation, Transcript

__all__ = [
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


class LeafTable(NamedTuple):
    """One shared walk's leaves, as flat per-row lists.

    Every walk engine (the per-input DFS, the dict walk, the array walk
    of :mod:`repro.perf.kernels`) returns this shape, on every medium.
    Rows are grouped by distinct input, in input order —
    ``counts[j]`` rows for input ``j`` — and within an input they come
    in that input's per-input DFS leaf order (descending lexicographic
    child-index path), which pins every downstream float fold.  Leaf ids
    are engine-specific (the engines discover leaves in different
    orders); :meth:`rows` is the engine-independent content.
    """

    #: Rows per distinct input, in input order.
    counts: List[int]
    #: Per row: the union-leaf id (an index into :attr:`leaves`).
    leaf_ids: List[int]
    #: Per row: the unnormalized probability of that leaf under that
    #: input (the product of message probabilities along its path).
    probs: List[float]
    #: The union tree's leaf boards, by leaf id.
    leaves: List[Any]

    def rows(self) -> List[Tuple[int, Any, float]]:
        """``(input index, board, probability)`` per row."""
        owners = [j for j, count in enumerate(self.counts) for _ in range(count)]
        boards = [self.leaves[leaf_id] for leaf_id in self.leaf_ids]
        return list(zip(owners, boards, self.probs))


class TurnRule(NamedTuple):
    """Whose turn it is and what a message looks like: the one thing the
    board and the media of :mod:`repro.topology` walk differently.

    Speakers ``0..num_players-1`` hold an input; a speaker ``>=
    num_players`` (a coordinator, a relay) holds none, is asked with
    ``player_input=None`` and carries the whole population on one
    branch.
    """

    #: ``(state, transcript) -> (speaker, link)``, or ``None`` to halt.
    #: Raises :class:`ProtocolViolation` for a speaker that is not an
    #: ``int`` naming a node.
    turn: Callable[[Any, Any], Optional[Tuple[int, Any]]]
    #: ``(speaker, link, bits) -> message``.
    message: Callable[[int, Any, str], Any]
    #: The transcript class; the walk starts from its empty instance.
    transcript: Callable[[], Any]


def board_turns(protocol: Protocol) -> TurnRule:
    """The blackboard's turn rule: ``next_speaker`` names a player, who
    writes a :class:`Message` on the board (its link is ``None``)."""
    k = protocol.num_players
    next_speaker = protocol.next_speaker

    def turn(state: Any, board: Transcript) -> Optional[Tuple[int, Any]]:
        speaker = next_speaker(state, board)
        if speaker is None:
            return None
        if not isinstance(speaker, int) or not 0 <= speaker < k:
            raise ProtocolViolation(
                f"next_speaker returned invalid player {speaker!r}"
            )
        return speaker, None

    return TurnRule(turn, _board_message, Transcript)


def _board_message(speaker: int, _link: Any, bits: str) -> Message:
    return Message(speaker=speaker, bits=bits)


def transcript_distribution(
    protocol: Protocol,
    inputs: Sequence[Any],
    *,
    max_messages: int = DEFAULT_MAX_MESSAGES,
    tracer: Optional[Tracer] = None,
) -> DiscreteDistribution:
    """The exact law of the transcript ``Π(inputs)`` over private coins.

    For a deterministic protocol this is a point mass.  The walk is a DFS
    over the protocol tree, so its cost is the number of reachable
    (transcript prefix) nodes under this input.

    Observability: each call emits one ``tree_enumerated`` trace event
    summarizing the walk (nodes expanded, leaves, max depth) and feeds
    the ``tree_nodes_expanded`` / ``tree_leaves`` counters plus the
    ``tree_depth`` / ``tree_support`` histograms.  Per-node events are
    deliberately not emitted — tree sizes are exponential and a trace
    must stay proportional to the number of *calls*, not nodes.
    """
    return _transcript_law(
        protocol, inputs, None, max_messages=max_messages, tracer=tracer
    )


def _transcript_law(
    protocol: Any,
    inputs: Sequence[Any],
    turns: Optional[TurnRule],
    *,
    max_messages: int,
    tracer: Optional[Tracer],
) -> DiscreteDistribution:
    """The body of :func:`transcript_distribution` under any turn rule
    (``None``: the board's)."""
    if tracer is None:
        tracer = get_tracer()
    reg = REGISTRY if REGISTRY.enabled else None
    protocol.validate_inputs(inputs)
    leaves, nodes_expanded, max_depth = _dfs_leaves(
        protocol, inputs, max_messages=max_messages, turns=turns
    )
    if tracer:
        tracer.event(
            "tree_enumerated",
            protocol=type(protocol).__name__,
            nodes=nodes_expanded,
            leaves=len(leaves),
            max_depth=max_depth,
        )
    _record_walk(reg, protocol, nodes_expanded, len(leaves), max_depth)
    return DiscreteDistribution(leaves, normalize=True)


def _dfs_leaves(
    protocol: Any,
    inputs: Sequence[Any],
    *,
    max_messages: int,
    turns: Optional[TurnRule] = None,
) -> Tuple[Dict[Any, float], int, int]:
    """The per-input DFS: ``(leaves, nodes_expanded, max_depth)``, with
    ``leaves`` the unnormalized leaf masses in DFS arrival order.
    ``turns`` defaults to the board's rule."""
    if turns is None:
        turns = board_turns(protocol)
    turn, make_message = turns.turn, turns.message
    k = protocol.num_players
    leaves: Dict[Any, float] = {}
    nodes_expanded = 0
    max_depth = 0
    # Stack entries: (state, board, probability-so-far).
    stack: List[Tuple[Any, Any, float]] = [
        (protocol.initial_state(), turns.transcript(), 1.0)
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
        edge = turn(state, board)
        if edge is None:
            leaves[board] = leaves.get(board, 0.0) + prob
            continue
        speaker, link = edge
        dist = protocol.message_distribution(
            state, speaker, inputs[speaker] if speaker < k else None, board
        )
        for bits, p in dist.items():
            if p <= _PRUNE_BELOW:
                continue
            if bits == "":
                raise ProtocolViolation("protocols may not write empty messages")
            message = make_message(speaker, link, bits)
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
) -> None:
    """Feed one walk's size into the registry's tree counters."""
    if reg is None:
        return
    name = type(protocol).__name__
    reg.counter("tree_nodes_expanded").inc(nodes_expanded, protocol=name)
    reg.counter("tree_leaves").inc(leaf_count, protocol=name)
    reg.histogram("tree_depth").observe(max_depth, protocol=name)
    reg.histogram("tree_support").observe(leaf_count, protocol=name)


def batched_joint_transcript_distribution(
    protocol: Protocol,
    scenarios: DiscreteDistribution,
    inputs_of: Optional[Callable[[Any], Sequence[Any]]] = None,
    *,
    names: Optional[Sequence[str]] = None,
    max_messages: int = DEFAULT_MAX_MESSAGES,
    tracer: Optional[Tracer] = None,
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

    Returns
    -------
    JointDistribution
        Over tuples ``scenario + (transcript,)``.
    """
    return _joint_law(
        protocol,
        scenarios,
        inputs_of,
        None,
        names=names,
        max_messages=max_messages,
        tracer=tracer,
    )


def _joint_law(
    protocol: Any,
    scenarios: DiscreteDistribution,
    inputs_of: Optional[Callable[[Any], Sequence[Any]]],
    turns: Optional[TurnRule],
    *,
    names: Optional[Sequence[str]],
    max_messages: int,
    tracer: Optional[Tracer],
) -> JointDistribution:
    """The body of :func:`batched_joint_transcript_distribution` under
    any turn rule (``None``: the board's)."""
    if inputs_of is None:
        inputs_of = lambda scenario: scenario[0]  # noqa: E731
    if tracer is None:
        tracer = get_tracer()
    reg = REGISTRY if REGISTRY.enabled else None

    # Pass 1: collect scenarios and the distinct input tuples behind them
    # (distinct scenarios may share an input tuple, e.g. different values
    # of the auxiliary variable D for the same X).
    scenario_rows, input_keys = _scenario_rows(protocol, scenarios, inputs_of)
    # Passes 2-3: every distinct input's transcript law from one walk.
    transcripts_by_key, nodes_expanded, union_leaf_count, max_depth = (
        _laws_by_input(
            protocol, input_keys, max_messages=max_messages, turns=turns
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
    )


def transcript_distributions(
    protocol: Protocol,
    inputs: Iterable[Sequence[Any]],
    *,
    max_messages: int = DEFAULT_MAX_MESSAGES,
    tracer: Optional[Tracer] = None,
) -> Dict[Tuple[Any, ...], DiscreteDistribution]:
    """The exact transcript law of every input tuple in a population,
    from one shared walk of the protocol tree.

    Returns ``{input tuple: law}`` in first-seen input order (duplicates
    are enumerated once); each law is bit-identical to
    :func:`transcript_distribution` on that input.  This is the walk the
    population analyses of :mod:`repro.core.analysis` fold over.

    The engine is picked from the population (see :func:`_leaf_table`).

    Observability: one ``laws_enumerated`` trace event per call plus the
    same ``tree_*`` counters and histograms as the other entry points.
    """
    return _transcript_laws(
        protocol, inputs, None, max_messages=max_messages, tracer=tracer
    )


def _transcript_laws(
    protocol: Any,
    inputs: Iterable[Sequence[Any]],
    turns: Optional[TurnRule],
    *,
    max_messages: int,
    tracer: Optional[Tracer],
) -> Dict[Tuple[Any, ...], DiscreteDistribution]:
    """The body of :func:`transcript_distributions` under any turn rule
    (``None``: the board's)."""
    _keys, laws = _population_walk(
        protocol,
        inputs,
        lambda keys: _laws_by_input(
            protocol, keys, max_messages=max_messages, turns=turns
        ),
        tracer=tracer,
    )
    return laws or {}


def _population_leaf_table(
    protocol: Protocol,
    inputs: Iterable[Sequence[Any]],
    *,
    tracer: Optional[Tracer] = None,
) -> Tuple[List[Tuple[Any, ...]], LeafTable]:
    """``(distinct inputs, leaf table)`` of one shared walk over a
    non-empty population, observed exactly like
    :func:`transcript_distributions` (the array folds of
    :mod:`repro.core.analysis` read the table instead of the laws)."""
    return _population_walk(
        protocol,
        inputs,
        lambda keys: _leaf_table(
            protocol, keys, max_messages=DEFAULT_MAX_MESSAGES
        ),
        tracer=tracer,
    )


def _population_walk(
    protocol: Any,
    inputs: Iterable[Sequence[Any]],
    walk: Callable[[List[Tuple[Any, ...]]], Tuple[Any, int, int, int]],
    *,
    tracer: Optional[Tracer],
) -> Tuple[List[Tuple[Any, ...]], Any]:
    """The body of the population entry points:
    distinct inputs, one ``walk`` returning ``(result, nodes_expanded,
    union_leaves, max_depth)``, the observability tail.  Returns
    ``(distinct inputs, result)``; ``result`` is ``None`` for an empty
    population, which is not walked."""
    if tracer is None:
        tracer = get_tracer()
    reg = REGISTRY if REGISTRY.enabled else None
    input_keys = _distinct_inputs(protocol, inputs)
    if not input_keys:
        return input_keys, None
    result, nodes_expanded, union_leaf_count, max_depth = walk(input_keys)
    if tracer:
        tracer.event(
            "laws_enumerated",
            protocol=type(protocol).__name__,
            distinct_inputs=len(input_keys),
            nodes=nodes_expanded,
            leaves=union_leaf_count,
            max_depth=max_depth,
        )
    _record_walk(reg, protocol, nodes_expanded, union_leaf_count, max_depth)
    return input_keys, result


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


class ScenarioRows(NamedTuple):
    """Pass 1 of a joint law: the scenarios in order, as columns."""

    scenarios: List[Tuple[Any, ...]]
    masses: List[float]
    #: Per scenario: the index of its input tuple among the distinct
    #: inputs (first-seen order).
    inputs: List[int]


def _scenario_rows(
    protocol: Any,
    scenarios: DiscreteDistribution,
    inputs_of: Callable[[Any], Sequence[Any]],
) -> Tuple[ScenarioRows, List[Tuple[Any, ...]]]:
    """Pass 1 of a joint law: the scenario columns in scenario order,
    and the distinct input keys in first-seen order (each validated
    once, after every scenario is read)."""
    rows = ScenarioRows([], [], [])
    index: Dict[Tuple[Any, ...], int] = {}
    for scenario, p_scenario in scenarios.items():
        if not isinstance(scenario, tuple):
            raise TypeError(
                f"scenario outcomes must be tuples, got {scenario!r}"
            )
        rows.scenarios.append(scenario)
        rows.masses.append(p_scenario)
        rows.inputs.append(
            index.setdefault(tuple(inputs_of(scenario)), len(index))
        )
    input_keys = list(index)
    for key in input_keys:
        protocol.validate_inputs(key)
    return rows, input_keys


def _leaf_table(
    protocol: Any,
    input_keys: List[Tuple[Any, ...]],
    *,
    max_messages: int,
    turns: Optional[TurnRule] = None,
) -> Tuple[LeafTable, int, int, int]:
    """Pass 2 of a joint law: one walk over the distinct inputs,
    ``(leaf table, nodes_expanded, union_leaves, max_depth)``.

    The engine is picked from the population and the turn rule, with no
    switch:

    * one input takes the per-input DFS;
    * a medium's turn rule, or fewer than ``kernels._VECTOR_MIN_SUPPORT``
      inputs on the board, take the dict walk
      (:func:`_legacy_walk_sorted_leaves`), whose per-node cost is lower
      while the population is small;
    * larger board populations take the array walk of
      :func:`repro.perf.kernels.tree_walk_sorted_leaves`.

    Both shared walks run one DFS over the *union* protocol tree, each
    node carrying the population of input tuples that reach its board,
    partitioned by the speaker's input alone.  Either way the index path
    replays, per input, the exact leaf order the per-input DFS produces
    (children are pushed in message order and popped LIFO, so leaves
    arrive in descending lexicographic index order) — which pins the
    normalization sum bit-for-bit.
    """
    if len(input_keys) == 1:
        leaves, nodes_expanded, max_depth = _dfs_leaves(
            protocol, input_keys[0], max_messages=max_messages, turns=turns
        )
        table = LeafTable(
            [len(leaves)], list(range(len(leaves))), list(leaves.values()),
            list(leaves),
        )
        return table, nodes_expanded, len(leaves), max_depth

    from ..perf import kernels

    if turns is not None or len(input_keys) < kernels._VECTOR_MIN_SUPPORT:
        return _legacy_walk_sorted_leaves(
            protocol, input_keys, max_messages=max_messages, turns=turns
        )
    return kernels.tree_walk_sorted_leaves(
        protocol, input_keys, max_messages=max_messages
    )


def _laws_by_input(
    protocol: Any,
    input_keys: List[Tuple[Any, ...]],
    *,
    max_messages: int,
    turns: Optional[TurnRule] = None,
) -> Tuple[Dict[Tuple[Any, ...], DiscreteDistribution], int, int, int]:
    """Passes 2-3: each distinct input's transcript law,
    ``(laws, nodes_expanded, union_leaves, max_depth)``."""
    table, nodes_expanded, union_leaf_count, max_depth = _leaf_table(
        protocol, input_keys, max_messages=max_messages, turns=turns
    )
    laws = _laws_from_leaf_table(input_keys, table)
    return laws, nodes_expanded, union_leaf_count, max_depth


def _laws_from_leaf_table(
    input_keys: Sequence[Tuple[Any, ...]], table: LeafTable
) -> Dict[Tuple[Any, ...], DiscreteDistribution]:
    """Pass 3: each input's law from its ordered leaf rows, accumulated
    and normalized exactly as the per-input DFS does.

    An input with one leaf (every input of a deterministic protocol)
    skips the dict and the generic constructor; its mass is the same
    ``p * (1.0 / p)``.
    """
    leaf_boards = list(map(table.leaves.__getitem__, table.leaf_ids))
    leaf_probs = table.probs
    single = DiscreteDistribution._normalized_point
    laws: Dict[Tuple[Any, ...], DiscreteDistribution] = {}
    pos = 0
    for key, count in zip(input_keys, table.counts):
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
    protocol: Any,
    input_keys: Sequence[Tuple[Any, ...]],
    *,
    max_messages: int = DEFAULT_MAX_MESSAGES,
    turns: Optional[TurnRule] = None,
) -> Tuple[LeafTable, int, int, int]:
    """The dict-driven shared walk: the engine of every medium and of
    board populations below ``kernels._VECTOR_MIN_SUPPORT`` inputs, and
    the reference the bit-identity tests and the
    ``vectorized-vs-legacy`` oracle compare the array walk against.
    ``turns`` defaults to the board's rule.

    Returns ``(leaf_table, nodes_expanded, union_leaves, max_depth)``
    — the same contract as
    :func:`repro.perf.kernels.tree_walk_sorted_leaves`, so the caller's
    folds are engine-independent.
    """
    if turns is None:
        turns = board_turns(protocol)
    turn, make_message = turns.turn, turns.message
    k = protocol.num_players
    Groups = Dict[Tuple[Any, ...], Tuple[float, Tuple[int, ...]]]
    leaves_by_key: Dict[
        Tuple[Any, ...], List[Tuple[Tuple[int, ...], int, float]]
    ] = {key: [] for key in input_keys}
    union_leaves: List[Any] = []
    nodes_expanded = 0
    max_depth = 0
    root_groups: Groups = {key: (1.0, ()) for key in input_keys}
    stack: List[Tuple[Any, Any, Groups]] = [
        (protocol.initial_state(), turns.transcript(), root_groups)
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
        edge = turn(state, board)
        if edge is None:
            # Every node of the union tree has its own board, so each
            # leaf is new here.
            leaf_id = len(union_leaves)
            union_leaves.append(board)
            for key, (prob, index_path) in groups.items():
                leaves_by_key[key].append((index_path, leaf_id, prob))
            continue
        speaker, link = edge
        # Partition the population by the speaking player's input — the
        # only coordinate the next message law may depend on (Lemma 3).
        # An input-less speaker keys every tuple to None: the whole
        # population shares one message law and one subtree.
        partitions: Dict[Any, List[Tuple[Any, ...]]] = {}
        if speaker < k:
            for key in groups:
                partitions.setdefault(key[speaker], []).append(key)
        else:
            partitions[None] = list(groups)
        children: Dict[str, Tuple[Any, Groups]] = {}
        for speaker_input, keys in partitions.items():
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
                        make_message(speaker, link, bits),
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
    # lexicographic index path), then flatten into the leaf table.
    table = LeafTable([], [], [], union_leaves)
    for key in input_keys:
        entries = leaves_by_key[key]
        entries.sort(key=lambda entry: entry[0], reverse=True)
        table.counts.append(len(entries))
        for _path, leaf_id, prob in entries:
            table.leaf_ids.append(leaf_id)
            table.probs.append(prob)
    return table, nodes_expanded, len(union_leaves), max_depth


def _assemble_joint(
    protocol: Protocol,
    scenario_rows: ScenarioRows,
    input_keys: List[Tuple[Any, ...]],
    transcripts_by_key: Dict[Tuple[Any, ...], DiscreteDistribution],
    nodes_expanded: int,
    union_leaf_count: int,
    max_depth: int,
    *,
    names: Optional[Sequence[str]],
    tracer: Optional[Tracer],
    reg,
) -> JointDistribution:
    """Scenario-mass accumulation + observability tail shared by every
    walk engine (identical float fold either way).  ``transcripts_by_key``
    lists the laws in ``input_keys`` order, as every walk builds it."""
    laws = list(transcripts_by_key.values())
    probs: Dict[Tuple[Any, ...], float] = {}
    for scenario, p_scenario, j in zip(*scenario_rows):
        for transcript, p_transcript in laws[j].items():
            outcome = scenario + (transcript,)
            probs[outcome] = probs.get(outcome, 0.0) + p_scenario * p_transcript

    _observe_joint(
        protocol,
        len(scenario_rows.scenarios),
        len(input_keys),
        len(probs),
        nodes_expanded,
        union_leaf_count,
        max_depth,
        tracer=tracer,
        reg=reg,
    )
    full_names = None
    if names is not None:
        full_names = tuple(names) + ("transcript",)
    return JointDistribution(probs, names=full_names, normalize=True)


def _observe_joint(
    protocol: Any,
    scenario_count: int,
    input_count: int,
    outcome_count: int,
    nodes_expanded: int,
    union_leaf_count: int,
    max_depth: int,
    *,
    tracer: Optional[Tracer],
    reg,
) -> None:
    """The observability tail of one joint law, whether it was built as
    a dict or folded as row arrays: the ``joint_enumerated`` event and
    the walk's registry counters."""
    if tracer:
        tracer.event(
            "joint_enumerated",
            protocol=type(protocol).__name__,
            scenarios=scenario_count,
            distinct_inputs=input_count,
            outcomes=outcome_count,
            nodes=nodes_expanded,
            max_depth=max_depth,
            batched=True,
        )
    _record_walk(reg, protocol, nodes_expanded, union_leaf_count, max_depth)


def joint_transcript_distribution(
    protocol: Protocol,
    scenarios: DiscreteDistribution,
    inputs_of: Optional[Callable[[Any], Sequence[Any]]] = None,
    *,
    names: Optional[Sequence[str]] = None,
    max_messages: int = DEFAULT_MAX_MESSAGES,
    tracer: Optional[Tracer] = None,
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
