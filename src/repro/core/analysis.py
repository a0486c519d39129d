"""Exact information-cost and error analysis of blackboard protocols.

This module computes, exactly, the quantities the paper defines in
Section 3:

* external information cost :math:`IC_\\mu(\\Pi) = I(\\Pi; X)`
  (Definition 5) — :func:`external_information_cost`;
* conditional information cost
  :math:`CIC_\\mu(\\Pi) = I(\\Pi; X \\mid D)` (Definition 6) —
  :func:`conditional_information_cost`;
* internal information cost for two players (the notion of [7], mentioned
  for contrast in Section 6) — :func:`internal_information_cost`;
* distributional error, worst-case error over an input family, expected
  and worst-case communication.

All functions take an input distribution with *enumerable support* and use
:mod:`repro.core.tree` for exact protocol-tree enumeration.  The external
and conditional information costs, :math:`H(\\Pi)` and the expected
communication read one shared walk's leaf table: from
``_VECTOR_MIN_SUPPORT`` rows on they fold it as arrays
(:mod:`repro.perf.kernels`), below that they build the batched joint law
or the per-input laws from the same table and run the scalar
functionals — with identical floats either way.  The error and
worst-case analyses fold the per-input laws of
:func:`repro.core.tree.transcript_distributions`.  The identity
:math:`IC_\\mu(\\Pi) \\le H(\\Pi) \\le |\\Pi|` (stated after Definition 5)
is asserted by the test suite using these same functions.

The same functionals on other media, and the per-*view* generalization
of the per-player decompositions, live in :mod:`repro.topology.analysis`
(the broadcast medium reproduces the values here exactly).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Sequence

from ..information.distribution import (
    DiscreteDistribution,
    JointDistribution,
    left_sum,
)
from ..information.entropy import (
    conditional_mutual_information,
    entropy,
    mutual_information,
)
from ..obs.metrics import REGISTRY
from ..obs.trace import get_tracer
from . import tree
from .model import Protocol, Transcript
from .tasks import Task
from .tree import joint_transcript_distribution, transcript_distributions

__all__ = [
    "transcript_joint",
    "conditional_transcript_joint",
    "external_information_cost",
    "conditional_information_cost",
    "internal_information_cost",
    "transcript_entropy",
    "distributional_error",
    "worst_case_error",
    "expected_communication",
    "worst_case_communication",
]


def transcript_joint(
    protocol: Protocol, input_dist: DiscreteDistribution
) -> JointDistribution:
    """The exact joint law of ``(inputs, transcript)``.

    ``input_dist`` is over input tuples (one entry per player).  The
    result has named components ``inputs`` and ``transcript``.
    """
    return joint_transcript_distribution(
        protocol, _input_scenarios(input_dist), names=("inputs",)
    )


def _input_scenarios(input_dist: DiscreteDistribution) -> DiscreteDistribution:
    """The scenario law ``(x,)`` of a law over input tuples."""
    return input_dist.map(lambda x: (x,))


def conditional_transcript_joint(
    protocol: Protocol, mu: DiscreteDistribution
) -> JointDistribution:
    """The exact joint law of ``(inputs, aux, transcript)``.

    ``mu`` is over ``(x, d)`` pairs as in Definition 6: ``x`` is the input
    tuple and ``d`` the auxiliary variable (the paper's :math:`D`, e.g.
    the special player :math:`Z` of the Section 4 hard distribution).
    """
    _check_aux_pairs(mu)
    return joint_transcript_distribution(protocol, mu, names=("inputs", "aux"))


def _check_aux_pairs(mu: DiscreteDistribution) -> None:
    for outcome in mu.support():
        if not (isinstance(outcome, tuple) and len(outcome) == 2):
            raise TypeError(
                "mu must be over (inputs, aux) pairs, got outcome "
                f"{outcome!r}"
            )


def _joint_functional(
    protocol: Protocol,
    scenarios: DiscreteDistribution,
    names: Sequence[str],
    array_fold: Callable[[Any], Optional[float]],
    joint_fold: Callable[[JointDistribution], float],
) -> float:
    """A functional of the joint law of ``(scenario..., transcript)``,
    with the scenario's first component as the player inputs.

    On the blackboard the walk's leaf table goes to
    :func:`repro.perf.kernels.joint_rows`, and ``array_fold`` computes
    the functional from those rows.  When the joint law has fewer than
    ``_VECTOR_MIN_SUPPORT`` rows, carries a zero mass, or ``array_fold``
    returns ``None``, the same leaf table builds the
    :class:`JointDistribution` of :func:`joint_transcript_distribution`
    and ``joint_fold`` runs on it.  Either way the walk runs once and
    emits one ``joint_enumerated`` event.
    """
    from ..perf import kernels

    tracer = get_tracer()
    reg = REGISTRY if REGISTRY.enabled else None
    scenario_rows, input_keys = tree._scenario_rows(
        protocol, scenarios, lambda scenario: scenario[0]
    )
    table, nodes_expanded, union_leaf_count, max_depth = tree._leaf_table(
        protocol, input_keys, max_messages=tree.DEFAULT_MAX_MESSAGES
    )
    rows = None
    row_count = sum(map(table.counts.__getitem__, scenario_rows.inputs))
    if row_count >= kernels._VECTOR_MIN_SUPPORT:
        rows = kernels.joint_rows(*scenario_rows, table)
    value = None if rows is None else array_fold(rows)
    if value is not None:
        tree._observe_joint(
            protocol,
            len(scenario_rows.scenarios),
            len(input_keys),
            row_count,
            nodes_expanded,
            union_leaf_count,
            max_depth,
            tracer=tracer,
            reg=reg,
        )
        return value
    joint = tree._assemble_joint(
        protocol,
        scenario_rows,
        input_keys,
        tree._laws_from_leaf_table(input_keys, table),
        nodes_expanded,
        union_leaf_count,
        max_depth,
        names=names,
        tracer=tracer,
        reg=reg,
    )
    return joint_fold(joint)


def external_information_cost(
    protocol: Protocol, input_dist: DiscreteDistribution
) -> float:
    """External information cost :math:`I(\\Pi; X)` in bits (Definition 5)."""
    from ..perf import kernels

    return _joint_functional(
        protocol,
        _input_scenarios(input_dist),
        ("inputs",),
        lambda rows: kernels.mutual_information_rows(
            rows.p, rows.leaf, rows.component(0)
        ),
        lambda joint: mutual_information(joint, "transcript", "inputs"),
    )


def conditional_information_cost(
    protocol: Protocol, mu: DiscreteDistribution
) -> float:
    """Conditional information cost :math:`I(\\Pi; X \\mid D)` in bits
    (Definition 6), for ``mu`` over ``(inputs, aux)`` pairs."""
    from ..perf import kernels

    _check_aux_pairs(mu)
    return _joint_functional(
        protocol,
        mu,
        ("inputs", "aux"),
        lambda rows: kernels.conditional_mutual_information_rows(
            rows.p, rows.leaf, rows.component(0), rows.component(1)
        ),
        lambda joint: conditional_mutual_information(
            joint, "transcript", "inputs", "aux"
        ),
    )


def internal_information_cost(
    protocol: Protocol, input_dist: DiscreteDistribution
) -> float:
    """Two-party internal information cost
    :math:`I(\\Pi; X_1 \\mid X_2) + I(\\Pi; X_2 \\mid X_1)` in bits.

    Only defined for ``k = 2``; the paper notes this notion does not
    extend to the broadcast model for ``k > 2``.  Provided so tests can
    check the classical relation ``internal <= external`` for product
    distributions.
    """
    if protocol.num_players != 2:
        raise ValueError(
            "internal information cost is a two-player notion; protocol "
            f"has {protocol.num_players} players"
        )
    scenarios = input_dist.map(lambda x: (x[0], x[1]))
    joint = joint_transcript_distribution(
        protocol,
        scenarios,
        inputs_of=lambda scenario: (scenario[0], scenario[1]),
        names=("x1", "x2"),
    )
    return conditional_mutual_information(
        joint, "transcript", "x1", "x2"
    ) + conditional_mutual_information(joint, "transcript", "x2", "x1")


def transcript_entropy(
    protocol: Protocol, input_dist: DiscreteDistribution
) -> float:
    """The entropy :math:`H(\\Pi)` of the transcript in bits.

    Upper-bounds the external information cost; the Section 6 argument
    that the sequential AND protocol has :math:`IC = O(\\log k)` bounds
    exactly this quantity.
    """
    from ..perf import kernels

    return _joint_functional(
        protocol,
        _input_scenarios(input_dist),
        ("inputs",),
        lambda rows: kernels.marginal_entropy_rows(rows.p, rows.leaf),
        lambda joint: entropy(joint.marginal("transcript")),
    )


def distributional_error(
    protocol: Protocol,
    input_dist: DiscreteDistribution,
    evaluate: Callable[[Sequence[Any]], Any],
) -> float:
    """The exact error probability under ``input_dist`` (and the
    protocol's private coins) — the distributional setting
    :math:`D^\\mu_\\epsilon` of Section 3."""
    laws = transcript_distributions(protocol, input_dist)
    # The output is a function of the transcript alone, so one cache
    # serves every input.
    outputs: dict = {}
    total = 0.0
    for inputs, p_inputs in input_dist.items():
        correct = evaluate(inputs)
        for transcript, p_transcript in laws[tuple(inputs)].items():
            if _output_for(protocol, transcript, outputs) != correct:
                total += p_inputs * p_transcript
    return total


def worst_case_error(
    protocol: Protocol,
    task: Task,
    inputs_iter: Optional[Iterable[Sequence[Any]]] = None,
) -> float:
    """The maximum, over the given inputs (default: the task's full
    domain), of the probability that the protocol errs.

    This is the worst-case error of Section 3's :math:`CC_\\epsilon`
    definition, computed exactly from the protocol tree.
    """
    if inputs_iter is None:
        inputs_iter = task.domain()
    inputs_list = list(inputs_iter)
    laws = transcript_distributions(protocol, inputs_list)
    outputs: dict = {}
    worst = 0.0
    for inputs in inputs_list:
        correct = task.evaluate(inputs)
        error = sum(
            p
            for transcript, p in laws[tuple(inputs)].items()
            if _output_for(protocol, transcript, outputs) != correct
        )
        worst = max(worst, error)
    return worst


def expected_communication(
    protocol: Protocol, input_dist: DiscreteDistribution
) -> float:
    """The exact expected number of bits written, under ``input_dist`` and
    the protocol's private coins.

    The shared walk's leaf table is folded as arrays
    (:func:`repro.perf.kernels.expected_bits`) from
    ``_VECTOR_MIN_SUPPORT`` rows on; smaller tables fold the per-input
    laws in the same float order."""
    from ..perf import kernels

    input_keys, table = tree._population_leaf_table(protocol, input_dist)
    if len(table.probs) >= kernels._VECTOR_MIN_SUPPORT:
        items = list(input_dist.items())
        if len(input_keys) == len(items):
            # Distinct outcomes, distinct keys: outcome i is input i.
            owners: Sequence[int] = range(len(items))
        else:
            index = {key: j for j, key in enumerate(input_keys)}
            owners = [index[tuple(inputs)] for inputs, _p in items]
        value = kernels.expected_bits(
            table, [p_inputs for _inputs, p_inputs in items], owners
        )
        if value is not None:
            return value
    laws = tree._laws_from_leaf_table(input_keys, table)
    total = 0.0
    for inputs, p_inputs in input_dist.items():
        total += p_inputs * left_sum(
            p * transcript.bits_written
            for transcript, p in laws[tuple(inputs)].items()
        )
    return total


def worst_case_communication(
    protocol: Protocol, inputs_iter: Iterable[Sequence[Any]]
) -> int:
    """The exact worst-case communication :math:`CC(\\Pi)` over the given
    inputs: the longest transcript reachable with positive probability."""
    laws = transcript_distributions(protocol, inputs_iter)
    if not laws:
        raise ValueError("no inputs supplied")
    return max(
        transcript.bits_written for law in laws.values() for transcript in law
    )


def _output_for(protocol: Protocol, transcript: Transcript, cache: dict) -> Any:
    """The protocol's output on a final transcript (with caching)."""
    if transcript not in cache:
        state = protocol.replay_state(transcript)
        cache[transcript] = protocol.output(state, transcript)
    return cache[transcript]
