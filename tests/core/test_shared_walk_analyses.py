"""The population analyses fold the shared walk's per-input laws.

`expected_communication`, `worst_case_communication`,
`distributional_error`, `worst_case_error`, `reachable_transcripts`, the
two-zero support union of the Lemma 5 analysis and the medium
communication profiles all read the laws of one
`transcript_distributions` walk instead of walking the tree once per
input.  The contract is *bit identity* with the historical per-input
fold: every value below is compared with exact `==` against the same
fold over an independent per-input DFS
(`repro.check.mutations._legacy_transcript_distribution` and
`legacy_population_analyses`, or the medium DFS for link transcripts).
"""

import pytest

from repro.check.generator import GeneratedCoordinatorProtocol, generate_case
from repro.check.mutations import (
    _legacy_transcript_distribution,
    legacy_population_analyses,
)
from repro.core import analysis, tree
from repro.core.tasks import Task, boolean_inputs_with_zero_count
from repro.information.distribution import (
    BIT_POINT_MASSES,
    DiscreteDistribution,
)
from repro.lowerbounds.hard_distribution import and_hard_input_marginal
from repro.lowerbounds.transcripts import analyze_good_transcripts
from repro.obs import REGISTRY, disable_metrics, enable_metrics
from repro.perf import kernels
from repro.protocols import ALL_PROTOCOLS, SequentialAndProtocol
from repro.topology import analysis as topology_analysis
from repro.topology.medium import COORDINATOR
from repro.topology.protocols import (
    CoordinatorAndProtocol,
    CoordinatorDisjointnessProtocol,
)
from repro.topology.tree import medium_transcript_distribution


# ----------------------------------------------------------------------
# Per-input reference folds (the pre-sharing loops, over an independent
# DFS).
# ----------------------------------------------------------------------
def _law(protocol, inputs):
    return _legacy_transcript_distribution(protocol, tuple(inputs), None)


def _output(protocol, transcript):
    return protocol.output(protocol.replay_state(transcript), transcript)


def ref_expected_medium_communication(protocol, medium, input_dist):
    total = 0.0
    for inputs, p_inputs in input_dist.items():
        law = medium_transcript_distribution(protocol, medium, inputs)
        total += p_inputs * sum(
            p * transcript.bits_written for transcript, p in law.items()
        )
    return total


def ref_worst_case_error(protocol, task, inputs_list):
    worst = 0.0
    for inputs in inputs_list:
        correct = task.evaluate(inputs)
        error = sum(
            p
            for transcript, p in _law(protocol, inputs).items()
            if _output(protocol, transcript) != correct
        )
        worst = max(worst, error)
    return worst


def ref_reachable(protocol, inputs_list):
    reachable = {}
    for inputs in inputs_list:
        key = tuple(inputs)
        for transcript in _law(protocol, key).support():
            reachable.setdefault(transcript, []).append(key)
    return reachable


def ref_per_link(protocol, medium, input_dist):
    totals = {link: 0.0 for link in medium.links(protocol.num_players)}
    for inputs, p_inputs in input_dist.items():
        law = medium_transcript_distribution(protocol, medium, inputs)
        for transcript, p in law.items():
            for link, bits in transcript.bits_by_link().items():
                totals[link] = totals.get(link, 0.0) + p_inputs * p * bits
    return totals


def _parity(inputs):
    """A deterministic 0/1 target, so both error folds see mistakes."""
    return sum(map(ord, repr(tuple(inputs)))) % 2


def _weighted(inputs):
    """A non-uniform law over ``inputs``, so fold order matters."""
    return DiscreteDistribution(
        {x: 1.0 + (i % 5) * 0.37 for i, x in enumerate(inputs)},
        normalize=True,
    )


def assert_folds_identical(protocol, input_dist, inputs_list, evaluate):
    """Expected and worst-case communication and distributional error
    equal the per-input reference folds exactly."""
    assert (
        analysis.expected_communication(protocol, input_dist),
        analysis.worst_case_communication(protocol, inputs_list),
        analysis.distributional_error(protocol, input_dist, evaluate),
    ) == legacy_population_analyses(
        protocol, input_dist, inputs_list, evaluate
    )


def assert_population_identical(protocol, inputs_list):
    input_dist = _weighted(inputs_list)
    task = Task("parity", protocol.num_players, _parity)
    assert_folds_identical(protocol, input_dist, inputs_list, _parity)
    assert analysis.worst_case_error(
        protocol, task, inputs_list
    ) == ref_worst_case_error(protocol, task, inputs_list)
    produced = tree.reachable_transcripts(protocol, inputs_list)
    expected = ref_reachable(protocol, inputs_list)
    assert list(produced.items()) == list(expected.items())


# ----------------------------------------------------------------------
# The per-input laws themselves.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case", ALL_PROTOCOLS, ids=lambda c: c.name)
def test_laws_match_per_input_dfs(case):
    protocol = case.build()
    inputs_list = case.input_tuples()
    laws = tree.transcript_distributions(protocol, inputs_list)
    assert list(laws) == list(dict.fromkeys(map(tuple, inputs_list)))
    for key, law in laws.items():
        reference = tree.transcript_distribution(protocol, key)
        assert list(law.items()) == list(reference.items())


@pytest.mark.parametrize("case", ALL_PROTOCOLS, ids=lambda c: c.name)
def test_registry_analyses_bit_identical(case):
    assert_population_identical(case.build(), case.input_tuples())


@pytest.mark.parametrize("index", range(25))
def test_generated_analyses_bit_identical(index):
    case = generate_case(0, index)
    assert_folds_identical(
        case.protocol, case.input_dist, case.input_tuples, _parity
    )
    assert_population_identical(case.protocol, case.input_tuples)


@pytest.mark.parametrize(
    "k,max_zeros", [(3, None), (8, None), (16, 3)], ids=["k3", "k8", "k16t3"]
)
def test_hard_marginal_bit_identical(k, max_zeros):
    marginal = and_hard_input_marginal(k, max_zeros=max_zeros)
    assert_folds_identical(
        SequentialAndProtocol(k),
        marginal,
        marginal.support(),
        lambda x: int(all(x)),
    )


def test_two_zero_support_union_order():
    protocol = SequentialAndProtocol(6)
    report = analyze_good_transcripts(protocol)
    union = {}
    for inputs in boolean_inputs_with_zero_count(6, 2):
        for transcript in _law(protocol, inputs).support():
            union.setdefault(transcript)
    assert [c.transcript for c in report.classifications] == list(union)


# ----------------------------------------------------------------------
# Medium side.
# ----------------------------------------------------------------------
def _coordinator_cases():
    masks = [(a, b) for a in range(4) for b in range(4)]
    bits = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    return [
        (CoordinatorDisjointnessProtocol(2, 2), masks),
        (CoordinatorAndProtocol(3), bits),
        (GeneratedCoordinatorProtocol(7, 3), bits),
    ]


@pytest.mark.parametrize(
    "protocol,inputs_list",
    _coordinator_cases(),
    ids=["disjointness", "and", "generated"],
)
def test_medium_analyses_bit_identical(protocol, inputs_list):
    input_dist = _weighted(inputs_list)
    expected = ref_expected_medium_communication(
        protocol, COORDINATOR, input_dist
    )
    assert topology_analysis.expected_medium_communication(
        protocol, COORDINATOR, input_dist
    ) == expected
    assert analysis.expected_communication(
        protocol, input_dist, medium=COORDINATOR
    ) == expected
    produced = topology_analysis.per_link_communication(
        protocol, COORDINATOR, input_dist
    )
    expected = ref_per_link(protocol, COORDINATOR, input_dist)
    assert list(produced.items()) == list(expected.items())
    laws = tree.transcript_distributions(
        protocol, inputs_list, medium=COORDINATOR
    )
    for key, law in laws.items():
        reference = medium_transcript_distribution(protocol, COORDINATOR, key)
        assert list(law.items()) == list(reference.items())


# ----------------------------------------------------------------------
# Edge cases and engine choice.
# ----------------------------------------------------------------------
def test_worst_case_communication_of_nothing_raises():
    with pytest.raises(ValueError):
        analysis.worst_case_communication(SequentialAndProtocol(3), [])


def test_single_input_population_takes_the_dfs(monkeypatch):
    protocol = SequentialAndProtocol(4)
    x = (1, 1, 0, 1)
    expected = list(tree.transcript_distribution(protocol, x).items())

    def refuse(*args, **kwargs):
        raise AssertionError("array walk called for a single input")

    monkeypatch.setattr(kernels, "tree_walk_sorted_leaves", refuse)
    monkeypatch.setattr(tree, "_legacy_walk_sorted_leaves", refuse)
    laws = tree.transcript_distributions(protocol, [x, list(x), x])
    assert list(laws) == [x]
    assert list(laws[x].items()) == expected
    assert analysis.worst_case_communication(protocol, [x]) == 3


def test_population_takes_the_array_walk():
    protocol = SequentialAndProtocol(3)
    enable_metrics(reset=True)
    try:
        tree.transcript_distributions(protocol, [(1, 1, 1), (0, 1, 1)])
        calls = REGISTRY.counter("kernel_vectorized_calls").value(
            op="tree_walk"
        )
    finally:
        disable_metrics()
    assert calls == 1


def test_single_leaf_law_matches_generic_constructor():
    board = object()
    # 0.4765969541523558 * (1.0 / 0.4765969541523558) is not 1.0: the
    # fast path must keep the constructor's arithmetic, not assume 1.
    for weight in (1.0, 0.1, 1.0 / 3.0, 0.4765969541523558, 2.5e-300):
        fast = DiscreteDistribution._normalized_point(board, weight)
        generic = DiscreteDistribution({board: weight}, normalize=True)
        assert list(fast.items()) == list(generic.items())
    assert DiscreteDistribution._normalized_point(board, 0.4765969541523558)[
        board
    ] != 1.0


def test_single_leaf_law_sets_every_slot():
    fast = DiscreteDistribution._normalized_point("0", 0.25)
    generic = DiscreteDistribution({"0": 0.25}, normalize=True)
    for slot in DiscreteDistribution.__slots__:
        assert getattr(fast, slot) == getattr(generic, slot)
    assert fast.entropy() == generic.entropy() == 0.0
    assert fast.support() == generic.support()


def test_bit_point_masses():
    zero, one = BIT_POINT_MASSES
    assert list(zero.items()) == [("0", 1.0)]
    assert list(one.items()) == [("1", 1.0)]
    # point_mass itself stays uncached: its outcome keeps its own type.
    assert type(next(iter(DiscreteDistribution.point_mass(True)))) is bool
