"""IC, CIC, H(Π) and E|Π| folded straight from the walk's leaf table.

`external_information_cost`, `conditional_information_cost`,
`transcript_entropy` and `expected_communication` fold one shared
walk's leaf table as row arrays (`repro.perf.kernels.joint_rows` and
the folds after it) once the joint law has `_VECTOR_MIN_SUPPORT` rows.
The contract is *bit identity* with the `JointDistribution` path: every
value below is compared with exact `==` against the scalar functionals
on `transcript_joint` / `conditional_transcript_joint` (and, for E, the
fold over the per-input laws).  The fold is forced onto small cases by
lowering the threshold to 0, with the dict-joint path refused, so each
case proves the array fold itself rather than its fallback.  The
registry and generated cases condition on a μ that repeats every input
tuple across two aux values.
"""

import itertools

import pytest

from repro.check.generator import generate_case
from repro.core import analysis, tree
from repro.information.distribution import DiscreteDistribution, left_sum
from repro.information.entropy import (
    conditional_mutual_information,
    entropy,
    mutual_information,
)
from repro.lowerbounds.hard_distribution import (
    and_hard_distribution,
    and_hard_input_marginal,
)
from repro.obs import REGISTRY, disable_metrics, enable_metrics
from repro.perf import kernels
from repro.protocols import (
    ALL_PROTOCOLS,
    FullBroadcastAndProtocol,
    NoisySequentialAndProtocol,
    SequentialAndProtocol,
)


# ----------------------------------------------------------------------
# The two paths.
# ----------------------------------------------------------------------
def joint_path(protocol, input_dist, mu):
    """(IC, CIC, H, E) by the JointDistribution path and the per-input
    law fold."""
    joint = analysis.transcript_joint(protocol, input_dist)
    aux_joint = analysis.conditional_transcript_joint(protocol, mu)
    laws = tree.transcript_distributions(protocol, input_dist)
    expected = 0.0
    for inputs, p_inputs in input_dist.items():
        expected += p_inputs * left_sum(
            p * transcript.bits_written
            for transcript, p in laws[tuple(inputs)].items()
        )
    return (
        mutual_information(joint, "transcript", "inputs"),
        conditional_mutual_information(
            aux_joint, "transcript", "inputs", "aux"
        ),
        entropy(joint.marginal("transcript")),
        expected,
    )


def entry_points(protocol, input_dist, mu):
    return (
        analysis.external_information_cost(protocol, input_dist),
        analysis.conditional_information_cost(protocol, mu),
        analysis.transcript_entropy(protocol, input_dist),
        analysis.expected_communication(protocol, input_dist),
    )


def _refuse(*_args, **_kwargs):
    raise AssertionError("the dict path ran instead of the array fold")


def forced_fold(monkeypatch, protocol, input_dist, mu):
    """The four entry points with the array fold forced at any size."""
    with monkeypatch.context() as forced:
        forced.setattr(kernels, "_VECTOR_MIN_SUPPORT", 0)
        forced.setattr(tree, "_assemble_joint", _refuse)
        forced.setattr(tree, "_laws_from_leaf_table", _refuse)
        return entry_points(protocol, input_dist, mu)


def assert_fold_identical(monkeypatch, protocol, input_dist, mu):
    reference = joint_path(protocol, input_dist, mu)
    assert entry_points(protocol, input_dist, mu) == reference
    assert forced_fold(monkeypatch, protocol, input_dist, mu) == reference


def two_aux(input_dist):
    """Every input repeated across two auxiliary values, unequally
    weighted."""
    return DiscreteDistribution(
        {
            (x, d): p * weight
            for x, p in input_dist.items()
            for d, weight in ((0, 0.25), (1, 0.75))
        },
        normalize=True,
    )


def weighted(inputs_list):
    """A non-uniform law over ``inputs_list``, so fold order matters."""
    return DiscreteDistribution(
        {tuple(x): 1.0 + (i % 5) * 0.37 for i, x in enumerate(inputs_list)},
        normalize=True,
    )


# ----------------------------------------------------------------------
# Cases.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case", ALL_PROTOCOLS, ids=lambda c: c.name)
def test_registry_protocols(monkeypatch, case):
    input_dist = weighted(case.input_tuples())
    assert_fold_identical(
        monkeypatch, case.build(), input_dist, two_aux(input_dist)
    )


@pytest.mark.parametrize("index", range(25))
def test_generated_protocols(monkeypatch, index):
    case = generate_case(2026, index)
    assert_fold_identical(
        monkeypatch, case.protocol, case.input_dist, two_aux(case.input_dist)
    )


@pytest.mark.parametrize(
    "protocol_cls,k,max_zeros",
    [
        (SequentialAndProtocol, 3, None),
        (SequentialAndProtocol, 8, None),
        (SequentialAndProtocol, 12, None),
        (SequentialAndProtocol, 16, 3),
        (SequentialAndProtocol, 24, 3),
        (SequentialAndProtocol, 32, 3),
        (FullBroadcastAndProtocol, 8, None),
    ],
    ids=["seq3", "seq8", "seq12", "seq16t3", "seq24t3", "seq32t3", "full8"],
)
def test_hard_distribution(monkeypatch, protocol_cls, k, max_zeros):
    assert_fold_identical(
        monkeypatch,
        protocol_cls(k),
        and_hard_input_marginal(k, max_zeros=max_zeros),
        and_hard_distribution(k, max_zeros=max_zeros),
    )


@pytest.mark.parametrize("k", [3, 5])
def test_noisy_multi_leaf_laws(monkeypatch, k):
    # Every input reaches 2**k leaves, so the per-input normalizer sums
    # many terms and the rows of one input interleave across leaves.
    assert_fold_identical(
        monkeypatch,
        NoisySequentialAndProtocol(k, 0.125),
        and_hard_input_marginal(k),
        and_hard_distribution(k),
    )


def _fold_ops(protocol, input_dist, mu):
    enable_metrics(reset=True)
    try:
        values = entry_points(protocol, input_dist, mu)
        counter = REGISTRY.counter("kernel_vectorized_calls")
        return values, counter.value(op="expected_bits")
    finally:
        disable_metrics()


@pytest.mark.parametrize("rows", [63, 64])
def test_row_threshold(rows):
    # A deterministic protocol: one row per input, so the joint law has
    # exactly ``rows`` rows.  63 rows stay on the dict path, 64 fold.
    protocol = SequentialAndProtocol(6)
    inputs_list = list(itertools.product((0, 1), repeat=6))[-rows:]
    input_dist = weighted(inputs_list)
    mu = DiscreteDistribution(
        {(x, x[0]): p for x, p in input_dist.items()}, normalize=True
    )
    values, folds = _fold_ops(protocol, input_dist, mu)
    assert values == joint_path(protocol, input_dist, mu)
    assert folds == (1 if rows >= kernels._VECTOR_MIN_SUPPORT else 0)


def test_zero_mass_leaf_falls_back():
    # A leaf probability that underflows to 0.0 is dropped by the dict
    # path; the fold declines rather than keep the row.
    class Underflow(NoisySequentialAndProtocol):
        def message_distribution(self, state, speaker, player_input, board):
            if speaker == 0:
                return DiscreteDistribution(
                    {"0": 5e-324, "1": 1.0}, normalize=True
                )
            return super().message_distribution(
                state, speaker, player_input, board
            )

    protocol = Underflow(4, 0.125)
    inputs_list = list(itertools.product((0, 1), repeat=4))
    table = tree._leaf_table(
        protocol, inputs_list, max_messages=tree.DEFAULT_MAX_MESSAGES
    )[0]
    assert min(table.probs) == 0.0
    scenario_rows, _keys = tree._scenario_rows(
        protocol, DiscreteDistribution.uniform([(x,) for x in inputs_list]),
        lambda scenario: scenario[0],
    )
    assert kernels.joint_rows(*scenario_rows, table) is None
    assert kernels.expected_bits(table, [1.0], [0]) is None
    input_dist = weighted(inputs_list)
    mu = two_aux(input_dist)
    assert entry_points(protocol, input_dist, mu) == joint_path(
        protocol, input_dist, mu
    )
