"""repro.perf.kernels: the vectorized exact engine's contract.

There is no engine switch: every call site picks its engine from the
input (support size, the E14 cell count, dense-codable tree-walk
inputs).  What is pinned here is *bit identity*: every quantity the
vectorized kernels compute (tree walks, entropies, divergences, mutual
informations, the Lemma 3 class probabilities, the Lemma 2 divergence
sum, the E14 rectangle DP, the E1 protocol simulators) must equal the
scalar implementation exactly, float for float, outcome order included.
Each side is forced through the input thresholds by monkeypatching them
here, or the scalar reference (the dict tree walk, the Lemma 3 scalar
fold, the message-level runner) is called directly.
"""

import itertools
import math
import random

import pytest

from repro.check.generator import generate_case
from repro.core import (
    batched_joint_transcript_distribution,
    conditional_information_cost,
    external_information_cost,
    internal_information_cost,
    run_protocol,
    tree,
)
from repro.core.tasks import boolean_inputs_with_zero_count, disjointness_task
from repro.experiments.e1_disjointness_scaling import measure_point
from repro.experiments.workloads import partition_instance, random_instance
from repro.information import DiscreteDistribution, JointDistribution
from repro.information.divergence import kl_divergence
from repro.information.entropy import (
    conditional_mutual_information,
    mutual_information,
)
from repro.lowerbounds.decomposition import transcript_factors
from repro.lowerbounds.hard_distribution import and_hard_distribution
from repro.lowerbounds.optimal_information import (
    minimum_zero_error_cic,
    minimum_zero_error_external_ic,
)
from repro.lowerbounds.posterior import per_player_divergence_sum
from repro.lowerbounds.transcripts import (
    _class_conditioned_probability,
    analyze_good_transcripts,
)
from repro.obs import REGISTRY, disable_metrics, enable_metrics
from repro.perf import kernels
from repro.protocols import (
    ALL_PROTOCOLS,
    NaiveDisjointnessProtocol,
    NoisySequentialAndProtocol,
    OptimalDisjointnessProtocol,
    SequentialAndProtocol,
    TrivialDisjointnessProtocol,
    TwoPartyDisjointnessProtocol,
)


def _array_walk_forbidden(*_args, **_kwargs):
    """Stand-in for the array tree walk on the scalar side: with the
    support threshold out of reach every population takes the dict
    walk, so a call here is a wrong engine choice."""
    pytest.fail("array tree walk called with the scalar engine forced")


@pytest.fixture
def both_engines(monkeypatch):
    """``run(compute)`` evaluates ``compute()`` with every input threshold
    forced to the scalar engine, then to the vectorized one, and returns
    the pair.  The ``kernel_vectorized_calls`` counter proves each side
    ran the engine it was forced onto.  ``_VECTOR_MIN_SUPPORT`` also
    picks the tree walk (dict walk below it, array walk from it on) and
    the leaf-table folds of ``core.analysis``."""

    def counted(compute):
        enable_metrics(reset=True)
        try:
            value = compute()
            return value, REGISTRY.counter("kernel_vectorized_calls").total()
        finally:
            disable_metrics()

    def run(compute):
        with monkeypatch.context() as scalar:
            scalar.setattr(kernels, "_VECTOR_MIN_SUPPORT", math.inf)
            scalar.setattr(kernels, "_E14_CELL_CAP", 0)
            scalar.setattr(
                kernels, "tree_walk_sorted_leaves", _array_walk_forbidden
            )
            legacy, scalar_calls = counted(compute)
        with monkeypatch.context() as vector:
            vector.setattr(kernels, "_VECTOR_MIN_SUPPORT", 0)
            vectorized, vector_calls = counted(compute)
        assert scalar_calls == 0
        assert vector_calls > 0
        return legacy, vectorized

    return run


# ----------------------------------------------------------------------
# Bit-identity: tree walks over the whole protocol suite.
# ----------------------------------------------------------------------
def scenario_distribution(input_tuples):
    return DiscreteDistribution.uniform([(t,) for t in input_tuples])


def assert_walks_identical(protocol, input_keys):
    """The array walk and the dict walk return the same leaf rows (and
    the same node, leaf and depth counts) on ``input_keys``."""
    legacy_table, *legacy_sizes = tree._legacy_walk_sorted_leaves(
        protocol, input_keys
    )
    vectorized_table, *vectorized_sizes = kernels.tree_walk_sorted_leaves(
        protocol, input_keys, max_messages=tree.DEFAULT_MAX_MESSAGES
    )
    assert vectorized_table.rows() == legacy_table.rows()
    assert vectorized_table.counts == legacy_table.counts
    assert vectorized_sizes == legacy_sizes


def assert_joint_identical(legacy, vectorized):
    assert legacy.names == vectorized.names
    assert list(legacy.items()) == list(vectorized.items())


class TestTreeWalkIdentity:
    @pytest.mark.parametrize(
        "case", ALL_PROTOCOLS, ids=[case.name for case in ALL_PROTOCOLS]
    )
    def test_registry_protocols(self, case):
        inputs = case.input_tuples()
        if len(inputs) > 64:
            inputs = inputs[::3][:64]
        assert_walks_identical(case.build(), [tuple(x) for x in inputs])

    @pytest.mark.parametrize("index", range(25))
    def test_generated_protocols(self, index):
        case = generate_case(2026, index)
        input_keys = list(
            dict.fromkeys(tuple(x) for x, _p in case.input_dist.items())
        )
        assert_walks_identical(case.protocol, input_keys)

    def test_weighted_aux_scenarios(self, both_engines):
        protocol = NoisySequentialAndProtocol(3, 0.125)
        mu = and_hard_distribution(3)
        legacy, vectorized = both_engines(
            lambda: batched_joint_transcript_distribution(
                protocol, mu, names=("inputs", "aux")
            )
        )
        assert_joint_identical(legacy, vectorized)

    def test_lineage_spill_path(self, monkeypatch):
        # Force the mixed-radix lineage codes to overflow into frozen
        # columns almost immediately; the walk must still match legacy.
        monkeypatch.setattr(kernels, "_LINEAGE_BITS", 4)
        case = generate_case(2026, 3)
        input_keys = list(
            dict.fromkeys(tuple(x) for x, _p in case.input_dist.items())
        )
        assert_walks_identical(case.protocol, input_keys)


# ----------------------------------------------------------------------
# Bit-identity: information quantities.
# ----------------------------------------------------------------------
def random_joint(seed, shape):
    """A random named joint law over a product outcome space."""
    rng = random.Random(seed)
    outcomes = list(itertools.product(*[range(size) for size in shape]))
    probs = {outcome: rng.random() + 1e-3 for outcome in outcomes}
    names = ("a", "b", "c")[: len(shape)]
    return JointDistribution(probs, names=names, normalize=True)


class TestInformationIdentity:
    @pytest.mark.parametrize("seed", range(5))
    def test_entropy(self, seed, both_engines):
        rng = random.Random(seed)
        probs = {i: rng.random() + 1e-3 for i in range(40)}
        legacy, vectorized = both_engines(
            lambda: DiscreteDistribution(probs, normalize=True).entropy()
        )
        assert legacy == vectorized

    @pytest.mark.parametrize("seed", range(5))
    def test_kl_divergence(self, seed, both_engines):
        rng = random.Random(seed)
        support = list(range(30))
        posterior = DiscreteDistribution(
            {i: rng.random() + 1e-3 for i in support}, normalize=True
        )
        prior = DiscreteDistribution(
            {i: rng.random() + 1e-3 for i in support}, normalize=True
        )
        legacy, vectorized = both_engines(
            lambda: kl_divergence(posterior, prior)
        )
        assert legacy == vectorized

    @pytest.mark.parametrize("seed", range(5))
    def test_mutual_information(self, seed, both_engines):
        joint = random_joint(seed, (4, 5))
        legacy, vectorized = both_engines(
            lambda: mutual_information(joint, "a", "b")
        )
        assert legacy == vectorized

    @pytest.mark.parametrize("seed", range(5))
    def test_conditional_mutual_information(self, seed, both_engines):
        joint = random_joint(seed, (3, 4, 3))
        legacy, vectorized = both_engines(
            lambda: conditional_mutual_information(joint, "a", "b", "c")
        )
        assert legacy == vectorized

    def test_information_costs(self, both_engines):
        protocol = NoisySequentialAndProtocol(3, 0.25)
        mu = and_hard_distribution(3)
        legacy, vectorized = both_engines(
            lambda: conditional_information_cost(protocol, mu)
        )
        assert legacy == vectorized
        uniform = DiscreteDistribution.uniform(
            list(itertools.product((0, 1), repeat=3))
        )
        legacy, vectorized = both_engines(
            lambda: external_information_cost(protocol, uniform)
        )
        assert legacy == vectorized

    def test_internal_information_cost(self, both_engines):
        protocol = TwoPartyDisjointnessProtocol(2)
        uniform = DiscreteDistribution.uniform(
            list(itertools.product(range(4), repeat=2))
        )
        legacy, vectorized = both_engines(
            lambda: internal_information_cost(protocol, uniform)
        )
        assert legacy == vectorized

    def test_per_player_divergence_sum(self, both_engines):
        protocol = NoisySequentialAndProtocol(3, 0.125)
        mu = and_hard_distribution(3)
        legacy, vectorized = both_engines(
            lambda: per_player_divergence_sum(
                batched_joint_transcript_distribution(
                    protocol, mu, names=("inputs", "aux")
                ),
                3,
            )
        )
        assert legacy == vectorized

    def test_lemma3_transcript_classification(self):
        # With 0/1 inputs every class probability takes the array path;
        # the scalar fold it replaced is the reference.
        k = 3
        protocol = NoisySequentialAndProtocol(k, 0.25)
        report = analyze_good_transcripts(protocol)
        two_zero = list(boolean_inputs_with_zero_count(k, 2))
        three_zero = list(boolean_inputs_with_zero_count(k, 3))
        assert report.classifications
        for classification in report.classifications:
            factors = transcript_factors(
                protocol, classification.transcript, [[0, 1]] * k
            )
            assert classification.pi2 == _class_conditioned_probability(
                factors, two_zero
            )
            assert classification.pi3 == _class_conditioned_probability(
                factors, three_zero
            )


# ----------------------------------------------------------------------
# Bit-identity: the E14 rectangle DP.
# ----------------------------------------------------------------------
class TestRectangleDPIdentity:
    @pytest.mark.parametrize("k", (2, 3, 4, 5))
    def test_minimum_zero_error_cic(self, k, both_engines):
        legacy, vectorized = both_engines(lambda: minimum_zero_error_cic(k))
        assert legacy == vectorized

    @pytest.mark.parametrize("k", (2, 3, 4))
    def test_minimum_zero_error_external_ic(self, k, both_engines):
        for evaluate in (lambda x: int(all(x)), lambda x: sum(x) % 2):
            legacy, vectorized = both_engines(
                lambda: minimum_zero_error_external_ic(
                    k, evaluate, [0.5] * k
                )
            )
            assert legacy == vectorized

    def test_cell_cap_bounds_the_dense_dp(self):
        # 3**k * z_count above the cap must refuse the dense table.
        assert kernels.minimum_entropy_supported(3, 3)
        assert not kernels.minimum_entropy_supported(20, 1)


# ----------------------------------------------------------------------
# Bit-identity: the E1 bigint simulators against the message runner.
# ----------------------------------------------------------------------
class TestDisjointnessSimulators:
    CASES = (
        (kernels.simulate_optimal_disjointness, OptimalDisjointnessProtocol),
        (kernels.simulate_naive_disjointness, NaiveDisjointnessProtocol),
        (kernels.simulate_trivial_disjointness, TrivialDisjointnessProtocol),
    )

    @pytest.mark.parametrize("point", ((64, 4), (256, 4), (256, 8)))
    def test_measure_point_identical(self, point):
        n, k = point
        inputs = partition_instance(n, k)
        runner_bits = tuple(
            run_protocol(protocol_cls(n, k), inputs).bits_communicated
            for _simulate, protocol_cls in self.CASES
        )
        assert measure_point(n, k) == runner_bits

    @pytest.mark.parametrize("seed", range(6))
    def test_random_instances(self, seed):
        rng = random.Random(seed)
        n = rng.choice((16, 48, 96))
        k = rng.choice((3, 4, 6))
        inputs = random_instance(n, k, rng)
        task = disjointness_task(n, k)
        for simulate, protocol_cls in self.CASES:
            bits, output = simulate(n, k, inputs)
            outcome = run_protocol(protocol_cls(n, k), inputs)
            assert output == outcome.output == task.evaluate(inputs)
            assert bits == outcome.bits_communicated

    def test_partition_worst_case(self):
        n, k = 128, 8
        inputs = partition_instance(n, k)
        bits, output = kernels.simulate_optimal_disjointness(n, k, inputs)
        outcome = run_protocol(OptimalDisjointnessProtocol(n, k), inputs)
        assert (bits, output) == (outcome.bits_communicated, outcome.output)


# ----------------------------------------------------------------------
# Telemetry: the kernel_vectorized_calls counter.
# ----------------------------------------------------------------------
class TestVectorizedCallCounter:
    def teardown_method(self):
        disable_metrics()

    def test_vectorized_ops_are_counted(self):
        enable_metrics(reset=True)
        # 64 distinct inputs: populations below _VECTOR_MIN_SUPPORT take
        # the dict walk.
        protocol = SequentialAndProtocol(6)
        scenarios = scenario_distribution(
            list(itertools.product((0, 1), repeat=6))
        )
        batched_joint_transcript_distribution(protocol, scenarios)
        kernels.simulate_trivial_disjointness(8, 2, (3, 5))
        counter = REGISTRY.counter("kernel_vectorized_calls")
        assert counter.value(op="tree_walk") >= 1
        assert counter.value(op="e1_trivial") == 1

    def test_legacy_runs_emit_nothing(self):
        enable_metrics(reset=True)
        protocol = SequentialAndProtocol(3)
        input_keys = list(itertools.product((0, 1), repeat=3))
        tree._legacy_walk_sorted_leaves(protocol, input_keys)
        # Below the support threshold entropy stays on the scalar loop.
        DiscreteDistribution({"a": 0.25, "b": 0.75}).entropy()
        assert REGISTRY.counter("kernel_vectorized_calls").total() == 0


# ----------------------------------------------------------------------
# Experiment-level identity: the engine never changes a table.
# ----------------------------------------------------------------------
class TestExperimentKernelIdentity:
    def test_e1_table_identical(self):
        from repro.experiments.e1_disjointness_scaling import run

        # The loopback transport runs every protocol message by message.
        simulated = run(grid=[(64, 4), (256, 8)])
        runner = run(grid=[(64, 4), (256, 8)], transport="loopback")
        assert simulated.render() == runner.render()

    def test_e14_table_identical(self, both_engines):
        from repro.experiments.e14_optimal_information import run

        legacy, vectorized = both_engines(lambda: run(ks=[2, 3, 4]).render())
        assert legacy == vectorized
