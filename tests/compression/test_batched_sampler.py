"""BatchedDartSampler vs the scalar Lemma 7 round.

The batched sampler's contract is rng-stream identity: cell ``c``'s
round-``r`` message equals the ``r``-th ``simulate_sampling_round``
call on a fresh ``random.Random(cell_seed(seed, c))`` with the same
``(eta, nu, universe)`` — the whole ``SampledMessage``, value and cost
fields included, not just the sampled value.  Everything batching
caches (cumulative tables, curve masses) must therefore be the exact
floats of the scalar fold.
"""

import random

import pytest

from repro.compression.sampling import (
    BatchedDartSampler,
    cell_seed,
    simulate_sampling_round,
)
from repro.information import DiscreteDistribution
from repro.obs import REGISTRY, disable_metrics, enable_metrics


def make_cell(index, size):
    """One (eta, nu, universe) cell with index-dependent skew."""
    universe = list(range(size))
    eta = DiscreteDistribution(
        {v: (v + 1 + (index % 5)) ** 1.25 for v in universe},
        normalize=True,
    )
    nu = DiscreteDistribution(
        {v: 1.0 + ((v * 13 + index) % 7) for v in universe},
        normalize=True,
    )
    return eta, nu, universe


def scalar_rounds(cells, seeds, rounds):
    """The scalar reference: one fresh stream per cell, rounds in order."""
    rngs = [random.Random(seed) for seed in seeds]
    messages = []
    for _ in range(rounds):
        messages.append(
            [
                simulate_sampling_round(eta, nu, rng, universe=universe)
                for (eta, nu, universe), rng in zip(cells, rngs)
            ]
        )
    return messages


class TestCellSeed:
    def test_pinned_values(self):
        # The derivation is part of the on-disk reproducibility contract
        # (results record only the batch seed), so pin it exactly.
        assert cell_seed(0, 0) == 0
        assert cell_seed(0, 5) == 5
        assert cell_seed(1, 0) == 0x9E3779B97F4A7C15 % (1 << 63)
        assert cell_seed(7, 3) == (7 * 0x9E3779B97F4A7C15 + 3) % (1 << 63)

    def test_distinct_across_cells_and_batches(self):
        seeds = {
            cell_seed(seed, index)
            for seed in range(4)
            for index in range(16)
        }
        assert len(seeds) == 64


class TestBatchedEqualsScalar:
    @pytest.mark.parametrize("seed", (0, 1, 42))
    def test_message_stream_identity(self, seed):
        cells = [make_cell(index, 12 + 3 * index) for index in range(6)]
        rounds = 8
        batched = BatchedDartSampler(cells, seed=seed).advance(rounds)
        expected = scalar_rounds(
            cells,
            [cell_seed(seed, index) for index in range(len(cells))],
            rounds,
        )
        assert batched == expected

    def test_explicit_seeds_override_derivation(self):
        cells = [make_cell(index, 10) for index in range(3)]
        seeds = [101, 7, 999]
        batched = BatchedDartSampler(cells, seeds=seeds).advance(4)
        assert batched == scalar_rounds(cells, seeds, 4)

    def test_interleaving_is_irrelevant(self):
        # advance(2) twice must equal advance(4) once: each cell's
        # stream depends only on its own rng, never on batch shape.
        cells = [make_cell(index, 9) for index in range(4)]
        split = BatchedDartSampler(cells, seed=3)
        merged = BatchedDartSampler(cells, seed=3)
        assert split.advance(2) + split.advance(2) == merged.advance(4)

    def test_point_mass_cells(self):
        # Deterministic eta: the message value is forced, but block and
        # rank still consume randomness exactly like the scalar path.
        universe = list(range(8))
        eta = DiscreteDistribution({5: 1.0})
        nu = DiscreteDistribution(
            {v: 1.0 for v in universe}, normalize=True
        )
        cells = [(eta, nu, universe)]
        batched = BatchedDartSampler(cells, seed=11).advance(5)
        expected = scalar_rounds(cells, [cell_seed(11, 0)], 5)
        assert batched == expected
        assert all(message[0].value == 5 for message in batched)


class TestValidation:
    def test_empty_cells_rejected(self):
        with pytest.raises(ValueError, match="at least one cell"):
            BatchedDartSampler([])

    def test_seed_count_mismatch_rejected(self):
        cells = [make_cell(0, 8), make_cell(1, 8)]
        with pytest.raises(ValueError, match="seeds"):
            BatchedDartSampler(cells, seeds=[1])

    def test_negative_rounds_rejected(self):
        sampler = BatchedDartSampler([make_cell(0, 8)])
        with pytest.raises(ValueError, match="rounds"):
            sampler.advance(-1)

    def test_empty_universe_rejected(self):
        eta = DiscreteDistribution({0: 1.0})
        with pytest.raises(ValueError, match="universe"):
            BatchedDartSampler([(eta, eta, [])])


class TestTelemetry:
    def teardown_method(self):
        disable_metrics()

    def test_rounds_are_counted(self):
        enable_metrics(reset=True)
        sampler = BatchedDartSampler(
            [make_cell(index, 8) for index in range(3)], seed=0
        )
        sampler.advance(4)
        counter = REGISTRY.counter("kernel_vectorized_calls")
        assert counter.value(op="batched_sampler_round") == 4
