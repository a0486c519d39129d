"""The bit-identity regression pin: the extracted broadcast medium
reproduces the legacy blackboard semantics *exactly*.

Over every registry protocol and a fuzz family of generated ones,
``run_on_medium(BroadcastAdapter(p), BROADCAST, ...)`` must produce the
same transcript, output, bit count, **and RNG stream** as the legacy
``run_protocol`` — and the medium analyzer on the adapter must reproduce
the board's transcript law and information costs to the last float
(same distribution objects, same accumulation order).
"""

import inspect
import random

import pytest

import repro.core

from repro.check.generator import generate_case
from repro.core.analysis import (
    expected_communication,
    external_information_cost,
    transcript_entropy,
)
from repro.core.runner import run_protocol
from repro.core.tree import transcript_distribution
from repro.information.distribution import DiscreteDistribution
from repro.protocols import ALL_PROTOCOLS
from repro.topology import (
    BROADCAST,
    BroadcastAdapter,
    expected_medium_communication,
    medium_external_information_cost,
    medium_transcript_distribution,
    medium_transcript_entropy,
    run_on_medium,
)

#: How many inputs of each registry family the runner pin replays.
INPUT_LIMIT = 24

#: Generated-protocol fuzz family: 25 cases, 3 inputs each.
GENERATED_CASES = 25


def _paired_runs(protocol, inputs, seed):
    legacy = run_protocol(protocol, inputs, rng=random.Random(seed))
    rng = random.Random(seed)
    lifted = run_on_medium(
        BroadcastAdapter(protocol), BROADCAST, inputs, rng=rng
    )
    reference = random.Random(seed)
    run_protocol(protocol, inputs, rng=reference)
    return legacy, lifted, rng.getstate() == reference.getstate()


@pytest.mark.parametrize(
    "case", ALL_PROTOCOLS, ids=lambda case: case.name
)
def test_registry_protocols_bit_identical(case):
    protocol = case.build()
    family = case.input_tuples()
    inputs_list = family[:INPUT_LIMIT]
    if family[-1] not in inputs_list:
        inputs_list.append(family[-1])
    for seed, inputs in enumerate(inputs_list):
        legacy, lifted, same_rng_stream = _paired_runs(
            protocol, inputs, seed
        )
        assert lifted.transcript.as_broadcast() == legacy.transcript
        assert lifted.output == legacy.output
        assert lifted.bits_communicated == legacy.bits_communicated
        # The adapter consumed *exactly* the legacy draws — the RNG
        # ends in the same state, so downstream consumers are
        # unaffected by the routing.
        assert same_rng_stream


@pytest.mark.parametrize("index", range(GENERATED_CASES))
def test_generated_protocols_bit_identical(index):
    case = generate_case(0, index)
    protocol = case.protocol
    inputs_list = sorted(case.input_dist.support())[:3]
    for seed, inputs in enumerate(inputs_list):
        legacy, lifted, same_rng_stream = _paired_runs(
            protocol, inputs, 100 + seed
        )
        assert lifted.transcript.as_broadcast() == legacy.transcript
        assert lifted.output == legacy.output
        assert lifted.bits_communicated == legacy.bits_communicated
        assert same_rng_stream


class TestAnalyzerIdentity:
    """The medium analyzer on ``BroadcastAdapter(p)`` over
    :data:`BROADCAST` runs the same walk as the board analyzer on ``p``
    and must reproduce its values exactly (``==`` on floats, not
    approx)."""

    def _cases(self):
        for case in ALL_PROTOCOLS:
            if case.name in (
                "sequential-and",
                "noisy-sequential-and",
                "trivial-disjointness",
            ):
                yield case

    def test_transcript_law_identical(self):
        for case in self._cases():
            protocol = case.build()
            for inputs in case.input_tuples()[:6]:
                legacy = transcript_distribution(protocol, inputs)
                routed = medium_transcript_distribution(
                    BroadcastAdapter(protocol), BROADCAST, inputs
                )
                projected = {
                    t.as_broadcast(): p for t, p in routed.items()
                }
                assert projected == dict(legacy.items())

    def test_information_costs_identical(self):
        for case in self._cases():
            protocol = case.build()
            adapted = BroadcastAdapter(protocol)
            dist = DiscreteDistribution.uniform(case.input_tuples())
            assert medium_external_information_cost(
                adapted, BROADCAST, dist
            ) == external_information_cost(protocol, dist)
            assert medium_transcript_entropy(
                adapted, BROADCAST, dist
            ) == transcript_entropy(protocol, dist)
            assert expected_medium_communication(
                adapted, BROADCAST, dist
            ) == expected_communication(protocol, dist)

    def test_generated_protocol_law_identical(self):
        case = generate_case(0, 3)
        protocol = case.protocol
        assert medium_external_information_cost(
            BroadcastAdapter(protocol), BROADCAST, case.input_dist
        ) == external_information_cost(protocol, case.input_dist)


@pytest.mark.parametrize(
    "name", [name for name in repro.core.__all__ if name[0].islower()]
)
def test_core_entry_points_take_no_medium(name):
    """Media are reached through :mod:`repro.topology` alone: no
    :mod:`repro.core` entry point takes a ``medium``."""
    entry_point = getattr(repro.core, name)
    assert "medium" not in inspect.signature(entry_point).parameters
