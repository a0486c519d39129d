"""Exact information and communication analysis on arbitrary media.

The medium-generalized sibling of :mod:`repro.core.analysis`, plus the
quantity the generalization exists for: the **per-view information
decomposition**.  On the blackboard every player sees the whole
transcript, so the paper's Lemma 2/3-style per-player decompositions
are stated over one shared object.  On a general medium each node ``v``
holds only its *view* :math:`V_v(\\Pi)` — the traffic on its visible
links — and the natural per-node quantities become

* external per view: :math:`I(V_v(\\Pi); X)` — what node ``v`` learns
  about the full input from its own view;
* internal per view (players only):
  :math:`I(V_v(\\Pi); X_{-v} \\mid X_v)` — what player ``v`` learns
  about the *others'* inputs beyond its own, the summand of the
  message-passing internal information cost used in the
  :math:`\\Theta(nk)` disjointness lower bound of arXiv:1305.4696 and
  the NIH per-player bound of arXiv:0902.1609.

On the broadcast medium every view equals the transcript, so each
external per-view term collapses to :math:`IC_\\mu(\\Pi)` — a collapse
the test suite asserts — while the coordinator medium genuinely splits
information across links, which experiment E16 tabulates.

Float discipline: the medium-level IC/CIC functions build their joints
with the same iteration/normalization order as the core analyzers, so a
:class:`~repro.topology.protocol.BroadcastAdapter` produces *exactly*
the legacy floats (pinned in ``tests/topology/test_bit_identity.py``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence

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
from .medium import LinkTranscript, Medium
from .protocol import MediumProtocol
from .tree import (
    medium_joint_transcript_distribution,
    medium_transcript_distributions,
)

__all__ = [
    "medium_transcript_joint",
    "medium_conditional_transcript_joint",
    "medium_external_information_cost",
    "medium_conditional_information_cost",
    "medium_transcript_entropy",
    "expected_medium_communication",
    "per_link_communication",
    "per_view_information",
]


def medium_transcript_joint(
    protocol: MediumProtocol,
    medium: Medium,
    input_dist: DiscreteDistribution,
) -> JointDistribution:
    """The exact joint law of ``(inputs, transcript)`` on a medium.

    Components are named ``inputs`` and ``transcript``; the transcript
    component is a :class:`~repro.topology.medium.LinkTranscript`.
    """
    scenarios = input_dist.map(lambda x: (x,))
    return medium_joint_transcript_distribution(
        protocol, medium, scenarios, names=("inputs",)
    )


def medium_conditional_transcript_joint(
    protocol: MediumProtocol,
    medium: Medium,
    mu: DiscreteDistribution,
) -> JointDistribution:
    """The exact joint law of ``(inputs, aux, transcript)`` on a medium,
    for ``mu`` over ``(x, d)`` pairs as in Definition 6."""
    for outcome in mu.support():
        if not (isinstance(outcome, tuple) and len(outcome) == 2):
            raise TypeError(
                "mu must be over (inputs, aux) pairs, got outcome "
                f"{outcome!r}"
            )
    return medium_joint_transcript_distribution(
        protocol, medium, mu, names=("inputs", "aux")
    )


def medium_external_information_cost(
    protocol: MediumProtocol,
    medium: Medium,
    input_dist: DiscreteDistribution,
) -> float:
    """External information cost :math:`I(\\Pi; X)` of the *full*
    transcript on a medium — the Definition 5 quantity with the link
    transcript in place of the board."""
    joint = medium_transcript_joint(protocol, medium, input_dist)
    return mutual_information(joint, "transcript", "inputs")


def medium_conditional_information_cost(
    protocol: MediumProtocol,
    medium: Medium,
    mu: DiscreteDistribution,
) -> float:
    """Conditional information cost :math:`I(\\Pi; X \\mid D)` on a
    medium, for ``mu`` over ``(inputs, aux)`` pairs (Definition 6)."""
    joint = medium_conditional_transcript_joint(protocol, medium, mu)
    return conditional_mutual_information(joint, "transcript", "inputs", "aux")


def medium_transcript_entropy(
    protocol: MediumProtocol,
    medium: Medium,
    input_dist: DiscreteDistribution,
) -> float:
    """The entropy :math:`H(\\Pi)` of the link transcript in bits."""
    joint = medium_transcript_joint(protocol, medium, input_dist)
    return entropy(joint.marginal("transcript"))


def expected_medium_communication(
    protocol: MediumProtocol,
    medium: Medium,
    input_dist: DiscreteDistribution,
) -> float:
    """The exact expected total bits written, under ``input_dist`` and
    the protocol's private coins."""
    laws = medium_transcript_distributions(protocol, medium, input_dist)
    total = 0.0
    for inputs, p_inputs in input_dist.items():
        total += p_inputs * left_sum(
            p * transcript.bits_written
            for transcript, p in laws[tuple(inputs)].items()
        )
    return total


def per_link_communication(
    protocol: MediumProtocol,
    medium: Medium,
    input_dist: DiscreteDistribution,
) -> Dict[Any, float]:
    """The exact expected bits written per link — where the cost lives.

    On the coordinator medium this is the per-player↔coordinator traffic
    E16 tabulates; values sum to
    :func:`expected_medium_communication` (up to float fold order).
    """
    totals: Dict[Any, float] = {link: 0.0 for link in medium.links(protocol.num_players)}
    laws = medium_transcript_distributions(protocol, medium, input_dist)
    for inputs, p_inputs in input_dist.items():
        for transcript, p in laws[tuple(inputs)].items():
            for link, bits in transcript.bits_by_link().items():
                totals[link] = totals.get(link, 0.0) + p_inputs * p * bits
    return totals


def per_view_information(
    protocol: MediumProtocol,
    medium: Medium,
    input_dist: DiscreteDistribution,
) -> Dict[int, Dict[str, float]]:
    """The per-view information decomposition: for every node ``v``, what
    its own view reveals.

    Returns ``{node: {"external": ..., "internal": ...}}`` where

    * ``external`` is :math:`I(V_v(\\Pi); X)` for every node (players and
      auxiliary nodes alike — the coordinator's row shows what the hub
      ends up knowing);
    * ``internal`` is :math:`I(V_v(\\Pi); X_{-v} \\mid X_v)` and is
      present only for player nodes ``v < k`` (an input-less node has no
      own input to condition on).

    Views are computed with :meth:`~repro.topology.medium.Medium.
    node_view`; on the broadcast medium every view is the whole
    transcript, so every ``external`` equals the external information
    cost and the decomposition collapses — the cross-model contrast E16
    prints is precisely this table under :data:`~repro.topology.medium.
    COORDINATOR` vs :data:`~repro.topology.medium.BROADCAST`.
    """
    k = protocol.num_players
    joint = medium_transcript_joint(protocol, medium, input_dist)
    decomposition: Dict[int, Dict[str, float]] = {}
    for node in range(medium.num_nodes(k)):
        # (inputs, transcript) -> (inputs, transcript, view): appending a
        # deterministic function of the transcript keeps the law exact.
        with_view = joint.append_component(
            lambda outcome, _node=node: medium.node_view(
                k, outcome[1], _node
            ),
            name="view",
        )
        row = {"external": mutual_information(with_view, "view", "inputs")}
        if node < k:
            # Split inputs into (X_v, X_{-v}) to condition on the
            # node's own coordinate.
            split = with_view.append_component(
                lambda outcome, _node=node: outcome[0][_node], name="own"
            ).append_component(
                lambda outcome, _node=node: tuple(
                    x for i, x in enumerate(outcome[0]) if i != _node
                ),
                name="others",
            )
            row["internal"] = conditional_mutual_information(
                split, "view", "others", "own"
            )
        decomposition[node] = row
    return decomposition
