"""Pluggable communication media: broadcast, coordinator, graph.

The blackboard of Section 3 is one *medium*; this package makes the
medium a parameter.  :mod:`~repro.topology.medium` defines the
:class:`~repro.topology.medium.Medium` contract (links, adjacency,
visibility/views, per-link charging, the scheduler's view) and the three
shipped media — :data:`~repro.topology.medium.BROADCAST`,
:data:`~repro.topology.medium.COORDINATOR`, and
:class:`~repro.topology.medium.GraphMedium` (star, ring, …).
:mod:`~repro.topology.protocol` restates the protocol contract over a
medium and adapts legacy broadcast protocols bit-identically;
:mod:`~repro.topology.runtime`, :mod:`~repro.topology.tree`, and
:mod:`~repro.topology.analysis` generalize the runner, the exact
enumeration, and the information-cost accounting (including the
per-view decomposition); :mod:`~repro.topology.validate` audits
view- and scheduler-locality; :mod:`~repro.topology.protocols` ports
disjointness and ``AND_k`` to the coordinator and ring media.

See docs/topology.md for the model and experiment E16 for the
cross-model disjointness comparison this package exists to run.
"""

from .analysis import (
    expected_medium_communication,
    medium_conditional_information_cost,
    medium_external_information_cost,
    medium_transcript_entropy,
    medium_transcript_joint,
    per_link_communication,
    per_view_information,
)
from .medium import (
    BOARD_LINK,
    BROADCAST,
    COORDINATOR,
    BroadcastMedium,
    CoordinatorMedium,
    GraphMedium,
    Link,
    LinkMessage,
    LinkTranscript,
    Medium,
    TopologyViolation,
    ring_medium,
    star_medium,
)
from .protocol import BroadcastAdapter, MediumProtocol
from .protocols import (
    CoordinatorAndProtocol,
    CoordinatorDisjointnessProtocol,
    CoordinatorTrivialDisjointness,
    RingTokenAndProtocol,
)
from .runtime import MediumRun, run_on_medium
from .tree import (
    medium_joint_transcript_distribution,
    medium_transcript_distribution,
)
from .validate import TopologyReport, validate_topology

__all__ = [
    "TopologyViolation",
    "Link",
    "BOARD_LINK",
    "LinkMessage",
    "LinkTranscript",
    "Medium",
    "BroadcastMedium",
    "BROADCAST",
    "CoordinatorMedium",
    "COORDINATOR",
    "GraphMedium",
    "star_medium",
    "ring_medium",
    "MediumProtocol",
    "BroadcastAdapter",
    "MediumRun",
    "run_on_medium",
    "medium_transcript_distribution",
    "medium_joint_transcript_distribution",
    "medium_transcript_joint",
    "medium_external_information_cost",
    "medium_conditional_information_cost",
    "medium_transcript_entropy",
    "expected_medium_communication",
    "per_link_communication",
    "per_view_information",
    "TopologyReport",
    "validate_topology",
    "CoordinatorTrivialDisjointness",
    "CoordinatorDisjointnessProtocol",
    "CoordinatorAndProtocol",
    "RingTokenAndProtocol",
]
