"""Pluggable communication media: who may speak, who can read what.

The paper's blackboard (Section 3) is one *medium*: a single shared
channel every player reads for free.  Its natural sibling — the
message-passing / coordinator model of Braverman–Ellen–Oshman–Pitassi–
Vaikuntanathan (arXiv:1305.4696) — replaces the board with point-to-point
links between each player and a coordinator, so a message is visible only
to the two endpoints of the link it travels.  This module abstracts the
difference into a :class:`Medium`:

* the set of **links** messages may travel on;
* **adjacency** — which node may write on which link;
* **visibility** — which node can read which link, inducing each node's
  *view* (the subsequence of traffic on its visible links);
* **charging** — how many bits a write costs (all shipped media charge
  one unit per bit, exactly :math:`CC(\\Pi)`, but accounting is kept per
  link so cross-model experiments can tabulate where the bits went);
* the **scheduler view** — the projection of the transcript that is
  allowed to determine whose turn it is.  On the blackboard that is the
  whole board; in the coordinator model it is the coordinator's view
  (which, the hub being an endpoint of every link, is again the whole
  transcript); on a general graph only the public trace *metadata*
  (who spoke on which link, and how long) is common knowledge, so the
  schedule must be determined by that alone.

Three concrete media ship:

* :class:`BroadcastMedium` (singleton :data:`BROADCAST`) — the board,
  a single :data:`BOARD_LINK` everyone reads and writes.  The legacy
  :mod:`repro.core` stack *is* this medium's optimized engine; the
  bit-identity pin in ``tests/topology`` holds the two equal.
* :class:`CoordinatorMedium` (singleton :data:`COORDINATOR`) — ``k``
  players plus a coordinator node ``k`` with one private link per
  player.  The coordinator holds no input (its ``player_input`` is
  ``None``) and its messages are charged like any other.
* :class:`GraphMedium` — an arbitrary topology given by an explicit
  link set; :func:`star_medium` (the coordinator topology, used for the
  star ≡ coordinator equivalence tests) and :func:`ring_medium` are the
  shipped constructors.

Nodes vs players: input-holding players are nodes ``0..k-1``; media may
add auxiliary nodes (the coordinator, relay nodes of a general graph)
with ids ``>= k`` and no input.  See docs/topology.md for the full
model, and :mod:`repro.topology.validate` for the mechanical audit of
view-locality and scheduler-locality.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..coding.bitio import Bits, check_bits
from ..core.model import MessageLog
from ..obs.metrics import REGISTRY

__all__ = [
    "TopologyViolation",
    "Link",
    "BOARD_LINK",
    "LinkMessage",
    "LinkTranscript",
    "EMPTY_LINK_TRANSCRIPT",
    "Medium",
    "BroadcastMedium",
    "BROADCAST",
    "CoordinatorMedium",
    "COORDINATOR",
    "GraphMedium",
    "star_medium",
    "ring_medium",
]


class TopologyViolation(RuntimeError):
    """Raised when a protocol breaks the rules of its medium — writing on
    a link the speaker is not an endpoint of, naming a link the medium
    does not contain, or scheduling a node that does not exist."""


class _BoardLink:
    """The single shared channel of the broadcast medium.

    A singleton sentinel rather than a :class:`Link`: the board is not a
    point-to-point connection between two nodes, every node reads and
    writes it.
    """

    __slots__ = ()
    _instance: Optional["_BoardLink"] = None

    def __new__(cls) -> "_BoardLink":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "BOARD_LINK"

    def __reduce__(self):  # pickling preserves the singleton
        return (_BoardLink, ())


#: The one link of the broadcast medium.
BOARD_LINK = _BoardLink()


@dataclass(frozen=True)
class Link:
    """An undirected point-to-point link between two distinct nodes.

    Endpoints are normalized to ``a < b`` so ``Link(2, 0) == Link(0, 2)``
    — a link is a set of two endpoints, not an ordered pair.
    """

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a < 0 or self.b < 0:
            raise ValueError(f"link endpoints must be >= 0: {self.a}, {self.b}")
        if self.a == self.b:
            raise ValueError(f"links must join distinct nodes, got {self.a}")
        if self.a > self.b:
            a, b = self.a, self.b
            object.__setattr__(self, "a", b)
            object.__setattr__(self, "b", a)

    @property
    def endpoints(self) -> Tuple[int, int]:
        return (self.a, self.b)

    def touches(self, node: int) -> bool:
        return node == self.a or node == self.b

    def other(self, node: int) -> int:
        """The endpoint that is not ``node``."""
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise ValueError(f"node {node} is not an endpoint of {self!r}")

    def __repr__(self) -> str:
        return f"Link({self.a},{self.b})"


@dataclass(frozen=True)
class LinkMessage:
    """One message: who wrote it, on which link, and the bits written."""

    speaker: int
    link: Any
    bits: Bits

    def __post_init__(self) -> None:
        if self.speaker < 0:
            raise ValueError(f"speaker index must be >= 0, got {self.speaker}")
        if not isinstance(self.link, (Link, _BoardLink)):
            raise ValueError(f"link must be a Link or BOARD_LINK: {self.link!r}")
        check_bits(self.bits, "message bits must be a 0/1 string")

    def __len__(self) -> int:
        return len(self.bits)


class LinkTranscript(MessageLog):
    """An immutable, hashable sequence of link messages.

    The medium-generalized analogue of :class:`repro.core.model.
    Transcript`: transcripts are the support of the transcript random
    variable in the exact analysis, so they are immutable and hash by
    content.  Storage, :meth:`extend` and the sequence protocol come from
    :class:`~repro.core.model.MessageLog`.  Per-link projections
    (:meth:`on_link`, :meth:`bits_by_link`) carry the cross-model bit
    accounting.
    """

    __slots__ = ()

    # An entry of the class's own: perfbench counts constructions per
    # class by wrapping ``vars(cls)["__init__"]``.
    __init__ = MessageLog.__init__

    def __repr__(self) -> str:
        inner = ",".join(f"{m.speaker}@{m.link!r}:{m.bits}" for m in self)
        return f"LinkTranscript({inner})"

    def on_link(self, link: Any) -> List[LinkMessage]:
        """All messages carried by ``link``, in order."""
        return [m for m in self if m.link == link]

    def bits_by_link(self) -> Dict[Any, int]:
        """Bits written per link — the per-link communication accounting."""
        totals: Dict[Any, int] = {}
        for m in self:
            totals[m.link] = totals.get(m.link, 0) + len(m)
        return totals

    def as_broadcast(self):
        """Project to a legacy board :class:`~repro.core.model.Transcript`
        (dropping the link annotations); how the bit-identity pin compares
        a broadcast-medium run against the legacy runner."""
        from ..core.model import Message, Transcript

        return Transcript(
            Message(speaker=m.speaker, bits=m.bits) for m in self
        )


EMPTY_LINK_TRANSCRIPT = LinkTranscript()


class Medium(abc.ABC):
    """Who can read what, who may speak where, and what writes cost.

    All methods take the number of *players* ``k`` (input holders,
    nodes ``0..k-1``); the medium decides how many nodes exist in total
    (:meth:`num_nodes`), with auxiliary input-less nodes at ids
    ``>= k``.  Hooks must be pure — the exact analyzer replays
    transcripts in arbitrary interleavings.
    """

    #: Stable name used in metric labels and error messages.
    name: str = ""

    @abc.abstractmethod
    def num_nodes(self, k: int) -> int:
        """Total node count (players plus auxiliary nodes)."""

    @abc.abstractmethod
    def links(self, k: int) -> Tuple[Any, ...]:
        """Every link messages may travel on."""

    @abc.abstractmethod
    def may_write(self, k: int, node: int, link: Any) -> bool:
        """Whether ``node`` may write on ``link`` (adjacency).

        Contract: ``may_write(k, node, link)`` implies
        ``link in links(k)``.  :meth:`check_edge` relies on it to accept
        a legal write without scanning :meth:`links`; every shipped
        medium satisfies it, and a custom medium must too.
        """

    @abc.abstractmethod
    def visible(self, k: int, link: Any, node: int) -> bool:
        """Whether ``node`` reads the traffic on ``link``."""

    def charge(self, link: Any, bits: Bits) -> int:
        """The cost of writing ``bits`` on ``link``.

        Every shipped medium charges one unit per bit — matching
        :math:`CC(\\Pi)` on the blackboard and total-communication
        accounting in the message-passing literature — but the hook
        exists so a medium with asymmetric link costs stays expressible.
        """
        return len(bits)

    def node_view(self, k: int, transcript: LinkTranscript, node: int) -> Tuple:
        """``node``'s view: the subsequence of messages on its visible
        links, as hashable ``(speaker, link, bits)`` triples.

        This is the information a party actually holds, and therefore
        the object the per-view information decomposition
        (:func:`repro.topology.analysis.per_view_information`) and the
        view-locality discipline (:mod:`repro.topology.validate`) are
        stated over.
        """
        if REGISTRY.enabled:
            REGISTRY.counter("topology_view_rebuilds").inc(
                medium=self.name or type(self).__name__
            )
        return tuple(
            (m.speaker, m.link, m.bits)
            for m in transcript
            if self.visible(k, m.link, node)
        )

    def scheduler_view(self, k: int, transcript: LinkTranscript) -> Tuple:
        """The projection of the transcript the schedule may depend on.

        Defaults to public trace metadata — ``(speaker, link, length)``
        per message — the only common knowledge on a general topology.
        Media with an all-seeing party (board, coordinator) override
        this with that party's full view.
        """
        return tuple((m.speaker, m.link, len(m.bits)) for m in transcript)

    # ------------------------------------------------------------------
    # Conveniences.
    # ------------------------------------------------------------------
    def check_edge(self, k: int, speaker: int, link: Any) -> None:
        """Raise :class:`TopologyViolation` unless ``speaker`` exists and
        may write on ``link``.

        A legal write costs one :meth:`may_write` call; :meth:`links` is
        scanned only to pick which error a rejected write raises (see the
        :meth:`may_write` contract).
        """
        if not 0 <= speaker < self.num_nodes(k):
            raise TopologyViolation(
                f"{self.name or type(self).__name__}: node {speaker!r} does "
                f"not exist (nodes 0..{self.num_nodes(k) - 1})"
            )
        if self.may_write(k, speaker, link):
            return
        if link not in self.links(k):
            raise TopologyViolation(
                f"{self.name or type(self).__name__}: {link!r} is not a "
                "link of this medium"
            )
        raise TopologyViolation(
            f"{self.name or type(self).__name__}: node {speaker} may "
            f"not write on {link!r} (not an endpoint)"
        )


class BroadcastMedium(Medium):
    """The shared blackboard: one link, everyone reads and writes.

    This is the paper's Section 3 model re-expressed as a medium.  The
    optimized legacy engine (:func:`repro.core.runner.run_protocol`,
    :mod:`repro.core.tree`) remains the production path for it; the
    generalized runtime reproduces that engine bit for bit (transcripts,
    outputs, bits, rng stream, analyzer values), which
    ``tests/topology/test_bit_identity.py`` pins over every shipped and
    generated protocol.
    """

    name = "broadcast"

    def num_nodes(self, k: int) -> int:
        return k

    def links(self, k: int) -> Tuple[Any, ...]:
        return (BOARD_LINK,)

    def may_write(self, k: int, node: int, link: Any) -> bool:
        return link is BOARD_LINK and 0 <= node < k

    def visible(self, k: int, link: Any, node: int) -> bool:
        return link is BOARD_LINK

    def scheduler_view(self, k: int, transcript: LinkTranscript) -> Tuple:
        # The board contents alone determine whose turn it is — exactly
        # the Section 3 rule, so the scheduler sees everything.
        return tuple((m.speaker, m.link, m.bits) for m in transcript)


#: The broadcast medium (stateless; one shared instance suffices).
BROADCAST = BroadcastMedium()


class CoordinatorMedium(Medium):
    """The message-passing model: ``k`` players, a coordinator, and one
    private player↔coordinator link each.

    Node ``k`` is the coordinator; it holds no input (the runtime hands
    it ``player_input=None``) and is an endpoint of every link, so its
    view is the full transcript — which is why the model's rule
    "the coordinator's view determines who speaks next" is implemented
    as :meth:`scheduler_view` returning everything.  Players see only
    their own link: content-forwarding is the coordinator's job and is
    charged per link like any other message, which is what produces the
    :math:`\\Theta(nk)` disjointness shape of arXiv:1305.4696 that
    experiment E16 tabulates against the blackboard's
    :math:`\\Theta(n \\log k + k)`.
    """

    name = "coordinator"

    def coordinator(self, k: int) -> int:
        """The coordinator's node id (``k``)."""
        return k

    def num_nodes(self, k: int) -> int:
        return k + 1

    def links(self, k: int) -> Tuple[Any, ...]:
        return tuple(Link(i, k) for i in range(k))

    def may_write(self, k: int, node: int, link: Any) -> bool:
        return isinstance(link, Link) and link.b == k and link.touches(node)

    def visible(self, k: int, link: Any, node: int) -> bool:
        return isinstance(link, Link) and link.touches(node)

    def scheduler_view(self, k: int, transcript: LinkTranscript) -> Tuple:
        # The coordinator is an endpoint of every link, so its view is
        # the whole transcript, contents included.
        return tuple((m.speaker, m.link, m.bits) for m in transcript)


#: The coordinator medium (stateless; one shared instance suffices).
COORDINATOR = CoordinatorMedium()


class GraphMedium(Medium):
    """An arbitrary topology given by an explicit undirected link set.

    Nodes are ``0..num_nodes-1``; players occupy ids ``0..k-1`` and any
    higher ids are auxiliary relay nodes without inputs.  Unlike the
    coordinator medium there is no all-seeing party, so the default
    metadata-only :meth:`Medium.scheduler_view` applies: the schedule
    must be determined by who spoke on which link and message lengths —
    the only common knowledge.  A protocol whose turn-taking reads
    message *contents* validates under :data:`COORDINATOR` but is
    rejected on the star graph, which is exactly the semantic gap
    between the two (see docs/topology.md).
    """

    def __init__(
        self,
        num_nodes: int,
        links: Iterable[Link],
        *,
        name: str = "graph",
    ) -> None:
        if num_nodes < 1:
            raise ValueError(f"need at least one node, got {num_nodes}")
        normalized: List[Link] = []
        seen = set()
        for link in links:
            if not isinstance(link, Link):
                raise ValueError(f"graph links must be Link objects: {link!r}")
            if link.b >= num_nodes:
                raise ValueError(
                    f"{link!r} names node {link.b} but the graph has "
                    f"{num_nodes} nodes"
                )
            if link not in seen:
                seen.add(link)
                normalized.append(link)
        if not normalized:
            raise ValueError("a graph medium needs at least one link")
        self._num_nodes = num_nodes
        self._links = tuple(normalized)
        self._link_set = frozenset(normalized)
        self.name = name

    def num_nodes(self, k: int) -> int:
        if k > self._num_nodes:
            raise ValueError(
                f"{k} players cannot inhabit a {self._num_nodes}-node graph"
            )
        return self._num_nodes

    def links(self, k: int) -> Tuple[Any, ...]:
        return self._links

    def may_write(self, k: int, node: int, link: Any) -> bool:
        return (
            isinstance(link, Link)
            and link in self._link_set
            and link.touches(node)
        )

    def visible(self, k: int, link: Any, node: int) -> bool:
        return isinstance(link, Link) and link.touches(node)


def star_medium(k: int) -> GraphMedium:
    """The star graph on ``k`` players plus hub node ``k`` — the
    coordinator *topology* as a :class:`GraphMedium` (same links,
    adjacency, visibility and charging as :data:`COORDINATOR`, but with
    the graph medium's metadata-only scheduler discipline)."""
    if k < 1:
        raise ValueError(f"need at least one player, got {k}")
    return GraphMedium(
        k + 1, (Link(i, k) for i in range(k)), name=f"star({k})"
    )


def ring_medium(k: int) -> GraphMedium:
    """The ``k``-cycle: node ``i`` linked to ``(i + 1) mod k``."""
    if k < 3:
        raise ValueError(f"a ring needs at least 3 nodes, got {k}")
    return GraphMedium(
        k, (Link(i, (i + 1) % k) for i in range(k)), name=f"ring({k})"
    )
