"""Structural contracts of the medium layer: links, transcripts, the
three media, and the typed rejection of topology violations."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import (
    BOARD_LINK,
    BROADCAST,
    COORDINATOR,
    GraphMedium,
    Link,
    LinkMessage,
    LinkTranscript,
    TopologyViolation,
    ring_medium,
    star_medium,
)
from repro.core import Message, Transcript
from repro.topology.medium import EMPTY_LINK_TRANSCRIPT, Medium
from tests.core.test_model import assert_same_as_built


class TestLink:
    def test_endpoints_normalized(self):
        assert Link(3, 1) == Link(1, 3)
        assert Link(3, 1).endpoints == (1, 3)
        assert hash(Link(2, 5)) == hash(Link(5, 2))

    def test_touches_and_other(self):
        link = Link(0, 4)
        assert link.touches(0) and link.touches(4)
        assert not link.touches(2)
        assert link.other(0) == 4 and link.other(4) == 0

    def test_board_link_singleton_survives_pickle(self):
        assert pickle.loads(pickle.dumps(BOARD_LINK)) is BOARD_LINK

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Link(2, 2)


class TestLinkMessage:
    def test_validates_bits(self):
        with pytest.raises(ValueError):
            LinkMessage(0, Link(0, 2), "012")

    def test_link_type_checked(self):
        with pytest.raises(ValueError):
            LinkMessage(0, (0, 2), "1")


class TestLinkTranscript:
    def test_empty_singleton_properties(self):
        assert len(EMPTY_LINK_TRANSCRIPT) == 0
        assert EMPTY_LINK_TRANSCRIPT.bits_written == 0
        assert EMPTY_LINK_TRANSCRIPT.bit_string() == ""

    def test_extend_is_persistent_and_hashable(self):
        m1 = LinkMessage(0, Link(0, 2), "10")
        m2 = LinkMessage(2, Link(1, 2), "0")
        t1 = EMPTY_LINK_TRANSCRIPT.extend(m1)
        t2 = t1.extend(m2)
        assert len(t1) == 1 and len(t2) == 2
        assert t2.bits_written == 3
        assert t2.bits_by_link() == {Link(0, 2): 2, Link(1, 2): 1}
        assert t2 == LinkTranscript((m1, m2))
        assert hash(t2) == hash(LinkTranscript((m1, m2)))
        assert t2.speakers() == [0, 2]
        assert t2.on_link(Link(0, 2)) == [m1]
        assert t2.messages_by(2) == [m2]

    def test_as_broadcast_drops_link_annotations(self):
        board = EMPTY_LINK_TRANSCRIPT.extend(
            LinkMessage(1, BOARD_LINK, "01")
        )
        legacy = board.as_broadcast()
        assert [m.speaker for m in legacy] == [1]
        assert legacy.bit_string() == "01"


class TestBroadcastMedium:
    def test_shape(self):
        k = 4
        assert BROADCAST.num_nodes(k) == k
        assert BROADCAST.links(k) == (BOARD_LINK,)
        for node in range(k):
            assert BROADCAST.may_write(k, node, BOARD_LINK)
            assert BROADCAST.visible(k, BOARD_LINK, node)

    def test_views_are_the_whole_board(self):
        transcript = EMPTY_LINK_TRANSCRIPT.extend(
            LinkMessage(0, BOARD_LINK, "1")
        ).extend(LinkMessage(1, BOARD_LINK, "00"))
        for node in range(3):
            view = BROADCAST.node_view(3, transcript, node)
            assert view == ((0, BOARD_LINK, "1"), (1, BOARD_LINK, "00"))
        # The scheduler also sees full contents (board-determined turns).
        assert BROADCAST.scheduler_view(3, transcript) == view


class TestCoordinatorMedium:
    def test_shape(self):
        k = 3
        assert COORDINATOR.num_nodes(k) == k + 1
        assert set(COORDINATOR.links(k)) == {Link(i, k) for i in range(k)}
        # The hub touches every link, players only their own.
        for i in range(k):
            assert COORDINATOR.may_write(k, k, Link(i, k))
            assert COORDINATOR.may_write(k, i, Link(i, k))
            assert not COORDINATOR.may_write(k, i, Link((i + 1) % k, k))

    def test_views_are_private(self):
        k = 3
        transcript = EMPTY_LINK_TRANSCRIPT.extend(
            LinkMessage(0, Link(0, k), "1")
        ).extend(LinkMessage(1, Link(1, k), "0"))
        assert COORDINATOR.node_view(k, transcript, 0) == (
            (0, Link(0, k), "1"),
        )
        assert COORDINATOR.node_view(k, transcript, 2) == ()
        # The hub sees everything; so does the scheduler (contents).
        assert len(COORDINATOR.node_view(k, transcript, k)) == 2
        assert COORDINATOR.scheduler_view(k, transcript) == (
            (0, Link(0, k), "1"),
            (1, Link(1, k), "0"),
        )


class TestGraphMedia:
    def test_star_matches_coordinator_links(self):
        k = 4
        star = star_medium(k)
        assert star.num_nodes(k) == COORDINATOR.num_nodes(k)
        assert set(star.links(k)) == set(COORDINATOR.links(k))

    def test_graph_scheduler_sees_metadata_only(self):
        k = 3
        star = star_medium(k)
        transcript = EMPTY_LINK_TRANSCRIPT.extend(
            LinkMessage(0, Link(0, k), "101")
        )
        assert star.scheduler_view(k, transcript) == (
            (0, Link(0, k), 3),
        )

    def test_ring_adjacency(self):
        ring = ring_medium(4)
        assert set(ring.links(4)) == {
            Link(0, 1), Link(1, 2), Link(2, 3), Link(3, 0),
        }
        with pytest.raises(ValueError):
            ring_medium(2)

    def test_graph_medium_validates_links(self):
        with pytest.raises(ValueError):
            GraphMedium(3, (Link(0, 5),))  # endpoint out of range


class TestCheckEdge:
    def test_typed_rejections(self):
        k = 3
        with pytest.raises(TopologyViolation):
            COORDINATOR.check_edge(k, 99, Link(0, k))  # invalid node
        with pytest.raises(TopologyViolation):
            COORDINATOR.check_edge(k, 0, Link(1, 2))  # foreign link
        with pytest.raises(TopologyViolation):
            COORDINATOR.check_edge(k, 0, Link(1, k))  # not a writer
        # And the valid edge passes.
        COORDINATOR.check_edge(k, 0, Link(0, k))
        COORDINATOR.check_edge(k, k, Link(0, k))


LINK_MESSAGES = st.builds(
    LinkMessage,
    speaker=st.integers(0, 4),
    link=st.sampled_from([BOARD_LINK, Link(0, 4), Link(1, 4), Link(2, 3)]),
    bits=st.text(alphabet="01", min_size=1, max_size=12),
)


class TestLinkTranscriptExtend:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(LINK_MESSAGES, max_size=30))
    def test_extend_matches_constructor(self, messages):
        transcript = LinkTranscript()
        for length, message in enumerate(messages, start=1):
            transcript = transcript.extend(message)
            built = LinkTranscript(messages[:length])
            assert transcript.bits_written == built.bits_written
            assert transcript.bits_written == sum(
                len(m.bits) for m in messages[:length]
            )
            assert transcript == built and hash(transcript) == hash(built)
            assert transcript.bits_by_link() == built.bits_by_link()

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 10**6), LINK_MESSAGES), max_size=30)
    )
    def test_any_extension_order(self, steps):
        pool = [(LinkTranscript(), [])]
        for pick, message in steps:
            parent, parent_messages = pool[pick % len(pool)]
            pool.append((parent.extend(message), parent_messages + [message]))
        for transcript, expected in pool:
            assert_same_as_built(transcript, expected, LinkTranscript)
            built = LinkTranscript(expected)
            assert transcript.bits_by_link() == built.bits_by_link()
            assert transcript.on_link(BOARD_LINK) == built.on_link(BOARD_LINK)
            assert transcript != Transcript(
                Message(m.speaker, m.bits) for m in expected
            )


def reference_check_edge(medium, k, speaker, link):
    """The check as it was written before the ``may_write`` fast path:
    node, then ``links(k)`` membership, then adjacency."""
    name = medium.name or type(medium).__name__
    if not 0 <= speaker < medium.num_nodes(k):
        raise TopologyViolation(
            f"{name}: node {speaker!r} does not exist "
            f"(nodes 0..{medium.num_nodes(k) - 1})"
        )
    if link not in medium.links(k):
        raise TopologyViolation(
            f"{name}: {link!r} is not a link of this medium"
        )
    if not medium.may_write(k, speaker, link):
        raise TopologyViolation(
            f"{name}: node {speaker} may not write on {link!r} "
            "(not an endpoint)"
        )


def edge_outcome(check, medium, k, speaker, link):
    try:
        check(medium, k, speaker, link)
    except TopologyViolation as error:
        return str(error)
    return None


#: (medium, players k): the three shipped media on the same small k,
#: plus a ring, whose links are not all incident to one hub.
SHIPPED_MEDIA = [
    (BROADCAST, 4),
    (COORDINATOR, 4),
    (star_medium(4), 4),
    (ring_medium(5), 5),
]


def candidate_links(nodes):
    links = [BOARD_LINK, "not-a-link", None, (0, 1)]
    links += [
        Link(a, b) for a in range(nodes + 2) for b in range(a + 1, nodes + 2)
    ]
    return links


def error_kind(outcome):
    if outcome is None:
        return None
    if "does not exist" in outcome:
        return "no node"
    if outcome.endswith("is not a link of this medium"):
        return "not a link"
    assert outcome.endswith("(not an endpoint)"), outcome
    return "not an endpoint"


class TestCheckEdgeFastPath:
    @pytest.mark.parametrize(
        "medium,k", SHIPPED_MEDIA, ids=[m.name for m, _ in SHIPPED_MEDIA]
    )
    def test_every_outcome_unchanged(self, medium, k):
        nodes = medium.num_nodes(k)
        kinds = set()
        for speaker in range(-1, nodes + 2):
            for link in candidate_links(nodes):
                expected = edge_outcome(
                    reference_check_edge, medium, k, speaker, link
                )
                actual = edge_outcome(
                    Medium.check_edge, medium, k, speaker, link
                )
                assert actual == expected, (speaker, link)
                kinds.add(error_kind(expected))
        # The grid reaches the accepted case and every rejection the
        # medium has (everyone may write on the board, so broadcast has
        # no "not an endpoint").
        expected_kinds = {None, "no node", "not a link", "not an endpoint"}
        if medium is BROADCAST:
            expected_kinds.discard("not an endpoint")
        assert kinds == expected_kinds

    @pytest.mark.parametrize(
        "medium,k", SHIPPED_MEDIA, ids=[m.name for m, _ in SHIPPED_MEDIA]
    )
    def test_may_write_implies_listed_link(self, medium, k):
        nodes = medium.num_nodes(k)
        links = medium.links(k)
        for speaker in range(nodes):
            for link in candidate_links(nodes):
                if medium.may_write(k, speaker, link):
                    assert link in links, (speaker, link)
