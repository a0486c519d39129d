"""Tests for the blackboard model primitives (Section 3 semantics)."""

import pickle
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Message,
    Protocol,
    ProtocolViolation,
    Transcript,
    check_prefix_free,
)
from repro.information import DiscreteDistribution


MESSAGES = st.builds(
    Message,
    speaker=st.integers(0, 5),
    bits=st.text(alphabet="01", min_size=1, max_size=12),
)


class TestExtendMatchesConstructor:
    """``extend`` carries the bit count forward instead of re-summing;
    every prefix must equal the same transcript built by ``__init__``."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(MESSAGES, max_size=30))
    def test_every_prefix(self, messages):
        board = Transcript()
        for length, message in enumerate(messages, start=1):
            board = board.extend(message)
            built = Transcript(messages[:length])
            assert board.bits_written == built.bits_written == sum(
                len(m.bits) for m in messages[:length]
            )
            assert board == built and hash(board) == hash(built)
            assert board.messages == built.messages
            assert len(board) == length

    def test_extend_leaves_parent_hash_cache_alone(self):
        parent = Transcript([Message(0, "1")])
        before = hash(parent)
        child = parent.extend(Message(1, "01"))
        assert hash(parent) == before
        assert hash(child) == hash(Transcript(child.messages))
        assert type(child) is Transcript


def assert_same_as_built(log, expected, cls):
    """``log`` behaves exactly like ``cls(expected)`` in every accessor."""
    built = cls(expected)
    assert len(log) == len(expected)
    assert list(log) == expected
    assert log.messages == tuple(expected) == built.messages
    assert log == built and hash(log) == hash(built)
    assert log.bits_written == built.bits_written
    assert log.bit_string() == built.bit_string()
    assert log.speakers() == built.speakers()
    assert log.messages_by(0) == built.messages_by(0)
    for index in range(-len(expected), len(expected)):
        assert log[index] is expected[index]
    for index in (len(expected), -len(expected) - 1):
        with pytest.raises(IndexError):
            log[index]
    assert log[1:] == built[1:] == tuple(expected[1:])
    assert pickle.loads(pickle.dumps(log)) == built


class TestSharedStorage:
    """Extensions share one append-only list; every transcript must still
    read as exactly its own messages, whatever order siblings grow in."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 10**6), MESSAGES), max_size=40))
    def test_any_extension_order(self, steps):
        pool = [(Transcript(), [])]
        for pick, message in steps:
            parent, parent_messages = pool[pick % len(pool)]
            pool.append((parent.extend(message), parent_messages + [message]))
        for transcript, expected in pool:
            assert_same_as_built(transcript, expected, Transcript)

    def test_chain_appends_in_place(self):
        board = Transcript()
        chain = [board]
        for i in range(50):
            board = board.extend(Message(i % 3, "1"))
            chain.append(board)
        assert len({id(t._buf) for t in chain[1:]}) == 1

    def test_each_transcript_class_owns_its_constructor(self):
        # perfbench counts constructions by wrapping vars(cls)["__init__"].
        from repro.topology import LinkTranscript

        for cls in (Transcript, LinkTranscript):
            assert "__init__" in vars(cls)

    def test_sibling_does_not_disturb_prefix(self):
        root = Transcript([Message(0, "1")])
        left = root.extend(Message(1, "0"))
        right = root.extend(Message(1, "11"))
        deeper = left.extend(Message(2, "1"))
        assert root.bit_string() == "1"
        assert left.bit_string() == "10"
        assert right.bit_string() == "111"
        assert deeper.bit_string() == "101"

    def test_concurrent_extends_of_one_tip(self):
        root = Transcript().extend(Message(0, "1"))
        results = [[] for _ in range(4)]

        def grow(slot):
            for i in range(2000):
                message = Message(slot + 1, format(i, "b"))
                results[slot].append((root.extend(message), message))

        threads = [
            threading.Thread(target=grow, args=(slot,)) for slot in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for produced in results:
            for transcript, message in produced:
                assert list(transcript) == [root[0], message]


class TestMessage:
    def test_length_is_bit_count(self):
        assert len(Message(0, "10110")) == 5

    def test_invalid_speaker(self):
        with pytest.raises(ValueError):
            Message(-1, "0")

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            Message(0, "0a1")

    def test_frozen(self):
        m = Message(0, "1")
        with pytest.raises(Exception):
            m.bits = "0"


class TestTranscript:
    def test_empty(self):
        t = Transcript()
        assert len(t) == 0
        assert t.bits_written == 0
        assert t.bit_string() == ""

    def test_extend_is_persistent(self):
        t0 = Transcript()
        t1 = t0.extend(Message(0, "10"))
        t2 = t1.extend(Message(1, "0"))
        assert len(t0) == 0
        assert len(t1) == 1
        assert t2.bits_written == 3
        assert t2.bit_string() == "100"

    def test_equality_and_hash(self):
        a = Transcript([Message(0, "1"), Message(1, "0")])
        b = Transcript().extend(Message(0, "1")).extend(Message(1, "0"))
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality(self):
        a = Transcript([Message(0, "1")])
        b = Transcript([Message(1, "1")])
        assert a != b

    def test_usable_as_dict_key(self):
        table = {Transcript([Message(0, "1")]): "x"}
        assert table[Transcript([Message(0, "1")])] == "x"

    def test_speakers(self):
        t = Transcript([Message(2, "1"), Message(0, "0"), Message(2, "1")])
        assert t.speakers() == [2, 0, 2]

    def test_messages_by(self):
        t = Transcript([Message(2, "1"), Message(0, "0"), Message(2, "11")])
        assert [m.bits for m in t.messages_by(2)] == ["1", "11"]

    def test_indexing_and_iteration(self):
        t = Transcript([Message(0, "1"), Message(1, "00")])
        assert t[1].bits == "00"
        assert [m.speaker for m in t] == [0, 1]


class TestPrefixFree:
    def test_valid_sets(self):
        check_prefix_free(["0", "10", "11"])
        check_prefix_free(["0", "0"])  # duplicates collapse

    def test_prefix_violation(self):
        with pytest.raises(ProtocolViolation, match="prefix"):
            check_prefix_free(["0", "01"])

    def test_non_adjacent_prefix_violation(self):
        with pytest.raises(ProtocolViolation, match="prefix"):
            check_prefix_free(["1", "10111", "101"])

    def test_empty_message_rejected(self):
        with pytest.raises(ProtocolViolation, match="empty"):
            check_prefix_free(["", "1"])


class _EchoProtocol(Protocol):
    """One player writes its one-bit input; used for the base-class tests."""

    def __init__(self):
        super().__init__(1)

    def next_speaker(self, state, board):
        return None if len(board) else 0

    def message_distribution(self, state, player, player_input, board):
        return DiscreteDistribution.point_mass(str(player_input))

    def output(self, state, board):
        return int(board[0].bits)


class TestProtocolBase:
    def test_num_players_validated(self):
        class ZeroPlayers(_EchoProtocol):
            def __init__(self):
                Protocol.__init__(self, 0)

        with pytest.raises(ValueError):
            ZeroPlayers()

    def test_validate_inputs(self):
        p = _EchoProtocol()
        p.validate_inputs([1])
        with pytest.raises(ProtocolViolation):
            p.validate_inputs([1, 0])

    def test_replay_state_default(self):
        p = _EchoProtocol()
        board = Transcript([Message(0, "1")])
        assert p.replay_state(board) is None
