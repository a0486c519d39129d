"""Tests for the blackboard model primitives (Section 3 semantics)."""

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
