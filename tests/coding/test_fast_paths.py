"""Equivalence pins for the linear-time coding fast paths.

Each fast path is checked against the straightforward implementation it
replaced, kept here as the reference:

* :func:`subset_unrank` steps the binomial by exact integer ratios; the
  reference recomputes ``binomial(c, s)`` for every candidate ``c``;
* :func:`bits_of` scans ``bin(mask)``; the reference shifts the mask one
  bit at a time;
* :func:`check_bits` is the single ``str.strip`` validator behind
  ``Message``, ``LinkMessage``, ``Frame``, ``BitWriter.write_bits``,
  ``BitReader`` and ``concat_bits``; the reference is the per-character
  ``all(c in "01" for c in bits)`` loop each of them used to run.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import BitReader, BitWriter, binomial, concat_bits
from repro.coding.bitio import check_bits
from repro.coding.bitops import bits_of
from repro.coding.combinatorial import subset_rank, subset_unrank
from repro.core.model import Message
from repro.net import Frame, FrameKind
from repro.topology.medium import BOARD_LINK, LinkMessage


def reference_subset_unrank(rank, n, m):
    subset = []
    remaining = rank
    size = m
    candidate = n - 1
    while size > 0:
        while binomial(candidate, size) > remaining:
            candidate -= 1
        subset.append(candidate)
        remaining -= binomial(candidate, size)
        size -= 1
        candidate -= 1
    subset.reverse()
    return subset


def reference_bits_of(mask):
    out = []
    position = 0
    while mask:
        if mask & 1:
            out.append(position)
        mask >>= 1
        position += 1
    return out


def reference_is_bits(bits):
    return all(c in "01" for c in bits)


class TestSubsetUnrank:
    def test_exhaustive_small_universes(self):
        for n in range(13):
            for m in range(n + 1):
                for rank in range(binomial(n, m)):
                    assert subset_unrank(rank, n, m) == (
                        reference_subset_unrank(rank, n, m)
                    ), (rank, n, m)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_literal_search_up_to_4096(self, data):
        n = data.draw(st.integers(0, 4096), label="n")
        m = data.draw(
            st.one_of(
                st.integers(0, min(n, 8)),
                st.integers(max(0, n - 8), n),
                st.integers(0, min(n, 160)),
            ),
            label="m",
        )
        rank = data.draw(st.integers(0, binomial(n, m) - 1), label="rank")
        subset = subset_unrank(rank, n, m)
        assert subset == reference_subset_unrank(rank, n, m)
        assert subset_rank(subset, n) == rank

    @pytest.mark.parametrize("n,m", [(2048, 128), (1000, 500)])
    def test_extreme_ranks_of_wide_codes(self, n, m):
        top = binomial(n, m) - 1
        for rank in (0, 1, top // 3, top // 2, top - 1, top):
            assert subset_unrank(rank, n, m) == (
                reference_subset_unrank(rank, n, m)
            )


class TestBitsOf:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 5000).flatmap(
        lambda width: st.integers(0, (1 << width) - 1)
    ))
    def test_matches_shift_loop(self, mask):
        assert bits_of(mask) == reference_bits_of(mask)

    @pytest.mark.parametrize(
        "mask", [0, 1, 2, 3, (1 << 4999), (1 << 5000) - 1, 0b1010 << 3000]
    )
    def test_edge_masks(self, mask):
        assert bits_of(mask) == reference_bits_of(mask)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bits_of(-1)


#: Every call site of the validator, with the ``ValueError`` message
#: prefix it has always raised.
VALIDATOR_SITES = [
    ("Message", lambda s: Message(0, s),
     "message bits must be a 0/1 string"),
    ("LinkMessage", lambda s: LinkMessage(0, BOARD_LINK, s),
     "message bits must be a 0/1 string"),
    ("Frame", lambda s: Frame(FrameKind.APPEND, payload=s),
     "payload must be a bit string"),
    ("BitWriter.write_bits", lambda s: BitWriter().write_bits(s),
     "not a bit string"),
    ("BitReader", BitReader, "not a bit string"),
    ("concat_bits", lambda s: concat_bits([s]), "not a bit string"),
]

EDGE_STRINGS = [
    "", "0", "1", "0101", "2", "x01", "01x", "0x1", "a", " 01", "01 ",
    "0 1", "\n", "\t0", "0\x00", "０", "１", "١", "¹",
    "\U0001d7ce", "O1", "l0", "01​", "0" * 500 + "2", "2" + "1" * 500,
]


def assert_same_verdict(build, prefix, bits):
    if reference_is_bits(bits):
        build(bits)
    else:
        with pytest.raises(ValueError) as info:
            build(bits)
        assert str(info.value) == f"{prefix}: {bits!r}"


class TestValidator:
    @pytest.mark.parametrize("bits", EDGE_STRINGS)
    @pytest.mark.parametrize(
        "site", VALIDATOR_SITES, ids=[s[0] for s in VALIDATOR_SITES]
    )
    def test_edge_strings(self, site, bits):
        _, build, prefix = site
        assert_same_verdict(build, prefix, bits)

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet=st.one_of(
        st.sampled_from("01"), st.characters()
    ), max_size=40))
    def test_arbitrary_text(self, bits):
        for _, build, prefix in VALIDATOR_SITES:
            assert_same_verdict(build, prefix, bits)

    def test_default_message(self):
        check_bits("0110")
        with pytest.raises(ValueError, match="^not a bit string: '012'$"):
            check_bits("012")
