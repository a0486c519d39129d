"""Corruption detection: a damaged entry is never served.

Companion to ``tests/coding/test_framing_properties.py`` — the store's
entry envelope is sealed with the same CRC-32 primitive the wire framing
uses, and carries the same exhaustive guarantee: *every* single-bit flip
anywhere in an entry file (magic, header length, header JSON, payload,
or the checksum itself) raises :exc:`StoreCorruptedError` rather than
serving bytes that are not provably the cached result.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.coding.integrity import seal
from repro.store import ResultKey, ResultStore, StoreCorruptedError
from repro.store.store import (
    _HEADER_LEN_BYTES,
    MAGIC,
    decode_entry,
    encode_entry,
)

KEY = ResultKey(
    experiment="E2",
    params={"k": 3},
    seed=None,
    version="e2-and-cic/1",
)
PAYLOAD = b'{"cic":1.1887218755408671}'


@pytest.fixture
def populated(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    path = store.put(KEY, PAYLOAD)
    return store, path


def test_every_single_bit_flip_is_rejected(populated):
    store, path = populated
    with open(path, "rb") as handle:
        blob = handle.read()
    for bit in range(len(blob) * 8):
        mangled = bytearray(blob)
        mangled[bit // 8] ^= 0x80 >> (bit % 8)
        with open(path, "wb") as handle:
            handle.write(bytes(mangled))
        with pytest.raises(StoreCorruptedError):
            store.get(KEY)


def test_every_strict_prefix_is_rejected(populated):
    store, path = populated
    with open(path, "rb") as handle:
        blob = handle.read()
    for cut in range(len(blob)):
        with pytest.raises(StoreCorruptedError):
            decode_entry(blob[:cut])


def test_appended_garbage_is_rejected(populated):
    _, path = populated
    with open(path, "rb") as handle:
        blob = handle.read()
    with pytest.raises(StoreCorruptedError):
        decode_entry(blob + b"\x00")


def test_entry_under_wrong_address_is_rejected(tmp_path):
    # A byte-perfect entry placed at another key's path (a mis-filed
    # restore, say) fails the key/address cross-check.
    store = ResultStore(str(tmp_path / "store"))
    other = ResultKey(
        experiment="E2", params={"k": 4}, seed=None, version="e2-and-cic/1"
    )
    store.put(KEY, PAYLOAD)
    import os
    import shutil

    target = store.path_for(other)
    os.makedirs(os.path.dirname(target), exist_ok=True)
    shutil.copyfile(store.path_for(KEY), target)
    with pytest.raises(StoreCorruptedError):
        store.get(other)


def test_verify_all_finds_and_deletes_corruption(populated):
    store, path = populated
    with open(path, "rb") as handle:
        blob = handle.read()
    with open(path, "wb") as handle:
        handle.write(blob[:-1])
    report = store.verify_all()
    assert not report.ok and report.corrupt == (path,)
    report = store.verify_all(delete=True)
    assert report.removed == (path,)
    assert store.verify_all().checked == 0


def test_sweep_treats_corruption_as_a_miss(populated):
    # checkpointed_map_grid must recompute a corrupt cell, not crash.
    from repro.store import checkpointed_map_grid

    store, path = populated
    with open(path, "rb") as handle:
        blob = handle.read()
    with open(path, "wb") as handle:
        handle.write(blob[:-2] + b"\xff\xff")
    results = checkpointed_map_grid(
        lambda params: params["k"] * 10,
        [{"k": 3}],
        store=store,
        experiment="E2",
        version="e2-and-cic/1",
    )
    assert results == [30]
    assert store.verify(
        ResultKey(
            experiment="E2", params={"k": 3}, seed=None,
            version="e2-and-cic/1",
        )
    ) == b"30"


#: Entry headers: arbitrary bytes, deep ``[``/``{`` nesting (up to a
#: 200 000-byte header), token soup, and well-formed JSON of any shape —
#: including entry-shaped objects whose fields hold arbitrary values.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=16,
)
_HEADERS = st.one_of(
    st.binary(max_size=64),
    st.builds(
        lambda opener, depth, tail: opener * depth + tail,
        st.sampled_from([b"[", b'{"key":', b"[{"]),
        st.integers(0, 200_000),
        st.binary(max_size=8),
    ),
    st.lists(
        st.sampled_from([b"[", b"]", b"{", b"}", b",", b":", b'"key"',
                         b'"payload_bytes"', b"1", b"null", b"1" * 5000]),
        max_size=24,
    ).map(b"".join),
    _JSON_VALUES.map(lambda value: json.dumps(value).encode("utf-8")),
    st.fixed_dictionaries(
        {"key": _JSON_VALUES | st.fixed_dictionaries({
            "experiment": _JSON_VALUES, "params": _JSON_VALUES,
            "seed": _JSON_VALUES, "version": _JSON_VALUES,
        }),
         "payload_bytes": _JSON_VALUES | st.integers(0, 64)},
    ).map(lambda value: json.dumps(value).encode("utf-8")),
)


@settings(max_examples=300, deadline=None)
@given(
    header=_HEADERS,
    header_len=st.none() | st.integers(0, 2**32 - 1),
    payload=st.binary(max_size=64),
)
@example(  # nests deeper than the JSON parser's recursion limit
    header=b"[" * 200_000, header_len=None, payload=b"",
)
def test_sealed_arbitrary_body_raises_only_typed_errors(
    header, header_len, payload
):
    """A body that passes its CRC seal can still be anything; decoding
    must return a key and payload or raise StoreCorruptedError."""
    length = len(header) if header_len is None else header_len
    body = length.to_bytes(_HEADER_LEN_BYTES, "big") + header + payload
    try:
        key, decoded = decode_entry(MAGIC + seal(body))
    except StoreCorruptedError:
        return
    assert isinstance(key, ResultKey)
    assert decoded == body[_HEADER_LEN_BYTES + length:]
