"""Fabric wire format: roundtrips, typed corruption, version tolerance."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.coding.integrity import seal
from repro.fabric.wire import (
    MAX_FRAME_BYTES,
    FabricFrame,
    FabricFrameDecoder,
    FabricFrameKind,
    decode_fabric_frame,
    encode_fabric_frame,
)
from repro.net.errors import FrameCorrupted, FrameError, FrameTruncated

_LEN = 4


def _roundtrip(frame):
    wire = encode_fabric_frame(frame)
    decoded, consumed = decode_fabric_frame(wire)
    assert consumed == len(wire)
    return decoded


class TestRoundtrip:
    def test_every_kind_roundtrips(self):
        for kind in FabricFrameKind:
            frame = FabricFrame(
                kind,
                {"cell": 3, "digest": "ab" * 32},
                payload=b"\x00\x01payload\xff",
            )
            decoded = _roundtrip(frame)
            assert decoded == frame
            assert decoded.kind_name == kind.name

    def test_empty_fields_and_payload(self):
        decoded = _roundtrip(FabricFrame(FabricFrameKind.HEARTBEAT))
        assert decoded.fields == {}
        assert decoded.payload == b""

    def test_nested_header_survives(self):
        fields = {
            "key": {"experiment": "E2", "params": {"k": 4}, "seed": None},
            "keys": [1, 2, 3],
        }
        decoded = _roundtrip(FabricFrame(FabricFrameKind.GET, fields))
        assert decoded.fields == fields

    def test_unicode_header(self):
        decoded = _roundtrip(
            FabricFrame(FabricFrameKind.ERROR, {"message": "µ-distribution"})
        )
        assert decoded.fields["message"] == "µ-distribution"


class TestTypedFailures:
    def test_truncated_prefix(self):
        with pytest.raises(FrameTruncated):
            decode_fabric_frame(b"\x00\x00")

    def test_truncated_body(self):
        wire = encode_fabric_frame(FabricFrame(FabricFrameKind.LEASE, {"cell": 1}))
        for cut in range(_LEN, len(wire)):
            with pytest.raises(FrameTruncated):
                decode_fabric_frame(wire[:cut])

    def test_corrupt_byte_fails_crc(self):
        wire = bytearray(
            encode_fabric_frame(
                FabricFrame(FabricFrameKind.RESULT, {"cell": 2}, b"payload")
            )
        )
        wire[len(wire) // 2] ^= 0x40
        with pytest.raises(FrameCorrupted):
            decode_fabric_frame(bytes(wire))

    def test_absurd_length_prefix_is_corruption_not_allocation(self):
        wire = (MAX_FRAME_BYTES + 1).to_bytes(_LEN, "big") + b"x"
        with pytest.raises(FrameCorrupted):
            decode_fabric_frame(wire)

    def test_oversized_frame_refused_at_encode(self):
        with pytest.raises(FrameError):
            encode_fabric_frame(
                FabricFrame(
                    FabricFrameKind.RESULT, {}, b"\x00" * (MAX_FRAME_BYTES + 1)
                )
            )

    def test_non_object_header_is_corrupt(self):
        body = bytes([int(FabricFrameKind.GET)])
        header = b"[1,2]"
        body += len(header).to_bytes(_LEN, "big") + header
        body += (0).to_bytes(_LEN, "big")
        sealed = seal(body)
        wire = len(sealed).to_bytes(_LEN, "big") + sealed
        with pytest.raises(FrameCorrupted):
            decode_fabric_frame(wire)


#: JSON-ish header bodies: arbitrary bytes, deep ``[``/``{`` nesting (up
#: to a 200 000-byte header, far below MAX_FRAME_BYTES), token soup, and
#: well-formed JSON of any shape.
_HEADERS = st.one_of(
    st.binary(max_size=64),
    st.builds(
        lambda opener, depth, tail: opener * depth + tail,
        st.sampled_from([b"[", b'{"a":', b"[{"]),
        st.integers(0, 200_000),
        st.binary(max_size=8),
    ),
    st.lists(
        st.sampled_from([b"[", b"]", b"{", b"}", b",", b":", b'"a"', b"1",
                         b"null", b"1" * 5000]),
        max_size=24,
    ).map(b"".join),
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=8),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4),
        max_leaves=16,
    ).map(lambda value: json.dumps(value).encode("utf-8")),
)

#: A length field: ``None`` writes the true length, an int overrides it.
_LENGTHS = st.none() | st.integers(0, 2**32 - 1)


def _field(value, true_length):
    return (true_length if value is None else value).to_bytes(_LEN, "big")


class TestArbitrarySealedBodies:
    """A body that passes its CRC seal can still be anything; decoding it
    must return a frame or raise FrameCorrupted, never an untyped
    error."""

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.integers(0, 255),
        header=_HEADERS,
        header_len=_LENGTHS,
        payload=st.binary(max_size=32),
        payload_len=_LENGTHS,
        tail=st.binary(max_size=8),
    )
    @example(  # nests deeper than the JSON parser's recursion limit
        kind=int(FabricFrameKind.GET), header=b"[" * 200_000,
        header_len=None, payload=b"", payload_len=None, tail=b"",
    )
    def test_structured_body(self, kind, header, header_len, payload,
                             payload_len, tail):
        body = (
            bytes([kind]) + _field(header_len, len(header)) + header
            + _field(payload_len, len(payload)) + payload + tail
        )
        self._decode_sealed(body)

    @settings(max_examples=200, deadline=None)
    @given(body=st.binary(max_size=96))
    def test_raw_body(self, body):
        self._decode_sealed(body)

    @staticmethod
    def _decode_sealed(body):
        sealed = seal(body)
        wire = len(sealed).to_bytes(_LEN, "big") + sealed
        try:
            frame, consumed = decode_fabric_frame(wire)
        except FrameCorrupted:
            return
        assert consumed == len(wire)
        assert isinstance(frame.fields, dict)


class TestVersionTolerance:
    def test_unknown_kind_decodes_raw(self):
        wire = bytearray(
            encode_fabric_frame(FabricFrame(FabricFrameKind.HELLO, {"v": 2}))
        )
        # Rebuild the sealed body with an unknown kind byte.
        body = bytearray(
            encode_fabric_frame(FabricFrame(FabricFrameKind.HELLO, {"v": 2}))
        )
        raw = _rebuild_with(body, kind=200)
        frame, consumed = decode_fabric_frame(raw)
        assert consumed == len(raw)
        assert frame.kind == 200
        assert frame.kind_name == "UNKNOWN_200"
        assert frame.fields == {"v": 2}
        del wire  # silence unused

    def test_extension_bytes_after_payload_ignored(self):
        body = bytes([int(FabricFrameKind.SERVE)])
        header = b"{}"
        payload = b"result-bytes"
        body += len(header).to_bytes(_LEN, "big") + header
        body += len(payload).to_bytes(_LEN, "big") + payload
        body += b"FUTURE-EXTENSION"  # a newer writer's trailing data
        sealed = seal(body)
        wire = len(sealed).to_bytes(_LEN, "big") + sealed
        frame, consumed = decode_fabric_frame(wire)
        assert consumed == len(wire)
        assert frame.payload == payload

    def test_unknown_header_keys_survive(self):
        decoded = _roundtrip(
            FabricFrame(
                FabricFrameKind.LEASE,
                {"cell": 0, "key": {}, "added_in_v99": [1, {"x": 2}]},
            )
        )
        assert decoded.fields["added_in_v99"] == [1, {"x": 2}]


def _rebuild_with(encoded: bytearray, *, kind: int) -> bytes:
    """Swap the kind byte inside an encoded frame and re-seal."""
    from repro.coding.integrity import unseal

    sealed = bytes(encoded[_LEN:])
    body = bytearray(unseal(sealed))
    body[0] = kind
    resealed = seal(bytes(body))
    return len(resealed).to_bytes(_LEN, "big") + resealed


class TestDecoder:
    def test_byte_at_a_time_stream(self):
        frames = [
            FabricFrame(FabricFrameKind.HELLO, {"worker": 0}),
            FabricFrame(FabricFrameKind.LEASE, {"cell": 5}, b"x" * 100),
            FabricFrame(FabricFrameKind.BYE),
        ]
        stream = b"".join(encode_fabric_frame(f) for f in frames)
        decoder = FabricFrameDecoder()
        got = []
        for i in range(len(stream)):
            got.extend(decoder.feed(stream[i : i + 1]))
        assert got == frames
        assert decoder.pending_bytes == 0

    def test_multiple_frames_in_one_chunk(self):
        frames = [
            FabricFrame(FabricFrameKind.STEAL, {"worker": i}) for i in range(4)
        ]
        stream = b"".join(encode_fabric_frame(f) for f in frames)
        decoder = FabricFrameDecoder()
        assert decoder.feed(stream) == frames

    def test_corruption_mid_stream_raises(self):
        good = encode_fabric_frame(FabricFrame(FabricFrameKind.HELLO))
        bad = bytearray(encode_fabric_frame(FabricFrame(FabricFrameKind.BYE)))
        bad[-1] ^= 0x01
        decoder = FabricFrameDecoder()
        assert len(decoder.feed(good)) == 1
        with pytest.raises(FrameCorrupted):
            decoder.feed(bytes(bad))
