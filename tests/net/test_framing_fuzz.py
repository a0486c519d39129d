"""Hypothesis fuzzing of the frame decoder.

Whatever bytes arrive, :func:`decode_frame` either returns a frame or
raises one of the two typed framing errors — ``FrameTruncated`` (wait
for more bytes) or ``FrameCorrupted`` (drop the connection).  Random
bytes almost never pass the CRC-32 seal, so the second family seals
arbitrary bodies with a correct length prefix and checksum: that drives
the field parser behind the seal, where an untyped error would hide.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.integrity import crc32
from repro.coding.varint import encode_elias_delta
from repro.net import (
    Frame,
    FrameCorrupted,
    FrameDecoder,
    FrameTruncated,
    decode_frame,
    encode_frame,
    pack_bits,
)


def seal(body: bytes) -> bytes:
    """Wrap ``body`` exactly as :func:`encode_frame` does: Elias-delta
    length prefix, the body, its big-endian CRC-32."""
    prefix = pack_bits(encode_elias_delta(len(body)))
    return prefix + body + crc32(body).to_bytes(4, "big")


def decode_or_typed_error(data: bytes):
    try:
        frame, consumed = decode_frame(data)
    except (FrameCorrupted, FrameTruncated):
        return None
    assert isinstance(frame, Frame)
    assert 0 < consumed <= len(data)
    return frame, consumed


class TestDecodeFrameFuzz:
    @settings(max_examples=500, deadline=None)
    @given(st.binary(max_size=96))
    def test_arbitrary_bytes(self, data):
        decode_or_typed_error(data)

    @settings(max_examples=500, deadline=None)
    @given(st.binary(min_size=1, max_size=96), st.binary(max_size=8))
    def test_sealed_arbitrary_bodies(self, body, trailer):
        data = seal(body)
        decoded = decode_or_typed_error(data + trailer)
        if decoded is None:
            # A complete sealed frame is never "truncated".
            try:
                decode_frame(data)
            except FrameTruncated:
                raise AssertionError("sealed frame reported truncated")
            except FrameCorrupted:
                pass
            return
        frame, consumed = decoded
        assert consumed == len(data)
        # Whatever parsed re-encodes to a frame that decodes the same.
        assert decode_frame(encode_frame(frame))[0] == frame

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.binary(min_size=1, max_size=48), max_size=6))
    def test_stream_decoder_only_raises_corrupted(self, bodies):
        decoder = FrameDecoder()
        for chunk in map(seal, bodies):
            try:
                decoder.feed(chunk)
            except FrameCorrupted:
                return
