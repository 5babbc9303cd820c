"""Wire-protocol unit tests: framing, JSONL, message validation."""

import asyncio
import struct

import pytest

from repro.errors import ServiceError
from repro.service.protocol import (
    MAGIC,
    batch_message,
    decode_payload,
    encode_frame,
    encode_line,
    iter_window_batches,
    parse_message,
    read_frame,
    read_lines,
)


def feed_reader(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


class TestFraming:
    def test_frame_round_trip(self):
        message = {"items": ["a", "b", 3], "seq": 9}
        frame = encode_frame(message)
        length = struct.unpack(">I", frame[:4])[0]
        assert length == len(frame) - 4
        assert decode_payload(frame[4:]) == message

    def test_read_frame_sequence(self):
        frames = encode_frame(["a"]) + encode_frame({"op": "flush"})

        async def scenario():
            reader = feed_reader(frames)
            first = await read_frame(reader, 1 << 20)
            second = await read_frame(reader, 1 << 20)
            third = await read_frame(reader, 1 << 20)
            return first, second, third

        first, second, third = asyncio.run(scenario())
        assert decode_payload(first) == ["a"]
        assert decode_payload(second) == {"op": "flush"}
        assert third is None

    def test_oversized_frame_rejected(self):
        async def scenario():
            reader = feed_reader(encode_frame(["x" * 100]))
            await read_frame(reader, max_bytes=10)

        with pytest.raises(ServiceError, match="exceeds limit"):
            asyncio.run(scenario())

    def test_truncated_frame_rejected(self):
        async def scenario():
            reader = feed_reader(struct.pack(">I", 50) + b"short")
            await read_frame(reader, 1 << 20)

        with pytest.raises(ServiceError, match="truncated frame payload"):
            asyncio.run(scenario())

    def test_truncated_header_rejected(self):
        async def scenario():
            reader = feed_reader(b"\x00\x00")
            await read_frame(reader, 1 << 20)

        with pytest.raises(ServiceError, match="truncated frame header"):
            asyncio.run(scenario())


class TestJsonl:
    def test_lines_with_initial_chunk(self):
        """The 4 magic-probe bytes are replayed into the line stream."""
        data = encode_line(["a", "b"]) + encode_line({"op": "flush"})

        async def scenario():
            reader = feed_reader(data[4:])
            return [line async for line in read_lines(reader, data[:4], 1 << 20)]

        lines = asyncio.run(scenario())
        assert [decode_payload(line) for line in lines] == [
            ["a", "b"],
            {"op": "flush"},
        ]

    def test_unterminated_tail_line_is_yielded(self):
        async def scenario():
            reader = feed_reader(b'["tail"]')
            return [line async for line in read_lines(reader, b"", 1 << 20)]

        assert [decode_payload(l) for l in asyncio.run(scenario())] == [["tail"]]


class TestMessages:
    def test_bare_list_is_a_batch(self):
        assert parse_message(["a", 2]) == ("batch", ["a", 2], None)

    def test_sequenced_batch(self):
        assert parse_message({"items": ["a"], "seq": 4}) == ("batch", ["a"], 4)

    def test_batch_message_shapes(self):
        assert batch_message(["a"]) == ["a"]
        assert batch_message(["a"], seq=0) == {"items": ["a"], "seq": 0}

    def test_ops(self):
        assert parse_message({"op": "flush"}) == ("flush",)
        assert parse_message({"op": "shutdown"}) == ("shutdown",)

    @pytest.mark.parametrize(
        "bad",
        [
            {"op": "reboot"},
            {"items": "abc"},
            {"items": [1.5]},
            {"items": [None]},
            {"items": ["a"], "seq": -1},
            {"items": ["a"], "seq": "x"},
            "just a string",
            42,
            [2**70, "a"],
            {"items": ["a", -(2**63) - 1]},
            [True],
            {"items": ["a", False]},
            [1, 1.0],
            {"items": ["a"], "seq": True},
        ],
    )
    def test_malformed_messages_rejected(self, bad):
        with pytest.raises(ServiceError):
            parse_message(bad)

    def test_signed_64_bit_bounds_accepted(self):
        items = [-(2**63), 2**63 - 1, "x"]
        assert parse_message(items) == ("batch", items, None)

    def test_malformed_json_rejected(self):
        with pytest.raises(ServiceError, match="malformed JSON"):
            decode_payload(b"{nope")

    def test_magic_is_not_valid_json(self):
        """The framed-mode preamble can never be confused with a JSONL line."""
        with pytest.raises(ServiceError):
            decode_payload(MAGIC)


class TestWindowBatches:
    def test_batches_never_straddle(self):
        window = list(range(10))
        batches = list(iter_window_batches(window, 4))
        assert batches == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_bad_batch_size(self):
        with pytest.raises(ServiceError):
            list(iter_window_batches([1], 0))
