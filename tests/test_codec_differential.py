"""Differential and corruption battery for the wire codec.

The codec's frame path (``encode_frame`` -> ``decode_frame_body`` /
``read_frame``) is checked against two references on the full
frame-object vocabulary (the JSON-ready dicts produced by
``encode_message`` / ``encode_batch_frame`` plus the control frames —
hello, ack, error, request/response):

* the stdlib's own ``json.loads(json.dumps(frame))`` — the minified,
  sorted-key body must decode to exactly what plain JSON would, and
* ``WireCodec``, the object form the perf ledger measures — what the
  ledger times must be what the server runs.

The buffered parser every long-lived connection reads with
(``FrameReader``) is held to ``read_frame``'s contract: the same frame
sequence for the same bytes however they are split across reads, ``None``
for a truncated tail, :class:`CodecError` for an oversize length prefix.

Beyond agreement: a truncated body raises :class:`CodecError`, a
bit-flipped body raises :class:`CodecError` or decodes to a ``dict``
(JSON frames carry no checksum; a flipped digit is still a frame) and
never anything else, ``read_frame`` never reads past its frame, and
tuple- and frozenset-keyed payload values come back with hashable keys
(the ``decode_value`` / ``_hashable`` regression).

Payload builders are shared with ``test_cluster_codec`` so a new
message type cannot ship without joining this battery too.
"""

import asyncio
import json
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cluster.codec import (
    MAX_FRAME,
    CodecError,
    FrameReader,
    WireCodec,
    decode_frame_body,
    decode_message,
    decode_value,
    encode_batch_frame,
    encode_frame,
    encode_message,
    encode_value,
    read_frame,
)
from repro.network.message import Message, MessageType
from repro.reconfig import PlacementChange
from repro.types import GlobalTransactionId
from tests.test_cluster_codec import PAYLOADS, _gid

MESSAGE_TYPES = sorted(MessageType, key=lambda t: t.value)


def _message(rng, msg_type):
    return Message(msg_type, rng.randrange(8), rng.randrange(8),
                   PAYLOADS[msg_type](rng))


def _msg_frame(rng, msg_type):
    return {"kind": "msg", "inc": "inc-{}".format(rng.randrange(100)),
            "seq": rng.randrange(10**6),
            "msg": encode_message(_message(rng, msg_type))}


def _batch_frame(rng):
    base = rng.randrange(10**6)
    entries = [(base + i, _message(rng, rng.choice(MESSAGE_TYPES)))
               for i in range(rng.randrange(1, 6))]
    return encode_batch_frame("inc-{}".format(rng.randrange(100)),
                              entries)


def _control_frames(rng):
    """The non-message vocabulary one connection exchanges."""
    return [
        {"kind": "hello", "role": rng.choice(["peer", "client"]),
         "site": rng.randrange(8), "fingerprint": "f" * 16},
        {"kind": "ack", "seq": rng.randrange(10**9)},
        {"kind": "error", "error": "wrong cluster fingerprint",
         "epoch": rng.choice([None, rng.randrange(10)])},
        {"kind": "request", "op": rng.choice(["txn", "status"]),
         "payload": {"reads": [rng.randrange(50)],
                     "writes": encode_value(
                         {rng.randrange(50): rng.randrange(10**6)})}},
        {"kind": "response", "ok": rng.random() < 0.5,
         "result": encode_value({"gid": _gid(rng),
                                 "values": (1, 2.5, None)})},
    ]


def _frame_stream(rng):
    """A realistic connection's worth of frames, in stream order."""
    frames = [_control_frames(rng)[0]]
    for _ in range(rng.randrange(4, 10)):
        roll = rng.random()
        if roll < 0.5:
            frames.append(_msg_frame(rng, rng.choice(MESSAGE_TYPES)))
        elif roll < 0.8:
            frames.append(_batch_frame(rng))
        else:
            frames.append(rng.choice(_control_frames(rng)))
    frames.append({"kind": "ack", "seq": rng.randrange(10**9)})
    return frames


def _assert_agrees(frame):
    """One frame through the codec, against both references."""
    wire = encode_frame(frame)
    decoded = decode_frame_body(wire[4:])
    assert decoded == frame
    assert decoded == json.loads(json.dumps(frame))
    shim = WireCodec()
    assert shim.encode_frame(frame) == wire
    assert shim.decode_body(wire[4:]) == decoded
    return decoded


def _read_all(data):
    """Every frame ``read_frame`` yields from ``data`` until EOF."""
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        frames = []
        while True:
            frame = await read_frame(reader)
            if frame is None:
                return frames
            frames.append(frame)
    return asyncio.run(scenario())


class _ChunkedReader:
    """A stream whose ``read()`` hands out the given chunks in order."""

    def __init__(self, chunks):
        self.chunks = list(chunks)

    async def read(self, _n):
        return self.chunks.pop(0) if self.chunks else b""


def _frame_reader_all(chunks):
    """Every frame ``FrameReader`` yields over ``chunks`` until EOF, and
    the number of ``frames()`` calls that returned some."""
    async def scenario():
        reader = FrameReader(_ChunkedReader(chunks))
        frames, wakeups = [], 0
        while True:
            batch = await reader.frames()
            if batch is None:
                return frames, wakeups
            frames.extend(batch)
            wakeups += 1
    return asyncio.run(scenario())


# ----------------------------------------------------------------------
# Differential equality, every wire op
# ----------------------------------------------------------------------

@pytest.mark.parametrize("msg_type", MESSAGE_TYPES)
@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**32 - 1))
def test_differential_msg_frames(msg_type, seed):
    rng = random.Random(seed)
    frame = _msg_frame(rng, msg_type)
    decoded = _assert_agrees(frame)
    # And the decoded message is the original message.
    original = decode_message(frame["msg"])
    message = decode_message(decoded["msg"])
    assert message.msg_type is original.msg_type
    assert message.payload == original.payload


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1))
def test_differential_batch_and_control_frames(seed):
    rng = random.Random(seed)
    for frame in [_batch_frame(rng)] + _control_frames(rng):
        _assert_agrees(frame)


# Generic frame objects beyond the protocol vocabulary: arbitrary
# JSON-shaped frames (~-prefixed keys, big ints, unicode) agree too.
_scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-2**80, max_value=2**80),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
    st.sampled_from(["kind", "msg", "batch", "~gid", "~map", "seq",
                     "payload", "é~", "x" * 40]))
_json_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=20)


@settings(deadline=None, max_examples=150)
@given(frame=st.dictionaries(st.text(max_size=8), _json_values,
                             max_size=5))
def test_differential_generic_frames(frame):
    _assert_agrees(frame)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1))
def test_stream_decodes_match_json(seed):
    """A connection's frames back to back on one stream come out of
    ``read_frame`` one by one, each equal to its JSON round trip."""
    frames = _frame_stream(random.Random(seed))
    data = b"".join(encode_frame(frame) for frame in frames)
    assert _read_all(data) == [json.loads(json.dumps(frame))
                               for frame in frames]


# ----------------------------------------------------------------------
# The buffered parser: read_frame's frames, however the bytes arrive
# ----------------------------------------------------------------------

@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), cuts=st.lists(
    st.integers(0, 2**31), max_size=12))
def test_frame_reader_matches_read_frame_on_any_split(seed, cuts):
    frames = _frame_stream(random.Random(seed))
    data = b"".join(encode_frame(frame) for frame in frames)
    offsets = sorted({cut % (len(data) + 1) for cut in cuts})
    chunks = [data[a:b] for a, b in
              zip([0] + offsets, offsets + [len(data)]) if b > a]
    assert _frame_reader_all(chunks)[0] == _read_all(data)


def test_frame_reader_one_byte_per_read_and_all_in_one():
    frames = _frame_stream(random.Random(5))
    data = b"".join(encode_frame(frame) for frame in frames)
    expected = _read_all(data)
    assert _frame_reader_all([data[i:i + 1] for i in range(len(data))]
                             )[0] == expected
    # Many frames in one read come out of ONE wake-up.
    assert _frame_reader_all([data]) == (expected, 1)


def test_frame_reader_split_at_every_offset():
    first, second = {"kind": "ack", "seq": 1}, _batch_frame(
        random.Random(9))
    data = encode_frame(first) + encode_frame(second)
    for cut in range(1, len(data)):
        assert _frame_reader_all([data[:cut], data[cut:]])[0] == [
            first, second]


def test_frame_reader_truncated_tail_and_oversize_prefix():
    whole = encode_frame({"kind": "ack", "seq": 7})
    for cut in range(1, len(whole)):
        # The frames before a torn tail are delivered; then EOF.
        assert _frame_reader_all([whole + whole[:cut]])[0] == [
            {"kind": "ack", "seq": 7}]
        assert _read_all(whole + whole[:cut]) == [{"kind": "ack", "seq": 7}]
    oversize = (MAX_FRAME + 1).to_bytes(4, "big")
    with pytest.raises(CodecError):
        _frame_reader_all([oversize])
    with pytest.raises(CodecError):
        _read_all(oversize)


# ----------------------------------------------------------------------
# Corruption: CodecError or a dict, never anything else
# ----------------------------------------------------------------------

def _decode_corrupt(body):
    """``decode_frame_body`` on a damaged body: any outcome other than
    a dict or :class:`CodecError` propagates and fails the test."""
    try:
        decoded = decode_frame_body(body)
    except CodecError:
        return None
    assert isinstance(decoded, dict)
    return decoded


@settings(deadline=None, max_examples=120)
@given(seed=st.integers(0, 2**32 - 1), where=st.integers(0, 2**31),
       bit=st.integers(0, 7))
def test_bit_flips_raise_codec_error(seed, where, bit):
    rng = random.Random(seed)
    body = encode_frame(_msg_frame(rng, rng.choice(MESSAGE_TYPES)))[4:]
    corrupt = bytearray(body)
    corrupt[where % len(body)] ^= 1 << bit
    _decode_corrupt(bytes(corrupt))


@settings(deadline=None, max_examples=120)
@given(seed=st.integers(0, 2**32 - 1), where=st.integers(0, 2**31))
def test_truncation_raises_codec_error(seed, where):
    """Every strict prefix of a minified frame is invalid JSON (the
    object never closes)."""
    body = encode_frame(_batch_frame(random.Random(seed)))[4:]
    with pytest.raises(CodecError):
        decode_frame_body(body[:where % len(body)])


def test_exhaustive_corruption_sweep_small_frame():
    """Every truncation point and every single-bit flip of one real
    ``msg``, ``batch`` and ``ack`` body — the deterministic backstop
    under the fuzz above — and, on a stream, a flipped frame never
    makes ``read_frame`` or ``FrameReader`` consume any of the frame
    behind it."""
    rng = random.Random(11)
    sentinel = {"kind": "ack", "seq": 424242}
    small_batch = encode_batch_frame(
        "inc", [(1, _message(rng, MessageType.LOCK_RELEASE))])
    for frame in (_msg_frame(rng, MessageType.SECONDARY), small_batch,
                  {"kind": "ack", "seq": 17}):
        wire = encode_frame(frame)
        body = wire[4:]
        for cut in range(len(body)):
            with pytest.raises(CodecError):
                decode_frame_body(body[:cut])
        for pos in range(len(body)):
            for bit in range(8):
                corrupt = bytearray(body)
                corrupt[pos] ^= 1 << bit
                _decode_corrupt(bytes(corrupt))
        # The stream half, at every byte (one flip each keeps it fast).
        for pos in range(len(body)):
            corrupt = bytearray(wire)
            corrupt[4 + pos] ^= 0x01
            stream = bytes(corrupt) + encode_frame(sentinel)
            for read_all in (_read_all,
                             lambda data: _frame_reader_all([data])[0]):
                try:
                    frames = read_all(stream)
                except CodecError:
                    continue
                assert len(frames) == 2 and frames[1] == sentinel


def test_garbage_and_wrong_version_raise():
    """Anything that is not a UTF-8 JSON object is a malformed frame —
    including a body that opens with 0xB1, the magic of the binary
    format this codec once also spoke (any version byte)."""
    for body in (b"", b"\xb1", b"\xb1\x01", b"\xb1\x01\x03\x05",
                 b"\xb1\x02" + b"\x00" * 16, b"\x00" * 24,
                 b"not json at all", b"\xff\xfe{}", b"[1,2]", b'"text"',
                 b"17", b"null", b"true"):
        with pytest.raises(CodecError):
            decode_frame_body(body)
        with pytest.raises(CodecError):
            _read_all(len(body).to_bytes(4, "big") + body)


# ----------------------------------------------------------------------
# Tuple / frozenset keys (decode_value + _hashable regression)
# ----------------------------------------------------------------------

TRICKY_PAYLOADS = [
    {"table": {(1, frozenset({2, 3})): "v",
               (GlobalTransactionId(0, 1), (2,)): 5}},
    {"index": {frozenset({GlobalTransactionId(1, 2)}): [1, 2]}},
    {"sets": {frozenset({(1, 2), (3, 4)}),
              frozenset()}},
    {"nested": {((1, (2, frozenset({3}))),): {"deep": True}}},
    # Epoch-commit gossip: the change carries its install already in
    # tagged form, so the payload codec escapes the tags once more.
    {"epoch": 2, "change": PlacementChange(
        kind="add-replica", site=1, item=3, install=[{
            "item": 3, "value": encode_value((1, frozenset({2}))),
            "version": 2, "writers": [[0, 1], [0, 4]]}]).to_json()},
]


@pytest.mark.parametrize("payload", TRICKY_PAYLOADS,
                         ids=["tuple-keys", "frozenset-key",
                              "set-of-frozensets", "nested-tuple-key",
                              "reconfig-install"])
def test_tuple_and_frozenset_keys_survive_both_codecs(payload):
    """Through both codec layers: the value codec (tagged ``~map`` /
    ``~set`` / ``~tuple`` forms) and the frame codec (JSON text)."""
    message = Message(MessageType.RECONFIG, 0, 1, payload)
    frame = {"kind": "msg", "inc": "i", "seq": 1,
             "msg": encode_message(message)}
    decoded = decode_frame_body(encode_frame(frame)[4:])
    got = decode_message(decoded["msg"]).payload
    assert got == payload
    # Keys came back hashable: membership must work.
    for value in got.values():
        if isinstance(value, dict):
            for key in value:
                assert key in value


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_hashable_keyed_maps_round_trip(seed):
    rng = random.Random(seed)

    def key(depth=0):
        kind = rng.choice(["int", "gid", "tuple", "fset"]
                          if depth < 2 else ["int", "gid"])
        if kind == "int":
            return rng.randrange(100)
        if kind == "gid":
            return _gid(rng)
        if kind == "tuple":
            return tuple(key(depth + 1)
                         for _ in range(rng.randrange(1, 3)))
        return frozenset(key(depth + 1)
                         for _ in range(rng.randrange(2)))

    original = {key(): rng.randrange(1000)
                for _ in range(rng.randrange(1, 5))}
    frame = {"kind": "x", "v": encode_value(original)}
    decoded = decode_frame_body(encode_frame(frame)[4:])
    assert decode_value(decoded["v"]) == original
