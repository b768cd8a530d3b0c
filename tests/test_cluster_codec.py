"""Wire-codec round trips: every message type, seeded random payloads.

The live cluster serializes whatever the protocols put on the simulated
network, so the codec must invert exactly on the full payload
vocabulary.  Payload builders below follow the per-type conventions
documented on :class:`repro.network.message.MessageType`, and a
coverage test pins the builder table to the enum so a new message type
cannot ship without a round-trip test.
"""

import asyncio
import json
import random

import pytest

from repro.cluster.codec import (
    CodecError,
    decode_batch_frame,
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
from repro.types import GlobalTransactionId


def _gid(rng):
    return GlobalTransactionId(rng.randrange(8), rng.randrange(1000))


def _writes(rng):
    return {rng.randrange(50): rng.randrange(10**6)
            for _ in range(rng.randrange(1, 6))}


def _participants(rng):
    return {rng.randrange(8) for _ in range(rng.randrange(1, 4))}


#: MessageType -> payload builder, per the conventions on MessageType.
PAYLOADS = {
    MessageType.SECONDARY: lambda rng: {
        "gid": _gid(rng), "writes": _writes(rng),
        "origin": rng.randrange(8), "commit_time": rng.random() * 10,
        "timestamp": rng.random() * 10},
    MessageType.DUMMY: lambda rng: {"timestamp": rng.random() * 10},
    MessageType.BACKEDGE: lambda rng: {
        "gid": _gid(rng), "writes": _writes(rng),
        "origin": rng.randrange(8),
        "participants": _participants(rng)},
    MessageType.SPECIAL: lambda rng: {
        "gid": _gid(rng), "writes": _writes(rng),
        "origin": rng.randrange(8), "commit_time": rng.random() * 10,
        "participants": _participants(rng)},
    MessageType.LOCK_REQUEST: lambda rng: {
        "gid": _gid(rng), "item": rng.randrange(50),
        "request_id": rng.randrange(10**6)},
    MessageType.LOCK_GRANT: lambda rng: {
        "gid": _gid(rng), "item": rng.randrange(50),
        "value": rng.randrange(10**6), "version": rng.randrange(20),
        "request_id": rng.randrange(10**6)},
    MessageType.LOCK_DENIED: lambda rng: {
        "gid": _gid(rng), "item": rng.randrange(50),
        "request_id": rng.randrange(10**6), "reason": "timeout"},
    MessageType.LOCK_RELEASE: lambda rng: {"gid": _gid(rng)},
    MessageType.PREPARE: lambda rng: {"gid": _gid(rng)},
    MessageType.VOTE: lambda rng: {
        "gid": _gid(rng), "commit": rng.random() < 0.5},
    MessageType.DECISION: lambda rng: {
        "gid": _gid(rng), "commit": rng.random() < 0.5},
    MessageType.ABORT_SUBTXN: lambda rng: {
        "gid": _gid(rng), "reason": "global-deadlock"},
    MessageType.EAGER_WRITE: lambda rng: {
        "gid": _gid(rng), "item": rng.randrange(50),
        "value": rng.randrange(10**6),
        "request_id": rng.randrange(10**6)},
    MessageType.EAGER_WRITE_DONE: lambda rng: {
        "gid": _gid(rng), "item": rng.randrange(50),
        "request_id": rng.randrange(10**6),
        "ok": rng.random() < 0.5},
    MessageType.WOUND: lambda rng: {
        "gid": _gid(rng), "reason": "remote-wound"},
    MessageType.RECONFIG: lambda rng: {
        "epoch": rng.randrange(1, 10),
        "change": {"kind": rng.choice(
            ["add-replica", "drop-replica", "migrate-primary"]),
            "site": rng.randrange(8), "item": rng.randrange(40)}},
}


def test_every_message_type_has_a_payload_builder():
    assert set(PAYLOADS) == set(MessageType)


@pytest.mark.parametrize("msg_type", sorted(MessageType,
                                            key=lambda t: t.value))
def test_message_round_trip(msg_type):
    rng = random.Random(hash(msg_type.value) & 0xFFFF)
    for _ in range(25):
        message = Message(msg_type, rng.randrange(8), rng.randrange(8),
                          PAYLOADS[msg_type](rng))
        # Through real JSON text, exactly as the wire does it.
        wire = json.loads(json.dumps(encode_message(message)))
        decoded = decode_message(wire)
        assert decoded.msg_type is message.msg_type
        assert decoded.src == message.src
        assert decoded.dst == message.dst
        assert decoded.msg_id == message.msg_id
        assert decoded.payload == message.payload


@pytest.mark.parametrize("seed", range(10))
def test_random_nested_value_round_trip(seed):
    rng = random.Random(seed)

    def value(depth=0):
        choices = ["int", "float", "str", "bool", "none", "gid"]
        if depth < 3:
            choices += ["list", "tuple", "set", "strmap", "intmap"]
        kind = rng.choice(choices)
        if kind == "int":
            return rng.randrange(-10**9, 10**9)
        if kind == "float":
            return rng.randrange(10**6) / 128.0
        if kind == "str":
            return "".join(rng.choice("ab~[]{}é")
                           for _ in range(rng.randrange(8)))
        if kind == "bool":
            return rng.random() < 0.5
        if kind == "none":
            return None
        if kind == "gid":
            return _gid(rng)
        if kind == "list":
            return [value(depth + 1) for _ in range(rng.randrange(4))]
        if kind == "tuple":
            return tuple(value(depth + 1)
                         for _ in range(rng.randrange(4)))
        if kind == "set":
            return {rng.randrange(100) for _ in range(rng.randrange(4))}
        if kind == "strmap":
            return {"~tilde" if rng.random() < 0.3
                    else "k{}".format(i): value(depth + 1)
                    for i in range(rng.randrange(4))}
        return {(rng.randrange(100), _gid(rng))[rng.randrange(2)]:
                value(depth + 1) for _ in range(rng.randrange(4))}

    for _ in range(50):
        original = value()
        assert decode_value(json.loads(json.dumps(
            encode_value(original)))) == original


def test_tagged_forms_are_distinguished():
    cases = [
        (0, 1),                       # tuple, not list
        [0, 1],
        {0, 1},                       # set
        {"~gid": "escaped"},          # dict whose key collides with a tag
        {GlobalTransactionId(1, 2): {3: (4, {5})}},
        {"plain": {"~map": "escaped-too"}},
    ]
    for original in cases:
        round_tripped = decode_value(json.loads(json.dumps(
            encode_value(original))))
        assert round_tripped == original
        assert type(round_tripped) is type(original)


def test_unencodable_value_raises():
    with pytest.raises(CodecError):
        encode_value(object())


@pytest.mark.parametrize("seed", range(8))
def test_batch_frame_round_trip_mixed_types(seed):
    """A batch frame must round-trip any mix of message types with
    their per-channel sequence numbers — through real JSON text, as on
    the wire."""
    rng = random.Random(seed)
    types = sorted(MessageType, key=lambda t: t.value)
    for _ in range(10):
        seq = rng.randrange(1, 1000)
        entries = []
        for _ in range(rng.randrange(1, 9)):
            msg_type = rng.choice(types)
            entries.append((seq, Message(
                msg_type, rng.randrange(8), rng.randrange(8),
                PAYLOADS[msg_type](rng))))
            seq += 1
        frame = json.loads(json.dumps(
            encode_batch_frame("inc-{}".format(seed), entries)))
        incarnation, decoded = decode_batch_frame(frame)
        assert incarnation == "inc-{}".format(seed)
        assert [s for s, _ in decoded] == [s for s, _ in entries]
        for (_, got), (_, sent) in zip(decoded, entries):
            assert got.msg_type is sent.msg_type
            assert got.src == sent.src and got.dst == sent.dst
            assert got.msg_id == sent.msg_id
            assert got.payload == sent.payload


def test_batch_frame_empty_and_singleton():
    # Empty is legal (decodes to no entries) — a receiver must not
    # treat it as malformed, it simply acks nothing.
    incarnation, entries = decode_batch_frame(json.loads(json.dumps(
        encode_batch_frame("inc-e", []))))
    assert incarnation == "inc-e" and entries == []
    # A singleton batch carries the same data a "msg" frame would.
    message = Message(MessageType.SECONDARY, 0, 1,
                      PAYLOADS[MessageType.SECONDARY](random.Random(7)))
    _, [(seq, decoded)] = decode_batch_frame(json.loads(json.dumps(
        encode_batch_frame("inc-s", [(42, message)]))))
    assert seq == 42
    assert decoded.payload == message.payload


def test_batch_frame_malformed_shapes_raise():
    good = Message(MessageType.DUMMY, 0, 1, {"timestamp": 1.0})
    cases = [
        {"kind": "msg", "inc": "x", "msgs": []},          # wrong kind
        {"kind": "batch", "inc": "x"},                    # no msgs
        {"kind": "batch", "inc": "x", "msgs": "nope"},    # not a list
        {"kind": "batch", "inc": "x", "msgs": [17]},      # not objects
        {"kind": "batch", "inc": "x",
         "msgs": [{"seq": 1}]},                           # no msg
        {"kind": "batch", "inc": "x",
         "msgs": [{"msg": encode_message(good)}]},        # no seq
        {"kind": "batch", "inc": "x",
         "msgs": [{"seq": "abc",
                   "msg": encode_message(good)}]},        # bad seq
        {"kind": "batch", "inc": "x",
         "msgs": [{"seq": 1, "msg": {"type": "???"}}]},   # bad message
    ]
    for frame in cases:
        with pytest.raises(CodecError):
            decode_batch_frame(frame)


def test_frame_round_trip_and_cap():
    frame = encode_frame({"kind": "msg", "seq": 7})
    assert decode_frame_body(frame[4:]) == {"kind": "msg", "seq": 7}
    with pytest.raises(CodecError):
        encode_frame({"pad": "x" * (17 * 1024 * 1024)})
    with pytest.raises(CodecError):
        decode_frame_body(b"\xff\xfe not json")


def test_read_frame_streaming_and_eof():
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(encode_frame({"a": 1}) +
                         encode_frame({"b": [1, 2]}))
        reader.feed_eof()
        first = await read_frame(reader)
        second = await read_frame(reader)
        third = await read_frame(reader)
        return first, second, third

    first, second, third = asyncio.run(scenario())
    assert first == {"a": 1}
    assert second == {"b": [1, 2]}
    assert third is None


def test_read_frame_truncated_body_is_eof():
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(encode_frame({"a": 1})[:-2])
        reader.feed_eof()
        return await read_frame(reader)

    assert asyncio.run(scenario()) is None
