"""Wire codec: every value the protocols put in a message payload, as JSON.

The live transport, the durable WAL and the client RPC plane all share
one encoding so a message captured on the wire is replayable against the
simulator's types.  JSON alone cannot express the payload vocabulary —
:class:`~repro.types.GlobalTransactionId` values, ``dict``s keyed by
item/site ids, enums, tuples and sets — so those are wrapped in small
tagged objects:

- ``{"~gid": [site, seq]}`` — a :class:`GlobalTransactionId`;
- ``{"~map": [[key, value], ...]}`` — a dict with non-string keys;
- ``{"~set": [...]}`` — a set or frozenset (encoded sorted);
- ``{"~tuple": [...]}`` — a tuple;
- ``{"~enum": "message-type-or-kind-value"}`` — never needed for payload
  *values* today, reserved;
- anything whose first key starts with ``"~"`` is escaped as
  ``{"~obj": {...}}``.

Frames on a TCP stream are a 4-byte big-endian length followed by a
UTF-8 JSON object, minified with sorted keys.  That is the only body
encoding: a body that is not a JSON object raises :class:`CodecError`.
There is no frame checksum — wire integrity is TCP's; the durable
copies (WAL, inbox journal) carry their own per-record CRC32.

:class:`FrameReader` / :class:`FrameWriter` carry every long-lived
connection; :func:`read_frame` / :func:`write_frame` the handshake.
"""

from __future__ import annotations

import asyncio
import json
import struct
import time
import typing

from repro.network.message import Message, MessageType
from repro.types import GlobalTransactionId

#: Hard cap on one frame (16 MiB) — a corrupt length prefix must not
#: make the reader allocate unbounded memory.
MAX_FRAME = 16 * 1024 * 1024

_LENGTH = struct.Struct(">I")

#: ``obj -> str``, minified, keys in insertion order: the one pre-built
#: encoder for everything serialized per record rather than per frame
#: (log lines, ``status`` history rows).  ``json.dumps`` with keyword
#: arguments builds a new ``JSONEncoder`` on every call.
compact_json = json.JSONEncoder(separators=(",", ":")).encode


class CodecError(ValueError):
    """A value that cannot be encoded, or a malformed wire object."""


# ----------------------------------------------------------------------
# Value encoding
# ----------------------------------------------------------------------

def encode_value(value: typing.Any) -> typing.Any:
    """Lower ``value`` to JSON-representable form (see module doc)."""
    if isinstance(value, GlobalTransactionId):
        return {"~gid": [value.site, value.seq]}
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        encoded = [encode_value(item) for item in value]
        return {"~tuple": encoded} if isinstance(value, tuple) else encoded
    if isinstance(value, (set, frozenset)):
        return {"~set": sorted((encode_value(item) for item in value),
                               key=repr)}
    if isinstance(value, dict):
        if all(isinstance(key, str) for key in value):
            plain = {key: encode_value(item)
                     for key, item in value.items()}
            if any(key.startswith("~") for key in value):
                return {"~obj": plain}
            return plain
        return {"~map": [[encode_value(key), encode_value(item)]
                         for key, item in value.items()]}
    raise CodecError("cannot encode {!r} ({})".format(
        value, type(value).__name__))


def decode_value(value: typing.Any) -> typing.Any:
    """Invert :func:`encode_value`."""
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    if not isinstance(value, dict):
        return value
    if "~gid" in value:
        site, seq = value["~gid"]
        return GlobalTransactionId(site, seq)
    if "~map" in value:
        return {_hashable(decode_value(key)): decode_value(item)
                for key, item in value["~map"]}
    if "~set" in value:
        return {_hashable(decode_value(item)) for item in value["~set"]}
    if "~tuple" in value:
        return tuple(decode_value(item) for item in value["~tuple"])
    if "~obj" in value:
        return {key: decode_value(item)
                for key, item in value["~obj"].items()}
    return {key: decode_value(item) for key, item in value.items()}


def _hashable(value: typing.Any) -> typing.Any:
    """Deep-convert a decoded value into a hashable equivalent.

    ``~map`` keys and ``~set`` members must be hashable after decoding,
    but the tagged forms they decode from may contain lists (JSON's
    only sequence) and sets (which decode mutable).  Lists become
    tuples and sets become frozensets, recursively — including inside
    tuples, so a ``(1, {2})`` key decodes to ``(1, frozenset({2}))``
    instead of raising ``TypeError``."""
    if isinstance(value, list):
        return tuple(_hashable(item) for item in value)
    if isinstance(value, tuple):
        return tuple(_hashable(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return frozenset(_hashable(item) for item in value)
    return value


# ----------------------------------------------------------------------
# Message encoding
# ----------------------------------------------------------------------

def encode_message(message: Message) -> typing.Dict[str, typing.Any]:
    """One :class:`Message` as a JSON-ready dict."""
    return {
        "type": message.msg_type.value,
        "src": message.src,
        "dst": message.dst,
        "id": message.msg_id,
        "payload": {key: encode_value(value)
                    for key, value in message.payload.items()},
    }


def decode_message(obj: typing.Mapping[str, typing.Any]) -> Message:
    """Invert :func:`encode_message` (the msg_id is preserved)."""
    try:
        msg_type = MessageType(obj["type"])
        payload = {key: decode_value(value)
                   for key, value in obj["payload"].items()}
        return Message(msg_type, int(obj["src"]), int(obj["dst"]),
                       payload, msg_id=int(obj["id"]))
    except (KeyError, ValueError, TypeError) as exc:
        raise CodecError("malformed message object: {}".format(exc)) \
            from None


# ----------------------------------------------------------------------
# Batch frames
# ----------------------------------------------------------------------
#
# The one peer data frame: ``{"kind": "batch", "inc": <incarnation>,
# "msgs": [{"seq": n, "msg": {...}}, ...]}`` carries one or more
# consecutive channel messages.  Entries keep the channel's sequence
# numbering — the receiver dedups each ``(src, inc, seq)`` and replies
# with ONE cumulative ack for the last entry, so how many messages
# share a frame changes the syscall count, never the FIFO/dedup
# contract.


def encode_batch_frame(incarnation: str,
                       entries: typing.Iterable[
                           typing.Tuple[int, Message]]
                       ) -> typing.Dict[str, typing.Any]:
    """A ``batch`` frame object from ``(seq, message)`` pairs."""
    return {"kind": "batch", "inc": incarnation,
            "msgs": [{"seq": int(seq), "msg": encode_message(message)}
                     for seq, message in entries]}


def decode_batch_frame(obj: typing.Mapping[str, typing.Any]
                       ) -> typing.Tuple[
                           str, typing.List[typing.Tuple[int, Message]]]:
    """Invert :func:`encode_batch_frame` -> ``(incarnation, entries)``.

    Raises :class:`CodecError` on anything structurally malformed; an
    empty ``msgs`` list is valid and decodes to no entries.
    """
    if obj.get("kind") != "batch":
        raise CodecError("not a batch frame: {!r}".format(
            obj.get("kind")))
    msgs = obj.get("msgs")
    if not isinstance(msgs, list):
        raise CodecError("batch frame without a msgs list")
    entries: typing.List[typing.Tuple[int, Message]] = []
    for item in msgs:
        if not isinstance(item, dict):
            raise CodecError("batch entry is not an object")
        try:
            seq = int(item["seq"])
            message = decode_message(item["msg"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CodecError(
                "malformed batch entry: {}".format(exc)) from None
        entries.append((seq, message))
    return str(obj.get("inc", "")), entries


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------

def encode_frame(obj: typing.Mapping[str, typing.Any]) -> bytes:
    """Length-prefixed JSON frame."""
    body = json.dumps(obj, separators=(",", ":"),
                      sort_keys=True).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise CodecError("frame too large ({} bytes)".format(len(body)))
    return _LENGTH.pack(len(body)) + body


def encode_frame_chunks(head: typing.Mapping[str, typing.Any], key: str,
                        rows: typing.Sequence[bytes]
                        ) -> typing.List[bytes]:
    """The frame of ``head`` (not empty) plus one more member, ``key``,
    whose value is the JSON array of the already-encoded ``rows`` — as
    a list of byte chunks for ``writer.writelines``.

    For a reply dominated by one long list (``status`` and its
    history): the rows are encoded one at a time by the caller and
    never exist as one list of lowered dicts, one ``str`` and one
    ``bytes`` on top of the chunks themselves.  Decodes like any other
    frame."""
    chunks = [b"", encode_frame(head)[_LENGTH.size:-1],
              b',"%s":[' % key.encode("ascii")]
    for row in rows:
        chunks.append(row)
        chunks.append(b",")
    if rows:
        chunks.pop()
    chunks.append(b"]}")
    length = sum(map(len, chunks))
    if length > MAX_FRAME:
        raise CodecError("frame too large ({} bytes)".format(length))
    chunks[0] = _LENGTH.pack(length)
    return chunks


def decode_frame_body(body: bytes) -> typing.Dict[str, typing.Any]:
    try:
        obj = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CodecError("malformed frame: {}".format(exc)) from None
    if not isinstance(obj, dict):
        raise CodecError("frame is not an object")
    return obj


# Read by benchmarks/ledger (layers.py, traced_site.py) only, not by src/.
class WireCodec:
    """:func:`encode_frame` / :func:`decode_frame_body` as methods; the
    format name is accepted and ignored."""

    def __init__(self, fmt: str = "json"):
        pass

    def encode_frame(self, obj: typing.Mapping[str, typing.Any]
                     ) -> bytes:
        return encode_frame(obj)

    def decode_body(self, body: bytes) -> typing.Dict[str, typing.Any]:
        return decode_frame_body(body)


async def read_frame(reader: asyncio.StreamReader
                     ) -> typing.Optional[typing.Dict[str, typing.Any]]:
    """Read one frame; ``None`` on clean EOF or a truncated tail.  It
    never reads past its frame: a :class:`FrameReader` can take over."""
    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME:
        raise CodecError("frame length {} exceeds cap".format(length))
    try:
        body = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    return decode_frame_body(body)


async def write_frame(writer: asyncio.StreamWriter,
                      obj: typing.Mapping[str, typing.Any]) -> None:
    """Write one frame and drain (``hello``, the handshake ``error``)."""
    writer.write(encode_frame(obj))
    await writer.drain()


_Timer = typing.Optional[typing.Callable[[float], typing.Any]]

#: Bytes buffered toward one peer (queued frames plus the transport's
#: write buffer) above which :meth:`FrameWriter.drain` waits.  Not a knob.
HIGH_WATER = 64 * 1024


class FrameReader:
    """One ``read()`` per wake-up: :meth:`frames` decodes every complete
    frame buffered, on :func:`read_frame`'s contract.  ``on_decode``
    observes each decode's seconds."""

    def __init__(self, reader: asyncio.StreamReader,
                 on_decode: _Timer = None):
        self._reader = reader
        self._on_decode = on_decode
        self._buf = bytearray()

    async def frames(self) -> typing.Optional[
            typing.List[typing.Dict[str, typing.Any]]]:
        buf = self._buf
        while True:
            frames, pos = [], 0
            while len(buf) - pos >= _LENGTH.size:
                (length,) = _LENGTH.unpack_from(buf, pos)
                if length > MAX_FRAME:
                    raise CodecError(
                        "frame length {} exceeds cap".format(length))
                end = pos + _LENGTH.size + length
                if end > len(buf):
                    break
                started = time.perf_counter()
                frames.append(decode_frame_body(buf[end - length:end]))
                if self._on_decode is not None:
                    self._on_decode(time.perf_counter() - started)
                pos = end
            del buf[:pos]
            if frames:
                return frames
            try:
                data = await self._reader.read(MAX_FRAME)
            except ConnectionError:
                data = b""
            if not data:
                return None
            buf += data


class FrameWriter:
    """Frames queue until :meth:`flush` hands them all to the transport
    in one ``writelines`` — now, or at the end of the loop tick
    (:meth:`flush_soon`) so that every frame the tick queues joins.
    Writing never awaits; :meth:`drain` waits only above
    :data:`HIGH_WATER`.  ``on_encode`` / ``on_write`` observe each
    encode's and each flush's seconds."""

    def __init__(self, writer: asyncio.StreamWriter,
                 on_encode: _Timer = None, on_write: _Timer = None):
        self.writer = writer
        self._on_encode = on_encode
        self._on_write = on_write
        self._loop = asyncio.get_running_loop()
        self._chunks: typing.List[bytes] = []
        self._pending = 0
        self._scheduled = False

    def write(self, obj: typing.Mapping[str, typing.Any]) -> None:
        started = time.perf_counter()
        data = encode_frame(obj)
        if self._on_encode is not None:
            self._on_encode(time.perf_counter() - started)
        self.write_chunks((data,))

    def write_chunks(self, chunks: typing.Sequence[bytes]) -> None:
        """Queue one frame already encoded (:func:`encode_frame_chunks`)."""
        self._chunks.extend(chunks)
        self._pending += sum(map(len, chunks))

    def flush_soon(self) -> None:
        if not self._scheduled:
            self._scheduled = True
            self._loop.call_soon(self.flush)

    def flush(self) -> None:
        chunks, self._chunks, self._pending = self._chunks, [], 0
        self._scheduled = False
        if chunks and not self.writer.is_closing():
            started = time.perf_counter()
            self.writer.writelines(chunks)
            if self._on_write is not None:
                self._on_write(time.perf_counter() - started)

    async def drain(self) -> None:
        """Backpressure: bounds memory toward a peer that stops reading."""
        if self._pending + self.writer.transport.get_write_buffer_size() \
                > HIGH_WATER:
            self.flush()
            await self.writer.drain()

    async def close(self) -> None:
        self.flush()
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
