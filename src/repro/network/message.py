"""Typed messages exchanged between sites.

Payloads are plain dicts; the message *type* determines which keys are
present.  The conventions per type are documented on
:class:`MessageType`.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import typing

from repro.types import SiteId

_msg_counter = itertools.count(1)


class MessageType(enum.Enum):
    """All message kinds used by the protocols in :mod:`repro.core`.

    Lazy propagation (DAG(WT), DAG(T), BackEdge step 4):

    - ``SECONDARY`` — a committed primary's updates.  Payload:
      ``gid``, ``writes`` (item -> value), ``timestamp`` (DAG(T) only),
      ``origin`` (site the primary ran at), ``commit_time``.
    - ``DUMMY`` — DAG(T) heartbeat carrying only a timestamp (Sec. 3.3).

    BackEdge protocol (Sec. 4.1):

    - ``BACKEDGE`` — a backedge subtransaction sent directly to the
      farthest ancestor.  Payload: ``gid``, ``writes``, ``origin``,
      ``participants`` (the backedge sites).
    - ``SPECIAL`` — the special secondary subtransaction relayed down the
      tree toward the origin.  Payload as ``SECONDARY`` plus
      ``participants``.

    Primary-site locking (Sec. 5.1):

    - ``LOCK_REQUEST`` — remote shared-lock request.  Payload: ``gid``,
      ``item``, ``request_id``.
    - ``LOCK_GRANT`` — grant + current value.  Payload: ``gid``, ``item``,
      ``value``, ``version``, ``request_id``.
    - ``LOCK_DENIED`` — the remote wait timed out at the primary site.
    - ``LOCK_RELEASE`` — release all locks held at the destination on
      behalf of ``gid``.

    Distributed atomic commit (BackEdge step 3, eager baseline):

    - ``PREPARE`` / ``VOTE`` / ``DECISION`` — two-phase commit rounds.
      ``VOTE`` payload has ``commit`` (bool); ``DECISION`` likewise.
    - ``ABORT_SUBTXN`` — roll back the destination's subtransaction of
      ``gid`` (global-deadlock victim cleanup).

    Eager baseline:

    - ``EAGER_WRITE`` — apply a write at a replica within the transaction.
      Payload: ``gid``, ``item``, ``value``, ``request_id``.
    - ``EAGER_WRITE_DONE`` — acknowledgement (or refusal on timeout).

    Cluster runtime control plane (:mod:`repro.cluster`, handled by the
    :class:`SiteServer` rather than by a protocol):

    - ``WOUND`` — wound the primary of ``gid`` registered at the
      destination (the cross-process form of the victim policy's direct
      registry wound).  Payload: ``gid``, ``reason``.
    - ``RECONFIG`` — epoch-commit gossip (:mod:`repro.reconfig`): a
      peer that committed epoch ``epoch`` tells the others — the one
      way a member that missed the commit catches up.  Payload:
      ``epoch``, ``change`` (:class:`repro.reconfig.PlacementChange`
      JSON, with its ``install`` state only for a peer that gains a
      copy).  Sent at the sender's commit, before any update of the
      new epoch, so on every FIFO channel the install arrives first.
      Idempotent at the receiver.
    """

    SECONDARY = "secondary"
    DUMMY = "dummy"
    BACKEDGE = "backedge"
    SPECIAL = "special"
    LOCK_REQUEST = "lock-request"
    LOCK_GRANT = "lock-grant"
    LOCK_DENIED = "lock-denied"
    LOCK_RELEASE = "lock-release"
    PREPARE = "prepare"
    VOTE = "vote"
    DECISION = "decision"
    ABORT_SUBTXN = "abort-subtxn"
    EAGER_WRITE = "eager-write"
    EAGER_WRITE_DONE = "eager-write-done"
    WOUND = "wound"
    RECONFIG = "reconfig"


@dataclasses.dataclass
class Message:
    """One network message."""

    msg_type: MessageType
    src: SiteId
    dst: SiteId
    payload: typing.Dict[str, typing.Any]
    msg_id: int = dataclasses.field(
        default_factory=lambda: next(_msg_counter))
    send_time: typing.Optional[float] = None
    deliver_time: typing.Optional[float] = None

    def __repr__(self):
        return "<Msg #{} {} s{}->s{}>".format(
            self.msg_id, self.msg_type.value, self.src, self.dst)
