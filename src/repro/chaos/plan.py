"""Seeded, serializable fault scripts and their live injector.

A :class:`FaultPlan` is a JSON-serializable script of three event
kinds:

``link``
    A standing perturbation of outbound frames on matching channels:
    fixed ``delay`` plus seeded ``jitter``, probabilistic ``drop``
    (frame lost before its bytes are written; the connection is
    severed and the reconnect machinery resends), ``ack_loss`` (frame
    written, then the connection severed so the ack is lost; the
    resend is dropped by receiver dedup) and ``reorder`` (an extra,
    larger delay that perturbs *inter-channel* arrival order —
    within-channel order is untouchable by construction, because the
    paper's Sec. 1.1 fault model assumes reliable FIFO channels and
    the transport's dedup would turn a within-channel swap into
    message loss).
``kill``
    SIGKILL-equivalent crash of one site at ``at`` seconds into the
    workload, restarted ``down_for`` seconds later from its WAL.
``corrupt``
    Damage to the killed site's WAL or inbox journal while it is down:
    a single-bit flip at a chosen offset (out-of-model damage — the
    record checksums must refuse the file) or a torn tail (in-model
    crash damage — reload must silently repair it).  A ``corrupt``
    event applies at the next ``kill`` of the same site and is a no-op
    without one.

Every probabilistic decision is a pure function of ``(plan seed, kind,
src, dst, seq, attempt)``, so the same seed and script replay the same
injections — byte for byte in the recorded injection log — regardless
of wall-clock timing.  The injector never touches frame contents: an
empty plan leaves the wire byte-identical to running with no plan.
"""

from __future__ import annotations

import dataclasses
import hashlib
import typing

#: Smallest extra delay a reorder decision adds (seconds) — enough to
#: overtake same-instant frames on sibling channels.
REORDER_FLOOR_S = 0.02


@dataclasses.dataclass(frozen=True)
class LinkFault:
    """Standing perturbation of channels matching ``src -> dst``
    (``None`` is a wildcard)."""

    src: typing.Optional[int] = None
    dst: typing.Optional[int] = None
    #: Fixed per-frame delay, seconds.
    delay: float = 0.0
    #: Seeded uniform extra delay in ``[0, jitter)``, seconds.
    jitter: float = 0.0
    #: Probability a frame attempt is dropped before its write.
    drop: float = 0.0
    #: Probability a written frame's ack is lost.
    ack_loss: float = 0.0
    #: Probability of an extra inter-channel reorder delay.
    reorder: float = 0.0

    def matches(self, src: int, dst: int) -> bool:
        return (self.src is None or self.src == src) and \
            (self.dst is None or self.dst == dst)

    def to_json(self) -> typing.Dict[str, typing.Any]:
        return {"kind": "link", "src": self.src, "dst": self.dst,
                "delay": self.delay, "jitter": self.jitter,
                "drop": self.drop, "ack_loss": self.ack_loss,
                "reorder": self.reorder}


@dataclasses.dataclass(frozen=True)
class KillFault:
    """Crash ``site`` at ``at`` seconds, restart ``down_for`` later."""

    site: int
    at: float
    down_for: float = 0.5

    def to_json(self) -> typing.Dict[str, typing.Any]:
        return {"kind": "kill", "site": self.site, "at": self.at,
                "down_for": self.down_for}


@dataclasses.dataclass(frozen=True)
class CorruptFault:
    """Damage ``site``'s log while it is down (at its next kill)."""

    site: int
    #: ``"wal"`` or ``"journal"`` (the ``.inbox`` file).
    target: str = "wal"
    #: ``"bitflip"`` (must be detected) or ``"torn"`` (must repair).
    mode: str = "bitflip"
    #: Byte offset of the damage; negative counts from the end.
    offset: int = -4
    #: Bit to flip (``bitflip`` mode only).
    bit: int = 2

    def to_json(self) -> typing.Dict[str, typing.Any]:
        return {"kind": "corrupt", "site": self.site,
                "target": self.target, "mode": self.mode,
                "offset": self.offset, "bit": self.bit}


def event_from_json(obj: typing.Mapping[str, typing.Any]):
    kind = obj.get("kind")
    if kind == "link":
        return LinkFault(
            src=obj.get("src"), dst=obj.get("dst"),
            delay=float(obj.get("delay", 0.0)),
            jitter=float(obj.get("jitter", 0.0)),
            drop=float(obj.get("drop", 0.0)),
            ack_loss=float(obj.get("ack_loss", 0.0)),
            reorder=float(obj.get("reorder", 0.0)))
    if kind == "kill":
        return KillFault(site=int(obj["site"]), at=float(obj["at"]),
                         down_for=float(obj.get("down_for", 0.5)))
    if kind == "corrupt":
        return CorruptFault(site=int(obj["site"]),
                            target=obj.get("target", "wal"),
                            mode=obj.get("mode", "bitflip"),
                            offset=int(obj.get("offset", -4)),
                            bit=int(obj.get("bit", 2)))
    raise ValueError("unknown fault event kind {!r}".format(kind))


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A seeded, serializable fault script."""

    seed: int = 0
    events: typing.Tuple = ()

    def validate(self, n_sites: typing.Optional[int] = None
                 ) -> "FaultPlan":
        for event in self.events:
            if isinstance(event, LinkFault):
                for name in ("drop", "ack_loss", "reorder"):
                    p = getattr(event, name)
                    if not 0.0 <= p <= 1.0:
                        raise ValueError(
                            "link {} probability {} outside [0, 1]"
                            .format(name, p))
                if event.delay < 0 or event.jitter < 0:
                    raise ValueError("negative link delay/jitter")
            elif isinstance(event, KillFault):
                if event.at < 0 or event.down_for < 0:
                    raise ValueError("negative kill timing")
                if n_sites is not None and not \
                        0 <= event.site < n_sites:
                    raise ValueError("kill site {} outside the "
                                     "cluster".format(event.site))
            elif isinstance(event, CorruptFault):
                if event.target not in ("wal", "journal"):
                    raise ValueError("corrupt target must be wal or "
                                     "journal, got {!r}".format(
                                         event.target))
                if event.mode not in ("bitflip", "torn"):
                    raise ValueError("corrupt mode must be bitflip or "
                                     "torn, got {!r}".format(event.mode))
                if not 0 <= event.bit <= 7:
                    raise ValueError("corrupt bit must be 0..7")
            else:
                raise ValueError("unknown event {!r}".format(event))
        return self

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def link_events(self) -> typing.List[LinkFault]:
        return [e for e in self.events if isinstance(e, LinkFault)]

    def kill_events(self) -> typing.List[KillFault]:
        return sorted((e for e in self.events
                       if isinstance(e, KillFault)),
                      key=lambda e: e.at)

    def corrupt_events(self, site: typing.Optional[int] = None
                       ) -> typing.List[CorruptFault]:
        return [e for e in self.events
                if isinstance(e, CorruptFault) and
                (site is None or e.site == site)]

    # ------------------------------------------------------------------
    # Serialisation (the replayable script artifact)
    # ------------------------------------------------------------------

    def to_json(self) -> typing.Dict[str, typing.Any]:
        return {"version": 1, "seed": self.seed,
                "events": [event.to_json() for event in self.events]}

    @classmethod
    def from_json(cls, obj: typing.Mapping[str, typing.Any]
                  ) -> "FaultPlan":
        return cls(seed=int(obj.get("seed", 0)),
                   events=tuple(event_from_json(e)
                                for e in obj.get("events", ()))
                   ).validate()


class FaultVerdict(typing.NamedTuple):
    """One frame attempt's injection decision (the transport reads
    ``delay``/``drop``/``ack_loss``; ``reorder`` is log colour)."""

    delay: float
    drop: bool
    ack_loss: bool
    reorder: bool


class LinkFaultInjector:
    """The transport-facing side of a plan: deterministic per-frame
    decisions plus the recorded injection log.

    Decisions are keyed by ``(src, dst, seq, attempt)`` where ``seq``
    is the frame's first per-channel sequence number and ``attempt``
    counts this frame's delivery attempts — so a dropped frame's
    *resend* re-rolls (a deterministic drop cannot repeat forever) and
    a replay with the same seed rolls the same values in the same
    places regardless of wall-clock interleaving.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan.validate()
        self.rules = plan.link_events()
        self._attempts: typing.Dict[typing.Tuple[int, int, int], int] = {}
        #: Every decision taken, in decision order.  Sort by
        #: ``(src, dst, seq, attempt)`` before comparing two runs —
        #: decision *order* is scheduling-dependent, the decisions
        #: themselves are not.
        self.log: typing.List[typing.Dict[str, typing.Any]] = []

    def on_frame(self, src: int, dst: int, seq: int, count: int
                 ) -> typing.Optional[FaultVerdict]:
        key = (src, dst, seq)
        attempt = self._attempts.get(key, 0)
        self._attempts[key] = attempt + 1
        delay = jitter = drop_p = ack_p = reorder_p = 0.0
        matched = False
        for rule in self.rules:
            if not rule.matches(src, dst):
                continue
            matched = True
            delay += rule.delay
            jitter += rule.jitter
            drop_p = max(drop_p, rule.drop)
            ack_p = max(ack_p, rule.ack_loss)
            reorder_p = max(reorder_p, rule.reorder)
        if not matched:
            return None
        if jitter > 0.0:
            delay += jitter * self._roll("jitter", src, dst, seq,
                                         attempt)
        reorder = reorder_p > 0.0 and \
            self._roll("reorder", src, dst, seq, attempt) < reorder_p
        if reorder:
            delay += max(4.0 * jitter, REORDER_FLOOR_S)
        drop = drop_p > 0.0 and \
            self._roll("drop", src, dst, seq, attempt) < drop_p
        ack_loss = not drop and ack_p > 0.0 and \
            self._roll("ack", src, dst, seq, attempt) < ack_p
        self.log.append({
            "src": src, "dst": dst, "seq": seq, "attempt": attempt,
            "count": count, "delay": round(delay, 9), "drop": drop,
            "ack_loss": ack_loss, "reorder": reorder})
        return FaultVerdict(delay=delay, drop=drop, ack_loss=ack_loss,
                            reorder=reorder)

    def sorted_log(self) -> typing.List[typing.Dict[str, typing.Any]]:
        """The injection log in its canonical (replay-comparable)
        order."""
        return sorted(self.log, key=lambda entry: (
            entry["src"], entry["dst"], entry["seq"],
            entry["attempt"]))

    def _roll(self, kind: str, src: int, dst: int, seq: int,
              attempt: int) -> float:
        material = "{}:{}:{}:{}:{}:{}".format(
            self.plan.seed, kind, src, dst, seq, attempt)
        digest = hashlib.sha256(material.encode("ascii")).digest()
        return int.from_bytes(digest[:8], "big") / 2.0 ** 64


# ----------------------------------------------------------------------
# Named fault profiles (the sweep matrix's third axis)
# ----------------------------------------------------------------------

def _calm(_victim: int) -> typing.Tuple:
    return ()


def _jitter(_victim: int) -> typing.Tuple:
    return (LinkFault(delay=0.002, jitter=0.01),)


def _lossy(_victim: int) -> typing.Tuple:
    return (LinkFault(delay=0.002, jitter=0.01, drop=0.08,
                      ack_loss=0.08, reorder=0.1),)


def _crash(victim: int) -> typing.Tuple:
    return (LinkFault(delay=0.001, jitter=0.005),
            KillFault(site=victim, at=0.4, down_for=0.4))


def _torn_journal(victim: int) -> typing.Tuple:
    return _crash(victim) + (
        CorruptFault(site=victim, target="journal", mode="torn",
                     offset=-2),)


def _bitflip_wal(victim: int) -> typing.Tuple:
    return _crash(victim) + (
        CorruptFault(site=victim, target="wal", mode="bitflip",
                     offset=-10, bit=3),)


#: Named profiles: name -> events builder taking the victim site.
#: ``calm``/``jitter``/``lossy`` are faults within the paper's
#: tolerance (reliable eventual FIFO delivery) and must come out
#: oracle-clean with zero monitor criticals; ``crash`` adds one
#: kill/restart; the corruption profiles damage the victim's logs
#: while it is down.
PROFILES: typing.Dict[str, typing.Callable[[int], typing.Tuple]] = {
    "calm": _calm,
    "jitter": _jitter,
    "lossy": _lossy,
    "crash": _crash,
    "torn-journal": _torn_journal,
    "bitflip-wal": _bitflip_wal,
}


def profile_plan(name: str, seed: int = 0,
                 n_sites: int = 3) -> FaultPlan:
    """Build a named profile's plan; the victim of kill/corrupt events
    is the middle site (a mid-tree member on small copy graphs)."""
    try:
        builder = PROFILES[name]
    except KeyError:
        raise ValueError("unknown fault profile {!r} (known: {})"
                         .format(name, ", ".join(sorted(PROFILES))))
    victim = min(1, n_sites - 1)
    return FaultPlan(seed=seed,
                     events=builder(victim)).validate(n_sites)
