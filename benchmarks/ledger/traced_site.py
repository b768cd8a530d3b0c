"""Traced site: the layer-boundary span recorder of the perf ledger.

Run as a script it is ``python -m repro serve`` with spans::

    python traced_site.py --ledger-out site0.trace.json serve --site 0 ...

Everything after the ``--ledger-*`` flags goes to ``repro.cli.main``
unchanged.  Before that call, every public callable named in
:data:`LAYER_BOUNDARIES` is replaced (by attribute) with a wrapper that
records one span per call: name, start, end, parent.  Spans are
aggregated in memory to count / total / self per boundary (self = the
span's duration minus the part its child spans cover) and written as one
JSON file after ``serve`` returns on SIGTERM.

The table is the only place that names program internals.  A dotted name
that no longer resolves is reported under ``unresolved_boundaries`` and
its metrics read 0 — the untraced end-to-end runs never load this file.

``sim_paper`` uses the same recorder in-process through
:func:`install` / :meth:`Tracer.snapshot`.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import sys
import threading
import time
import types
import typing

#: (layer, dotted name of a public callable, attribute to difference).
#: The layer is the package the callable belongs to.  The optional third
#: field names an integer attribute of ``self`` whose growth across the
#: call is accumulated as a count (the kernel's processed events).
LAYER_BOUNDARIES: typing.Tuple[
    typing.Tuple[str, str, typing.Optional[str]], ...] = (
    ("sim", "repro.sim.environment.Environment.run", "events_processed"),
    ("storage", "repro.storage.engine.StorageEngine.begin", None),
    ("storage", "repro.storage.engine.StorageEngine.read", None),
    ("storage", "repro.storage.engine.StorageEngine.write", None),
    ("storage", "repro.storage.engine.StorageEngine.commit", None),
    ("storage", "repro.storage.engine.StorageEngine.abort", None),
    ("storage", "repro.storage.locks.LockManager.acquire", None),
    ("storage", "repro.storage.locks.LockManager.release_all", None),
    ("graph", "repro.graph.tree.PropagationTree.subtree", None),
    ("graph", "repro.graph.tree.PropagationTree.is_ancestor", None),
    ("codec", "repro.cluster.codec.encode_frame", None),
    ("codec", "repro.cluster.codec.decode_frame_body", None),
    ("codec", "repro.cluster.codec.encode_value", None),
    ("codec", "repro.cluster.codec.decode_value", None),
    ("codec", "repro.cluster.codec.WireCodec.encode_frame", None),
    ("codec", "repro.cluster.codec.WireCodec.decode_body", None),
    ("transport", "repro.cluster.transport.LiveTransport.send", None),
    ("transport", "repro.cluster.transport.LiveTransport.deliver", None),
    ("wal", "repro.cluster.wal.FileWal.append", None),
    ("wal", "repro.cluster.wal.FileWal.sync", None),
    ("journal", "repro.cluster.wal.MessageJournal.append", None),
    ("journal", "repro.cluster.wal.MessageJournal.sync", None),
    ("obs", "repro.obs.trace.TraceSink.emit", None),
    ("obs", "repro.obs.registry.Histogram.observe", None),
    ("obs", "repro.obs.registry.Counter.inc", None),
)

#: The boundary whose call count is "transactions begun" (primary and
#: secondary subtransactions) — bounds the raw-span capture.
_BEGIN = sys.intern("repro.storage.engine.StorageEngine.begin")

_clock = time.perf_counter_ns


class _ThreadState:
    """One thread's span stack and aggregates (merged at snapshot)."""

    __slots__ = ("stack", "rows", "deltas", "tid")

    def __init__(self, tid: int):
        #: Open spans, innermost last: ``[name, start_ns, child_ns]``.
        self.stack: typing.List[list] = []
        #: name -> ``[count, total_ns, self_ns]``.
        self.rows: typing.Dict[str, list] = {}
        #: name -> accumulated growth of the boundary's delta attribute.
        self.deltas: typing.Dict[str, int] = {}
        self.tid = tid


class Tracer:
    """In-memory span recorder with per-boundary aggregation."""

    def __init__(self, raw_transactions: int = 0):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: typing.List[_ThreadState] = []
        self.main_tid = threading.get_ident()
        self.unresolved: typing.List[str] = []
        #: Raw spans ``(name, tid, start_ns, end_ns, parent)``, kept
        #: until ``raw_transactions`` subtransactions have begun.
        self.raw: typing.List[tuple] = []
        self._raw_open = raw_transactions > 0
        self._raw_limit = raw_transactions
        self.started_cpu = time.process_time()

    # -- recording -----------------------------------------------------

    def state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(threading.get_ident())
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    def _exit(self, state: _ThreadState, frame: list, end: int) -> None:
        name, start, child = frame
        duration = end - start
        row = state.rows.get(name)
        if row is None:
            row = state.rows[name] = [0, 0, 0]
        row[0] += 1
        row[1] += duration
        row[2] += duration - child
        stack = state.stack
        parent = None
        if stack:
            stack[-1][2] += duration
            parent = stack[-1][0]
        if self._raw_open:
            self.raw.append((name, state.tid, start, end, parent))
            if name is _BEGIN and row[0] >= self._raw_limit:
                self._raw_open = False

    def wrap(self, name: str, func: typing.Callable,
             delta_attr: typing.Optional[str]) -> typing.Callable:
        """The span-recording replacement for ``func``."""
        get_state = self.state
        leave = self._exit

        if inspect.isgeneratorfunction(func):
            # A process helper (``yield from engine.read(...)``): the
            # body runs in segments between yields, so each segment is
            # its own span and a suspended generator holds none open.
            def generator_wrapper(*args, **kwargs):
                inner = func(*args, **kwargs)
                state = get_state()
                send, thrown = None, None
                while True:
                    frame = [name, _clock(), 0]
                    state.stack.append(frame)
                    try:
                        if thrown is not None:
                            value = inner.throw(thrown)
                        else:
                            value = inner.send(send)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        state.stack.pop()
                        leave(state, frame, _clock())
                    send, thrown = None, None
                    try:
                        send = yield value
                    except GeneratorExit:
                        inner.close()
                        raise
                    except BaseException as exc:
                        thrown = exc
            generator_wrapper.__wrapped__ = func
            return generator_wrapper

        def wrapper(*args, **kwargs):
            state = get_state()
            stack = state.stack
            if stack and stack[-1][0] is name:
                # Direct recursion (encode_value on a nested value):
                # one span for the outermost call.
                return func(*args, **kwargs)
            before = getattr(args[0], delta_attr) if delta_attr else 0
            frame = [name, _clock(), 0]
            stack.append(frame)
            try:
                return func(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                leave(state, frame, end)
                if delta_attr:
                    state.deltas[name] = state.deltas.get(name, 0) + (
                        getattr(args[0], delta_attr) - before)
        wrapper.__wrapped__ = func
        return wrapper

    # -- reporting -----------------------------------------------------

    def snapshot(self) -> typing.Dict[str, typing.Any]:
        """Aggregates so far, merged over threads.

        ``self_ns_loop`` is the self time spent on the thread that
        installed the tracer (the site's event loop); spans on executor
        threads — the group-commit fsyncs — are mostly waiting, not
        CPU, so only the loop share is subtracted from process CPU to
        get the residual."""
        with self._lock:
            states = list(self._states)
        boundaries: typing.Dict[str, typing.Dict[str, int]] = {}
        deltas: typing.Dict[str, int] = {}
        for state in states:
            on_loop = state.tid == self.main_tid
            for name, (count, total, own) in list(state.rows.items()):
                row = boundaries.setdefault(name, {
                    "count": 0, "total_ns": 0, "self_ns": 0,
                    "self_ns_loop": 0})
                row["count"] += count
                row["total_ns"] += total
                row["self_ns"] += own
                if on_loop:
                    row["self_ns_loop"] += own
            for name, value in list(state.deltas.items()):
                deltas[name] = deltas.get(name, 0) + value
        layers = {dotted: layer for layer, dotted, _ in LAYER_BOUNDARIES}
        return {
            "boundaries": boundaries,
            "layers": {name: layers[name] for name in boundaries},
            "deltas": deltas,
            "unresolved_boundaries": list(self.unresolved),
            "cpu_s": time.process_time() - self.started_cpu,
            "raw_spans": [list(span) for span in self.raw],
        }


def _resolve(dotted: str) -> typing.Tuple[typing.Any, str, typing.Any]:
    """``(owner, attribute, callable)`` for a dotted public name; the
    owner is a module or a class.  Raises on anything that is missing."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:-1]:
            owner = getattr(owner, part)
        target = getattr(owner, parts[-1])
        if not callable(target):
            raise TypeError("{} is not callable".format(dotted))
        return owner, parts[-1], target
    raise ImportError("no importable prefix in {}".format(dotted))


def install(raw_transactions: int = 0) -> Tracer:
    """Wrap every resolvable boundary; returns the recorder.

    A module-level function is also rebound in every loaded ``repro``
    module that imported it by name (``from codec import decode_value``
    copies the reference, so replacing the attribute on ``codec`` alone
    would miss those callers)."""
    tracer = Tracer(raw_transactions)
    for _layer, dotted, delta_attr in LAYER_BOUNDARIES:
        try:
            owner, attribute, target = _resolve(dotted)
        except (ImportError, AttributeError, TypeError):
            tracer.unresolved.append(dotted)
            continue
        name = sys.intern(dotted)
        wrapped = tracer.wrap(name, target, delta_attr)
        setattr(owner, attribute, wrapped)
        if isinstance(owner, types.ModuleType):
            for module in list(sys.modules.values()):
                if module is None or module is owner or not getattr(
                        module, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is target:
                        setattr(module, key, wrapped)
    return tracer


def main(argv: typing.Sequence[str]) -> int:
    parser = argparse.ArgumentParser(allow_abbrev=False)
    parser.add_argument("--ledger-out", required=True, metavar="PATH")
    parser.add_argument("--ledger-raw", type=int, default=0, metavar="N")
    options, serve_argv = parser.parse_known_args(argv)
    import repro.cli
    import repro.cluster.server  # noqa: F401 - load before wrapping

    tracer = install(options.ledger_raw)
    try:
        return repro.cli.main(serve_argv)
    finally:
        with open(options.ledger_out, "w", encoding="utf-8") as handle:
            json.dump(tracer.snapshot(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
