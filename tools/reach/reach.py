"""Reach probe: which function definitions in ``src/repro`` a set of
gates executes at all.

``run`` executes one gate command with the call recorder
(``sitecustomize.py`` beside this file) active in it and in every
Python process it starts; ``report`` joins the recorded ``(file, first
line)`` pairs of one or more runs with an AST scan of ``src/repro`` and
prints how many definitions, and how many of their lines, no run
reached, then lists them.  Stdlib only::

    python tools/reach/reach.py run tier1 -- python -m pytest -q tests/
    python tools/reach/reach.py run examples -- \\
        sh -c 'for f in examples/*.py; do python "$f"; done'
    python tools/reach/reach.py report tier1
    python tools/reach/reach.py report tier1 examples --list

Records land in ``tools/reach/out/<name>/``; a second ``run`` with the
same name adds to them.  The gate runs in the caller's directory with
``tools/reach`` and ``src`` put in front of ``PYTHONPATH``.  Tracing is slow (every Python call pays the
recorder), so no CI job runs the probe.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import typing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src", "repro")
OUT = os.path.join(HERE, "out")

#: (path relative to src/repro, first line) -> (qualified name, lines).
Definitions = typing.Dict[typing.Tuple[str, int], typing.Tuple[str, int]]


def definitions() -> Definitions:
    """Every ``def``/``async def`` under ``src/repro``, nested ones
    included, keyed the way a code object names itself: its file and
    its first line, which is the first decorator's when it has one."""
    found: Definitions = {}
    for folder, _dirs, files in os.walk(SRC):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            relative = os.path.relpath(path, SRC)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            _scan(tree, relative, "", found)
    return found


def _scan(node: ast.AST, relative: str, prefix: str,
          found: Definitions) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            qualified = prefix + child.name
            if not isinstance(child, ast.ClassDef):
                first = min([child.lineno] + [decorator.lineno for
                                              decorator in
                                              child.decorator_list])
                found[(relative, first)] = (
                    qualified, child.end_lineno - first + 1)
            _scan(child, relative, qualified + ".", found)
        else:
            _scan(child, relative, prefix, found)


def reached(names: typing.Sequence[str]
            ) -> typing.Set[typing.Tuple[str, int]]:
    pairs = set()
    for name in names:
        folder = os.path.join(OUT, name)
        if not os.path.isdir(folder):
            raise SystemExit("no records for {!r} in {}".format(name, OUT))
        for record in os.listdir(folder):
            with open(os.path.join(folder, record),
                      encoding="utf-8") as handle:
                for line in handle:
                    relative, _, first = line.rstrip("\n").partition("\t")
                    if first.isdigit():
                        pairs.add((relative, int(first)))
    return pairs


def run(name: str, command: typing.Sequence[str]) -> int:
    folder = os.path.join(OUT, name)
    os.makedirs(folder, exist_ok=True)
    active = os.path.join(OUT, "ACTIVE")
    with open(active, "w", encoding="utf-8") as handle:
        handle.write(folder + "\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [HERE, os.path.join(ROOT, "src"),
                      env.get("PYTHONPATH")]))
    try:
        return subprocess.call(list(command), env=env)
    finally:
        os.remove(active)


def report(names: typing.Sequence[str], listing: bool,
           out: typing.TextIO = sys.stdout) -> None:
    known = definitions()
    hit = reached(names)
    missed = sorted(key for key in known if key not in hit)
    lines = sum(known[key][1] for key in missed)
    out.write("{}: {} of {} definitions unreached ({} lines)\n".format(
        "+".join(names), len(missed), len(known), lines))
    if listing:
        for relative, first in missed:
            qualified, size = known[(relative, first)]
            out.write("  {}:{} {} ({} lines)\n".format(
                relative, first, qualified, size))


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run_parser = commands.add_parser(
        "run", help="run one gate command with the recorder active")
    run_parser.add_argument("name", help="record set to add to")
    run_parser.add_argument("gate", nargs=argparse.REMAINDER,
                            help="-- then the gate's command line")
    report_parser = commands.add_parser(
        "report", help="unreached definitions over the named record sets")
    report_parser.add_argument("names", nargs="+")
    report_parser.add_argument("--list", action="store_true",
                               help="list every unreached definition")
    args = parser.parse_args(argv)
    if args.command == "run":
        gate = args.gate[1:] if args.gate[:1] == ["--"] else args.gate
        if not gate:
            parser.error("run needs a gate command after --")
        return run(args.name, gate)
    report(args.names, args.list)
    return 0


if __name__ == "__main__":
    sys.exit(main())
