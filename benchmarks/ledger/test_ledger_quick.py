"""Smoke test of the ledger: contract of ``BENCHMARK.json``, one
``--quick`` pass over every workload, and the refusals.

Not part of tier-1 (``pyproject.toml`` collects ``tests/`` only); it
starts real site processes and takes about two minutes::

    python -m pytest benchmarks/ledger/test_ledger_quick.py
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
RUN = os.path.join(LEDGER_DIR, "run.py")

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def declared():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run(*argv, cwd=REPO_ROOT):
    return subprocess.run([sys.executable, RUN, *argv], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)


def test_benchmark_json_meets_the_contract():
    spec = declared()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/ledger"]
    assert all(not part.startswith("/") and ".." not in part
               for part in spec["command"])
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = []
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in spec["end_to_end"])


def test_workloads_match_the_declaration():
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    sys.path.insert(0, LEDGER_DIR)
    try:
        import workloads
    finally:
        del sys.path[:2]
    assert sorted(workloads.WORKLOADS) == sorted(
        entry["name"] for entry in declared()["workloads"])


@pytest.fixture(scope="module")
def quick_ledger(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "quick.json"
    done = run("--quick", "--out", str(out))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    with open(out) as handle:
        return str(out), json.load(handle), done.stdout


def test_quick_ledger_reports_every_metric(quick_ledger):
    _path, document, stdout = quick_ledger
    spec = declared()
    assert document["schema"] == 1 and document["quick"] is True
    assert set(document["host"]) >= {"git_sha", "nproc", "python",
                                     "host.ref_loop_ms"}
    assert list(document["workloads"]) == [
        entry["name"] for entry in spec["workloads"]]
    for name, workload in document["workloads"].items():
        assert workload["failed"] == 0 and workload["attempted"] >= 1
        for metric in spec["end_to_end"]:
            row = workload["end_to_end"][metric["name"]]
            assert row["unit"] == metric["unit"]
            assert all(value > 0 for value in row["values"]), (
                name, metric["name"], row)
        assert list(workload["per_layer"]) == [
            metric["name"] for metric in spec["per_layer"]]
        for metric in spec["per_layer"]:
            row = workload["per_layer"][metric["name"]]
            assert row["unit"] == metric["unit"]
            assert isinstance(row["value"], float)
        assert workload["notes"]["traced"]["unresolved_boundaries"] == []
        # Every layer the workload enters has a self-time row.
        rows = ["sim.run_self_us_per_txn", "storage.self_us_per_txn",
                "graph.self_us_per_txn"]
        if name != "sim_paper":
            rows += ["codec.self_us_per_txn", "wal.self_us_per_txn",
                     "transport.send_self_us_per_txn",
                     "journal.self_us_per_txn", "obs.self_us_per_txn"]
        for row in rows + ["server.residual_us_per_txn"]:
            assert workload["per_layer"][row]["value"] > 0, (name, row)
        assert workload["per_layer"]["trace.overhead_ratio"]["value"] > 0
    # Every metric is printed by name with its unit.
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert re.search(r"^\s*{}\s".format(re.escape(metric["name"])),
                         stdout, re.M), metric["name"]


def test_compare_refuses_quick_results(quick_ledger):
    path, _document, _stdout = quick_ledger
    done = run("--compare", path, path)
    assert done.returncode != 0
    assert "--quick" in done.stderr


def test_compare_applies_the_bounds(tmp_path, quick_ledger):
    _path, document, _stdout = quick_ledger
    base = dict(document, quick=False)
    worse = json.loads(json.dumps(base))
    row = worse["workloads"]["steady_write"]["end_to_end"]["commit_p50_ms"]
    row["values"] = [value * 1.5 for value in row["values"]]
    paths = []
    for index, content in enumerate((base, worse)):
        paths.append(str(tmp_path / "{}.json".format(index)))
        with open(paths[-1], "w") as handle:
            json.dump(content, handle)
    same = run("--compare", paths[0], paths[0])
    assert same.returncode == 0 and "regressed" not in same.stdout
    done = run("--compare", *paths)
    assert done.returncode == 1
    regressed = [line.split()[:2] for line in done.stdout.splitlines()
                 if line.rstrip().endswith("regressed")]
    assert regressed == [["steady_write", "commit_p50_ms"]]


def test_exits_nonzero_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    own files there is nothing to measure: no result, exit != 0."""
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(LEDGER_DIR, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "sim_paper", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
