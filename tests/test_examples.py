"""Smoke tests: every shipped example runs cleanly, in-process.

The examples are deliverables — regressions here are user-visible.
Running them in-process (``runpy`` with captured stdout) instead of as
subprocesses keeps the whole suite's wall clock low while still
executing each script exactly as ``python examples/<name>.py`` would,
including its ``__main__`` guard.
"""

import contextlib
import io
import pathlib
import runpy
import sys

import pytest

from tests.helpers import free_base_port

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"

EXPECTED_SNIPPETS = {
    "quickstart.py": ["BackEdge/PSL speedup", "serializable"],
    "data_warehouse.py": ["Global serializability verified",
                          "headquarters"],
    "network_management.py": ["Serializability verified",
                              "Backedges chosen"],
    "anomaly_demo.py": ["checker found the cycle",
                        "global deadlock detected"],
    "protocol_comparison.py": ["All runs passed",
                               "dag_t"],
    "site_recovery.py": ["Recovered site caught up"],
    "live_cluster.py": ["cluster up", "killed", "restarted",
                        "Recovered site caught up"],
}

ARGS = {
    # Keep the slowest example quick in CI.
    "protocol_comparison.py": ["25"],
    # No fixed port under the suite: the example's default range may be
    # taken on the host running it.
    "live_cluster.py": [str(free_base_port(3))],
}


def run_example(script):
    path = EXAMPLES_DIR / script
    assert path.exists(), "missing example {}".format(script)
    stdout = io.StringIO()
    argv = [str(path)] + ARGS.get(script, [])
    saved_argv = sys.argv
    sys.argv = argv
    try:
        with contextlib.redirect_stdout(stdout):
            runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = saved_argv
    return stdout.getvalue()


@pytest.mark.parametrize("script", sorted(EXPECTED_SNIPPETS))
def test_example_runs_and_prints_expected_output(script):
    output = run_example(script)
    for snippet in EXPECTED_SNIPPETS[script]:
        assert snippet in output, (
            "{} output missing {!r}:\n{}".format(script, snippet,
                                                 output))


def test_every_example_file_is_covered():
    scripts = {path.name for path in EXAMPLES_DIR.glob("*.py")}
    assert scripts == set(EXPECTED_SNIPPETS)
