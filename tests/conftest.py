from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from idpoly import cli, parsing

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).resolve().parents[1]

ACCEPTANCE_LABELS = {
    1: "hypergraph construction and reduction on the worked example",
    2: "six-generator counterexample: witness and torsion certificate",
    3: "balanced rule stays silent on the bipartite counterexample",
    4: "exceptional pairs found and certified on three instances",
    5: "hexagon family verdicts agree with the oracle",
    6: "prime-three coloring obstruction with thirds witness",
    7: "oracle verdict invariant under closed-vertex reduction",
    8: "ideal / hypergraph round trip is the identity",
    9: "engine verdicts conservative against the oracle",
    10: "oracle verdict stable under degree-bound extension",
}


@pytest.fixture(scope="session")
def load_ideal():
    def _load(name: str):
        return parsing.parse_ideal_text((DATA / name).read_text())

    return _load


@pytest.fixture()
def run_cli(capsys):
    def _run(*argv: str):
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


def data_path(name: str) -> str:
    return str(DATA / name)


def run_python(script: str) -> subprocess.CompletedProcess:
    """Run script in a new interpreter at the repo root, with src first on its path."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )


_CRITERION = re.compile(r"test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results: dict[int, str] = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            match = _CRITERION.search(getattr(report, "nodeid", ""))
            if not match:
                continue
            number = int(match.group(1))
            verdict = "PASS" if status == "passed" else "FAIL"
            # a failed setup or teardown still means the criterion failed
            if results.get(number) != "FAIL":
                results[number] = verdict
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(results):
        label = ACCEPTANCE_LABELS.get(number, "")
        terminalreporter.write_line(
            f"criterion {number}: {results[number]} - {label}"
        )
