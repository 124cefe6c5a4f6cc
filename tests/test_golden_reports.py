"""Golden `idpoly analyze --format json` reports for every tests/data input.

Each file under tests/data/golden/ holds the report of one fixture with
its `stats` object removed, because only `stats` may differ between two
runs on the same input.  A change that alters a report on purpose must
rewrite the affected golden file in the same change:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from idpoly import cli

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
INPUTS = sorted(p.name for p in DATA.iterdir() if p.suffix in (".ideal", ".mat"))


def report_without_stats(name: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["analyze", "--format", "json", str(DATA / name)])
    payload = json.loads(out.getvalue())
    del payload["stats"]
    return json.dumps(payload, indent=2) + "\n"


def test_every_input_has_a_golden_report():
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == [f"{n}.json" for n in INPUTS]


@pytest.mark.parametrize("name", INPUTS)
def test_analyze_report_matches_golden(name):
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert report_without_stats(name) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in INPUTS:
        (GOLDEN / f"{name}.json").write_text(report_without_stats(name), encoding="utf-8")
