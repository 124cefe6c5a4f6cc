"""Golden `idpoly analyze` and `idpoly oracle` reports for every tests/data input.

Three kinds of golden file, one per input under each:

- tests/data/golden/<name>.json: `analyze --format json` with its `stats`
  object removed, because only `stats` may differ between two runs on
  the same input;
- tests/data/golden/text/<name>.txt: `analyze --format text` with its
  `elapsed:` line removed, which keeps the diagnostics that the JSON
  golden drops with `stats`;
- tests/data/golden/oracle/<name>.json: `oracle --format json` without
  `stats`, with the scan truncated at degree 2 on the inputs in
  ORACLE_TRUNCATED, whose full scan takes far too long for a test.

A change that alters a report on purpose must rewrite the affected
golden files in the same change:

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
GOLDEN_TEXT = GOLDEN / "text"
GOLDEN_ORACLE = GOLDEN / "oracle"
INPUTS = sorted(p.name for p in DATA.iterdir() if p.suffix in (".ideal", ".mat"))
ORACLE_TRUNCATED = frozenset(
    ("ih1.ideal", "ih2.ideal", "veiled.ideal", "veiled_minor10.ideal")
)


def _stdout(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(list(argv))
    return out.getvalue()


def _json_without_stats(text: str) -> str:
    payload = json.loads(text)
    del payload["stats"]
    return json.dumps(payload, indent=2) + "\n"


def report_without_stats(name: str) -> str:
    return _json_without_stats(_stdout("analyze", "--format", "json", str(DATA / name)))


def text_report_without_elapsed(name: str) -> str:
    text = _stdout("analyze", "--format", "text", str(DATA / name))
    return "".join(
        line for line in text.splitlines(keepends=True) if not line.startswith("elapsed:")
    )


def oracle_report_without_stats(name: str) -> str:
    argv = ["oracle", "--format", "json", str(DATA / name)]
    if name in ORACLE_TRUNCATED:
        argv += ["--oracle-max-degree", "2"]
    return _json_without_stats(_stdout(*argv))


KINDS = (
    (GOLDEN, ".json", report_without_stats),
    (GOLDEN_TEXT, ".txt", text_report_without_elapsed),
    (GOLDEN_ORACLE, ".json", oracle_report_without_stats),
)


def test_every_input_has_a_golden_report():
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == [f"{n}.json" for n in INPUTS]


@pytest.mark.parametrize("folder, suffix", [(GOLDEN_TEXT, ".txt"), (GOLDEN_ORACLE, ".json")])
def test_every_input_has_golden_text_and_oracle_reports(folder, suffix):
    assert sorted(p.name for p in folder.glob(f"*{suffix}")) == [
        f"{n}{suffix}" for n in INPUTS
    ]


@pytest.mark.parametrize("name", INPUTS)
def test_analyze_report_matches_golden(name):
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert report_without_stats(name) == expected


@pytest.mark.parametrize("name", INPUTS)
def test_analyze_text_report_matches_golden(name):
    expected = (GOLDEN_TEXT / f"{name}.txt").read_text(encoding="utf-8")
    assert text_report_without_elapsed(name) == expected


@pytest.mark.parametrize("name", INPUTS)
def test_oracle_report_matches_golden(name):
    expected = (GOLDEN_ORACLE / f"{name}.json").read_text(encoding="utf-8")
    assert oracle_report_without_stats(name) == expected


if __name__ == "__main__":
    for folder, suffix, render in KINDS:
        folder.mkdir(exist_ok=True)
        for name in INPUTS:
            (folder / f"{name}{suffix}").write_text(render(name), encoding="utf-8")
