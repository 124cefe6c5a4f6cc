"""Golden `idpoly analyze`, `oracle` and `hypergraph` reports for every tests/data input.

Five kinds of golden file, one per input under each:

- tests/data/golden/<name>.json: `analyze --format json` with its `stats`
  object removed, because only `stats` may differ between two runs on
  the same input;
- tests/data/golden/text/<name>.txt: `analyze --format text` with its
  `elapsed:` line removed, which keeps the diagnostics that the JSON
  golden drops with `stats`;
- tests/data/golden/oracle/<name>.json: `oracle --format json` without
  `stats`, with the scan truncated at degree 2 on the inputs in
  ORACLE_TRUNCATED, whose full scan takes far too long for a test;
- tests/data/golden/hypergraph/<name>.txt and <name>.json: `hypergraph`
  in text and `--format json`, whole, since neither holds a timing.

One more golden file pins the minor walk where it does the most work:
tests/data/golden/walks/edge11.json holds, for the edge ideals of
WALK_GRAPHS random graphs with 11 nodes and 14 edges drawn from a seeded
generator, the verdict of `analyze` and the verdict, rule, minor trace
and diagnostics of `analyze` without the odd-cycle rule, under the
defaults and with the relaxed connector search.  With every rule, none
of these graphs reaches the walk (the odd-cycle rule settles 39 of the
40 and Proposition 3.5 the other), so the walks are run without it.

A change that alters a report on purpose must rewrite the affected
golden files in the same change:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import pytest

from idpoly import cli, engine
from idpoly.engine import EngineConfig, analyze
from idpoly.model import SquarefreeIdeal
from idpoly.report import report_payload

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
GOLDEN_TEXT = GOLDEN / "text"
GOLDEN_ORACLE = GOLDEN / "oracle"
GOLDEN_HYPERGRAPH = GOLDEN / "hypergraph"
INPUTS = sorted(p.name for p in DATA.iterdir() if p.suffix in (".ideal", ".mat"))
ORACLE_TRUNCATED = frozenset(
    ("edge65.ideal", "ih1.ideal", "ih2.ideal", "veiled.ideal", "veiled_minor10.ideal")
)
GOLDEN_WALKS = GOLDEN / "walks" / "edge11.json"
WALK_GRAPHS = 40
WALK_CONFIGS = {"defaults": EngineConfig(), "relaxed": EngineConfig(relaxed_connection=True)}


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


def hypergraph_text(name: str) -> str:
    return _stdout("hypergraph", str(DATA / name))


def hypergraph_json(name: str) -> str:
    return _stdout("hypergraph", "--format", "json", str(DATA / name))


def random_edge_ideal(rng, nodes=11, edges=14):
    """The edge ideal of a uniform random graph, its nodes renamed x1.. in order."""
    pairs = sorted(rng.sample([(a, b) for a in range(nodes) for b in range(a + 1, nodes)], edges))
    used = sorted({v for pair in pairs for v in pair})
    name = {v: f"x{i}" for i, v in enumerate(used, start=1)}
    generators = tuple(frozenset((name[a], name[b])) for a, b in pairs)
    return SquarefreeIdeal(tuple(name[v] for v in used), generators)


def walk_reports(monkeypatch: pytest.MonkeyPatch) -> str:
    rng = random.Random(19)
    ideals = [random_edge_ideal(rng) for _ in range(WALK_GRAPHS)]
    verdicts = [analyze(ideal).status for ideal in ideals]
    walking = tuple(rule for rule in engine.STRUCTURAL_RULES if rule.id != "odd-cycle")
    monkeypatch.setattr(engine, "STRUCTURAL_RULES", walking)
    graphs = []
    for ideal, verdict in zip(ideals, verdicts):
        entry = {
            "generators": [sorted(g, key=ideal.variables.index) for g in ideal.generators],
            "verdict": verdict,
        }
        for option, config in WALK_CONFIGS.items():
            payload = report_payload(analyze(ideal, config))
            entry[option] = {key: payload[key] for key in ("verdict", "rule", "minor_trace")}
            entry[option]["diagnostics"] = payload["stats"]["diagnostics"]
        graphs.append(entry)
    return json.dumps(graphs, indent=1) + "\n"


KINDS = (
    (GOLDEN, ".json", report_without_stats),
    (GOLDEN_TEXT, ".txt", text_report_without_elapsed),
    (GOLDEN_ORACLE, ".json", oracle_report_without_stats),
    (GOLDEN_HYPERGRAPH, ".txt", hypergraph_text),
    (GOLDEN_HYPERGRAPH, ".json", hypergraph_json),
)


def test_every_input_has_a_golden_report():
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == [f"{n}.json" for n in INPUTS]


@pytest.mark.parametrize(
    "folder, suffix",
    [
        (GOLDEN_TEXT, ".txt"),
        (GOLDEN_ORACLE, ".json"),
        (GOLDEN_HYPERGRAPH, ".txt"),
        (GOLDEN_HYPERGRAPH, ".json"),
    ],
)
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


@pytest.mark.parametrize("name", INPUTS)
@pytest.mark.parametrize("suffix, render", [(".txt", hypergraph_text), (".json", hypergraph_json)])
def test_hypergraph_report_matches_golden(name, suffix, render):
    expected = (GOLDEN_HYPERGRAPH / f"{name}{suffix}").read_text(encoding="utf-8")
    assert render(name) == expected


def test_minor_walks_match_golden(monkeypatch):
    assert walk_reports(monkeypatch) == GOLDEN_WALKS.read_text(encoding="utf-8")


if __name__ == "__main__":
    for folder, suffix, render in KINDS:
        folder.mkdir(exist_ok=True)
        for name in INPUTS:
            (folder / f"{name}{suffix}").write_text(render(name), encoding="utf-8")
    GOLDEN_WALKS.parent.mkdir(exist_ok=True)
    with pytest.MonkeyPatch.context() as patch:
        GOLDEN_WALKS.write_text(walk_reports(patch), encoding="utf-8")
