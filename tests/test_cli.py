from __future__ import annotations

import json
import textwrap

import pytest

from conftest import DATA, ROOT, data_path, run_python
from randutil import cycle_edge_ideal, ideal_text, linked_cycles_ideal


def test_analyze_json_rem32(run_cli):
    code, out, err = run_cli("analyze", data_path("rem32.mat"), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == [
        "verdict",
        "rule",
        "paper_rule",
        "witness",
        "torsion_certificate",
        "reductions",
        "minor_trace",
        "verified",
        "stats",
    ]
    assert payload["verdict"] == "not_normal"
    assert payload["rule"] == "thm-4.1"
    assert payload["paper_rule"] == (
        "Theorem 4.1: even vertex count, no even-dimensional edge"
    )
    assert payload["witness"] == {
        "coefficients": ["1/2"] * 6,
        "degree": 3,
        "point": [1, 1, 1, 1, 1, 1, 1],
    }
    assert payload["torsion_certificate"] is None
    assert payload["reductions"] == []
    assert payload["minor_trace"] is None
    assert payload["verified"] is True
    assert payload["stats"]["diagnostics"] == [
        ["thm-4.1", "not_normal: vertex count 6 is even and every edge has odd dimension"],
        ["prop-3.5", "inapplicable: generator degrees not uniform: (2,2,3,2,2,3)"],
        ["rem-3.2", "not_normal: invariant factor 2"],
        ["thm-4.5", "inapplicable: no unbalanced simple edge"],
        ["thm-4.8", "inapplicable: no exceptional pair found"],
        ["odd-cycle", "inapplicable: generator 3 has degree 3, not 2"],
    ]


def test_analyze_json_byte_stable_modulo_stats(run_cli):
    code1, out1, _ = run_cli("analyze", data_path("twin_d.ideal"), "--format", "json")
    code2, out2, _ = run_cli("analyze", data_path("twin_d.ideal"), "--format", "json")
    assert code1 == code2 == 0
    a, b = json.loads(out1), json.loads(out2)
    a.pop("stats")
    b.pop("stats")
    assert json.dumps(a, indent=2) == json.dumps(b, indent=2)


def test_analyze_text_cites_rule(run_cli):
    code, out, _ = run_cli("analyze", data_path("rem32.mat"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "verdict: not_normal"
    assert lines[1] == (
        "rule: thm-4.1 (Theorem 4.1: even vertex count, no even-dimensional edge)"
    )
    assert lines[2] == "verified: yes"
    assert "  coefficients: 1/2, 1/2, 1/2, 1/2, 1/2, 1/2" in lines
    assert "  point: (1, 1, 1, 1, 1, 1, 1)" in lines


def test_analyze_minor_trace_text(run_cli):
    code, out, _ = run_cli("analyze", data_path("mix41.ideal"))
    assert code == 0
    assert "rule: thm-3.8 (Theorem 3.8: non-normal minor)" in out
    assert "torsion certificate:" in out
    assert "  scope: minor" in out
    assert "  multiplier: 2" in out
    assert "  vector: (0, 0, 0, 0, 0, 0, 1, 1, 1, 1)" in out
    assert "  deleted edges: {6,9,10,12}" in out
    assert "  surviving vertices: 1, 2, 3, 4, 5, 7, 8, 11" in out
    assert "  rule: rem-3.2" in out
    # twin_d, whose walk ended the same way, is now settled by the
    # odd-cycle rule's witness before the walk
    code, out, _ = run_cli("analyze", data_path("twin_d.ideal"))
    assert code == 0
    assert "rule: odd-cycle (Ohsugi-Hibi 1998, Simis-Vasconcelos-Villarreal 1998: " in out
    assert "  coefficients: 1/2, 1/2, 1/2, 0/1, 0/1, 1/2, 1/2, 1/2, 0/1" in out
    assert "  point: (1, 1, 1, 1, 1, 1, 0, 0)" in out
    assert "minor:" not in out


def test_analyze_exit_codes(run_cli):
    # mix41 keeps 12 vertices after reduction, past the oracle's cap, so
    # only its minor walk decides it
    code, out, _ = run_cli("analyze", data_path("mix41.ideal"), "--no-minors")
    assert code == 3
    code, out, _ = run_cli("analyze", data_path("mix41.ideal"))
    assert code == 0
    # veiled is decided by the odd-cycle rule, with or without minors
    for flags in ((), ("--no-minors",)):
        code, out, _ = run_cli("analyze", data_path("veiled.ideal"), *flags)
        assert code == 0
        assert out.startswith("verdict: not_normal\nrule: odd-cycle ")


def test_analyze_a_cycle_longer_than_the_recursion_limit(run_cli, tmp_path):
    # prop-3.5's special-cycle search closes the 1201-cycle 1201 vertices
    # deep, past the interpreter's default limit of 1000 frames
    path = tmp_path / "cycle1201.ideal"
    path.write_text(ideal_text(cycle_edge_ideal(1201)))
    code, out, _ = run_cli("analyze", str(path))
    assert code == 0
    assert out.startswith("verdict: normal\nrule: thm-4.1 ")
    assert "\n  prop-3.5: inapplicable: special odd cycle on vertices (1, 2, 3, " in out
    code, out, _ = run_cli("hypergraph", str(path))
    assert code == 0
    assert "\nbalanced: no\n" in out


@pytest.mark.parametrize("length", [15, 51])
def test_analyze_linked_odd_cycles_within_the_pair_budget(run_cli, tmp_path, length):
    # Theorem 4.8's all-halves test on the two cycles runs out of the pair
    # budget, and the odd-cycle rule decides
    path = tmp_path / f"linked{length}.ideal"
    path.write_text(ideal_text(linked_cycles_ideal(length)))
    code, out, _ = run_cli("analyze", str(path))
    assert code == 0
    assert out.startswith("verdict: not_normal\nrule: odd-cycle ")
    assert "\nverified: yes\n" in out
    assert (
        "\n  thm-4.8: budget_exceeded: exceptional-pair search exceeded its budget of 200000 nodes\n"
        in out
    )


def test_analyze_missing_file(run_cli):
    code, out, err = run_cli("analyze", data_path("nonexistent.ideal"))
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


def test_analyze_unseparated_pair_rejected(run_cli, tmp_path):
    # two generators sharing both variables cannot happen (duplicates are
    # rejected), but a variable pair that always appears together can:
    # the hypergraph stays separated only through some third generator
    bad = tmp_path / "bad.ideal"
    bad.write_text("vars: a b\na*b, a*b\n")
    code, _, err = run_cli("analyze", str(bad))
    assert code == 2
    assert "identical" in err


def test_hypergraph_fig1_text(run_cli):
    code, out, _ = run_cli("hypergraph", data_path("fig1.ideal"))
    assert code == 0
    assert out == (
        "vertices: 4\n"
        "edges: 7\n"
        "  {1,2}: a, f\n"
        "  {1,3,4}: h\n"
        "  {2}: e\n"
        "  {2,4}: g\n"
        "  {2,3,4}: i, j\n"
        "  {3}: b, c\n"
        "  {4}: d\n"
        "closed vertices: 2, 3, 4\n"
        "open vertices: 1\n"
        "separated: yes\n"
        "skeleton edges: {1,2}; {2,4}\n"
        "skeleton connected: no\n"
        "skeleton bipartite: yes\n"
        "balanced: no\n"
    )


def test_hypergraph_json(run_cli):
    code, out, _ = run_cli("hypergraph", data_path("tri.ideal"), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["vertices"] == 3
    assert payload["separated"] is True
    assert payload["skeleton"]["connected"] is True
    assert payload["skeleton"]["bipartite"] is False
    assert payload["balanced"] is False
    assert payload["edges"] == [
        {"vertices": [1, 2], "labels": ["u"]},
        {"vertices": [1, 3], "labels": ["v"]},
        {"vertices": [2, 3], "labels": ["w"]},
    ]


def test_reduce_fig1_text(run_cli):
    code, out, _ = run_cli("reduce", data_path("fig1.ideal"))
    assert code == 0
    assert out == (
        "rounds: 2\n"
        "  round 1: removed vertex 2 (label e), vertex 3 (label b), vertex 4 (label d)\n"
        "  round 2: removed vertex 1 (label a)\n"
        "surviving vertices: none\n"
        "resulting ideal: empty\n"
        "verdict: normal\n"
    )


def test_reduce_json_untouched_instance(run_cli):
    code, out, _ = run_cli("reduce", data_path("tri.ideal"), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rounds"] == []
    assert payload["surviving_vertices"] == [1, 2, 3]
    assert payload["ideal"]["variables"] == ["u", "v", "w"]
    assert payload["ideal"]["generators"] == ["u*v", "u*w", "v*w"]
    assert payload["verdict"] == "undecided"


def test_verify_invalid_witness(run_cli):
    code, out, _ = run_cli(
        "verify", data_path("tri.ideal"), "--witness", data_path("bad.w")
    )
    assert code == 0
    assert out == "invalid: point not integral\n"


def test_verify_valid_witness(run_cli):
    code, out, _ = run_cli(
        "verify", data_path("rem32.mat"), "--witness", data_path("rem32_good.w")
    )
    assert code == 0
    assert out == "valid: witness of degree 3\n"


def test_verify_names_the_least_decomposition(run_cli):
    # all halves on the four-cycle land on (1, 1, 1, 1) at degree 2, which
    # is v1 + v3 and v2 + v4; the report names the lexicographically least
    code, out, _ = run_cli(
        "verify", data_path("fourcyc.ideal"), "--witness", data_path("fourcyc_halves.w")
    )
    assert code == 0
    assert out == "invalid: point admits the integer decomposition (0, 1, 0, 1)\n"


def test_verify_count_mismatch_is_completed_run(run_cli):
    # wrong arity is a verdict about the witness, not an input error
    code, out, _ = run_cli(
        "verify", data_path("rem32.mat"), "--witness", data_path("bad.w")
    )
    assert code == 0
    assert out.startswith("invalid: coefficient count mismatch")


def test_verify_malformed_witness_file(run_cli, tmp_path):
    broken = tmp_path / "broken.w"
    broken.write_text("1/2\nnot-a-number\n")
    code, _, err = run_cli(
        "verify", data_path("tri.ideal"), "--witness", str(broken)
    )
    assert code == 2
    assert "cannot parse rational" in err


def test_verify_json(run_cli):
    code, out, _ = run_cli(
        "verify",
        data_path("rem32.mat"),
        "--witness",
        data_path("rem32_good.w"),
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert payload["reason"] is None
    assert payload["witness"]["degree"] == 3


def test_oracle_rem32(run_cli):
    code, out, _ = run_cli("oracle", data_path("rem32.mat"), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "not_normal"
    assert payload["rule"] == "oracle"
    assert payload["witness"]["coefficients"] == ["1/2"] * 6
    assert payload["witness"]["degree"] == 3
    assert payload["verified"] is True
    assert payload["reductions"] == []
    assert payload["stats"]["oracle_degrees"] == [2, 3]
    assert payload["stats"]["bound"] == 4


def test_oracle_does_not_reduce(run_cli):
    # fig1 reduces to nothing in the engine, but the oracle subcommand
    # scans the polytope as given
    code, out, _ = run_cli("oracle", data_path("fig1.ideal"), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "normal"
    assert payload["reductions"] == []
    assert payload["stats"]["oracle_degrees"] == [2]


def test_oracle_truncation_exit_code(run_cli):
    code, out, _ = run_cli(
        "oracle",
        data_path("sixtri.ideal"),
        "--oracle-max-degree",
        "2",
        "--format",
        "json",
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["verdict"] == "unknown"
    assert payload["rule"] is None


def plant_wrong_oracle_point(monkeypatch):
    """Make the oracle's witness declare the zero point, which fails re-checking."""
    from dataclasses import replace

    from idpoly import engine
    from idpoly.certificates import Witness

    real = engine.decide_normal_bruteforce

    def bad_witness(polytope, **kwargs):
        verdict = real(polytope, **kwargs)
        w = verdict.witness
        wrong_point = Witness(w.denominator, w.numerators, w.degree, (0,) * len(w.point))
        return replace(verdict, witness=wrong_point)

    monkeypatch.setattr(engine, "decide_normal_bruteforce", bad_witness)


def test_oracle_demotes_witness_that_fails_verification(run_cli, monkeypatch):
    plant_wrong_oracle_point(monkeypatch)
    code, out, _ = run_cli("oracle", data_path("rem32.mat"), "--format", "json")
    assert code == 3
    payload = json.loads(out)
    assert payload["verdict"] == "unknown"
    assert payload["rule"] is None
    assert payload["witness"] is None
    assert payload["verified"] is False
    assert payload["stats"]["diagnostics"] == [
        [
            "oracle",
            "demoted: witness failed verification: "
            "declared point does not match the coefficient combination",
        ]
    ]


def test_oracle_no_verify_rem32(run_cli):
    code, out, _ = run_cli(
        "oracle", data_path("rem32.mat"), "--no-verify", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "not_normal"
    assert payload["rule"] == "oracle"
    assert payload["witness"]["coefficients"] == ["1/2"] * 6
    assert payload["witness"]["point"] == [1] * 7
    assert payload["verified"] is False
    assert payload["stats"]["diagnostics"] == []


def test_oracle_no_verify_keeps_witness_as_given(run_cli, monkeypatch):
    plant_wrong_oracle_point(monkeypatch)
    code, out, _ = run_cli(
        "oracle", data_path("rem32.mat"), "--no-verify", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "not_normal"
    assert payload["rule"] == "oracle"
    assert payload["witness"] == {
        "coefficients": ["1/2"] * 6,
        "degree": 3,
        "point": [0] * 7,
    }
    assert payload["verified"] is False
    assert payload["stats"]["diagnostics"] == []


def test_matrix_with_dominated_row_rejected(run_cli, tmp_path):
    mat = tmp_path / "dominated.mat"
    mat.write_text("2 3\n110\n100\n")
    code, out, err = run_cli("analyze", str(mat), "--format", "json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: rows 2 and 1 are comparable")


@pytest.mark.parametrize("command", ["analyze", "oracle", "verify"])
def test_comparable_rows_rejected_by_every_command(run_cli, tmp_path, command):
    # minimalized, these rows read as normal; the oracle on the four rows as
    # given finds a degree-2 witness with every coefficient 1/2
    mat = tmp_path / "comparable.mat"
    mat.write_text("4 5\n00010\n01100\n10000\n11110\n")
    witness = tmp_path / "halves.w"
    witness.write_text("1/2\n1/2\n1/2\n1/2\n")
    extra = ("--witness", str(witness)) if command == "verify" else ()
    code, out, err = run_cli(command, str(mat), *extra)
    assert code == 2
    assert out == ""
    assert err == (
        "error: rows 1 and 4 are comparable: every 1 of row 1 is also in row 4, "
        "so they are not the exponents of a minimal generating set\n"
    )


@pytest.mark.parametrize("target", ["input", "witness"])
def test_undecodable_file_rejected(run_cli, tmp_path, target):
    garbage = tmp_path / "latin1.txt"
    garbage.write_bytes(b"1/2\n\xe9\n")
    if target == "input":
        argv = ("analyze", str(garbage))
    else:
        argv = ("verify", data_path("rem32.mat"), "--witness", str(garbage))
    code, out, err = run_cli(*argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {garbage}: not UTF-8 text (byte 4)\n"


def test_bad_matrix_rejected(run_cli, tmp_path):
    mat = tmp_path / "bad.mat"
    mat.write_text("2 2\n10\n10\n")
    code, _, err = run_cli("analyze", str(mat))
    assert code == 2
    assert "duplicate vertex" in err


def test_non_ascii_matrix_header_rejected(run_cli, tmp_path):
    mat = tmp_path / "superscript.mat"
    mat.write_text("\u00b2 3\n101\n011\n", encoding="utf-8")
    code, out, err = run_cli("analyze", str(mat))
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 1: expected header")


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--minor-budget", "-1"),
        ("analyze", "--oracle-max-degree", "-1"),
        ("oracle", "--oracle-max-degree", "-1"),
    ],
)
def test_negative_budgets_rejected(run_cli, argv):
    command, flag, value = argv
    code, out, err = run_cli(command, data_path("tri.ideal"), flag, value)
    assert code == 2
    assert out == ""
    assert f"error: argument {flag}: N cannot be negative, got -1" in err


def test_seed_flag_accepted(run_cli):
    code, _, _ = run_cli("analyze", data_path("tri.ideal"), "--seed", "42")
    assert code == 0


def test_unknown_flag_is_input_error(run_cli):
    code, _, err = run_cli("analyze", data_path("tri.ideal"), "--frobnicate")
    assert code == 2


def test_no_arguments_is_input_error(run_cli):
    code, _, _ = run_cli()
    assert code == 2


def test_help_exits_zero(run_cli):
    code, out, _ = run_cli("--help")
    assert code == 0
    assert "analyze" in out


def test_relaxed_connection_flag(run_cli):
    code, out, _ = run_cli(
        "analyze",
        data_path("twin_d.ideal"),
        "--relaxed-connection",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rule"] == "thm-4.8"
    assert payload["witness"]["coefficients"] == [
        "1/2", "1/2", "1/2", "0/1", "0/1", "1/2", "1/2", "1/2", "0/1",
    ]


def test_no_verify_flag(run_cli):
    code, out, _ = run_cli(
        "analyze", data_path("hex6.ideal"), "--no-verify", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "not_normal"
    assert payload["verified"] is False


def _without_elapsed(fmt, out):
    if fmt == "json":
        payload = json.loads(out)
        del payload["stats"]["elapsed_ms"]
        return payload
    return [line for line in out.splitlines() if not line.startswith("elapsed:")]


@pytest.mark.parametrize(
    "name", sorted(p.name for p in DATA.iterdir() if p.suffix in (".ideal", ".mat"))
)
def test_no_minors_is_minor_budget_zero(run_cli, name):
    for fmt in ("json", "text"):
        argv = ("analyze", data_path(name), "--format", fmt)
        code_a, out_a, err_a = run_cli(*argv, "--no-minors")
        code_b, out_b, err_b = run_cli(*argv, "--minor-budget", "0")
        assert (code_a, err_a) == (code_b, err_b)
        assert _without_elapsed(fmt, out_a) == _without_elapsed(fmt, out_b)


def _cli_step_script() -> str:
    """The script of the tier-1 workflow's step that runs the CLI without the test dependencies."""
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    step = workflow.split("- name: The CLI runs without the test dependencies\n", 1)[1]
    return textwrap.dedent(step.split("<<'EOF'\n", 1)[1].split("\n          EOF\n", 1)[0])


def test_the_cli_step_runs_with_fractions_blocked():
    # the step blocks fractions with the test dependencies, and each of its
    # argv exits with the code it expects, and verify prints what it expects
    script = _cli_step_script()
    assert '"fractions"):\n    sys.modules[name] = None\n' in script
    result = run_python(script)
    assert (result.returncode, result.stderr) == (0, "")


def test_the_cli_step_requires_the_bowtie_golden_lines():
    # the reasons the step requires of analyze on the bowtie are lines of
    # its golden report
    script = _cli_step_script()
    golden = (ROOT / "tests" / "data" / "golden" / "text" / "bowtie.ideal.txt").read_text(
        encoding="utf-8"
    )
    for line in (
        "prop-3.5: inapplicable: special odd cycle on vertices (1, 2, 3)",
        "thm-4.8: not_normal: cycles (2, 1, 3) and (6, 8, 7)",
    ):
        assert f'"{line}"' in script
        assert f"  {line}\n" in golden
