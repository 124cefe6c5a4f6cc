"""The split between the prover and the checker, and what idpoly imports.

The checker is oracle's verify_coefficients and verify_witness and the
clause runner _check_numerators that both call; its last clause is the
decomposition search, integer_decomposition.  The oracle proves with
vertex_sums and the exact simplex.  Read from the syntax trees of
src/idpoly: only the clause runner names the search, and no checker
function names a prover step, so a certificate is re-checked by a search
the prover does not share.  And no idpoly module imports fractions.
"""

from __future__ import annotations

import ast

from conftest import ROOT, run_python

SRC = ROOT / "src" / "idpoly"
CHECKER = ("_check_numerators", "verify_coefficients", "verify_witness")
PROVER_STEPS = frozenset(("vertex_sums", "lp_membership", "solve_lp", "objective_range"))


def _trees() -> dict[str, ast.Module]:
    paths = sorted(SRC.glob("*.py"))
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


def _names_used() -> dict[str, set[str]]:
    """The names that each function, method and module body uses, bare or as attributes.

    Keys are ``module.function``, ``module.Class.method`` and ``module``
    for the statements outside any function.
    """
    used: dict[str, set[str]] = {}
    for module, tree in _trees().items():
        for top in tree.body:
            is_class = isinstance(top, ast.ClassDef)
            prefix = f"{module}.{top.name}." if is_class else f"{module}."
            for node in top.body if is_class else [top]:
                key = prefix + node.name if isinstance(node, ast.FunctionDef) else module
                names = used.setdefault(key, set())
                for child in ast.walk(node):
                    if isinstance(child, ast.Name):
                        names.add(child.id)
                    elif isinstance(child, ast.Attribute):
                        names.add(child.attr)
    return used


def test_only_the_clause_runner_names_the_decomposition_search():
    used = _names_used()
    assert sorted(key for key, names in used.items() if "integer_decomposition" in names) == [
        "oracle._check_numerators"
    ]


def test_the_checker_names_no_prover_step():
    used = _names_used()
    assert {name: used[f"oracle.{name}"] & PROVER_STEPS for name in CHECKER} == {
        name: set() for name in CHECKER
    }


def test_no_idpoly_module_imports_fractions():
    importers = [
        module
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "fractions"
        or isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)
    ]
    assert importers == []


def test_every_module_imports_with_fractions_blocked():
    # a None entry makes any import of the module fail; decimal and
    # numbers came in only through fractions
    modules = ["idpoly"] + [
        f"idpoly.{path.stem}" for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"
    ]
    script = "\n".join(
        (
            "import importlib, sys",
            "sys.modules['fractions'] = None",
            f"for name in {modules!r}:",
            "    importlib.import_module(name)",
            "print(sorted(m for m in ('decimal', 'numbers') if m in sys.modules))",
        )
    )
    result = run_python(script)
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")
