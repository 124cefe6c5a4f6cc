"""The benchmark's inputs, generated here so that edits to the tests cannot move them.

Each workload is a fixed population of instances.  An instance carries the
text handed to the program and the benchmark's own view of the same input
(variables, generator supports, 0-1 vertex rows), which the correctness
gate uses without going through the program's parser.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path

FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"

# Every tests/data polytope with at most 9 vertices, copied into fixtures/,
# with its verdict.  veiled_minor10 (10 vertices, about 34 s alone) is left
# out for run length; ih1, ih2 and veiled exceed the oracle caps.
FIXTURE_VERDICTS = {
    "bowtie.ideal": "not_normal",
    "fig1.ideal": "normal",
    "fourcyc.ideal": "normal",
    "hex6.ideal": "not_normal",
    "k24.ideal": "not_normal",
    "sixtri.ideal": "normal",
    "solv3.ideal": "not_normal",
    "tri.ideal": "normal",
    "twin_d.ideal": "not_normal",
    "rem32.mat": "not_normal",
}

# Population seeds: the default one, and a held-out one for confirming a
# gain on inputs that were not looked at while the gain was made.
SMALL_SEEDS = {"default": 9001, "held-out": 9002}
SMALL_COUNT = 300
EDGE_SEEDS = {"default": 5, "held-out": 6}
EDGE_COUNT = 200
EDGE_NODES = 11
EDGE_EDGES = 14


@dataclass(frozen=True)
class Instance:
    name: str
    text: str
    variables: tuple[str, ...]
    supports: tuple[frozenset[str], ...]
    path: Path | None = None
    graph: tuple[tuple[str, str], ...] | None = None
    expected: str | None = None

    @property
    def vertices(self) -> tuple[tuple[int, ...], ...]:
        """Exponent rows of the generators: the vertices of the polytope."""
        return tuple(
            tuple(1 if v in sup else 0 for v in self.variables)
            for sup in self.supports
        )


def ideal_text(variables, supports) -> str:
    lines = ["vars: " + " ".join(variables)]
    for sup in supports:
        lines.append("*".join(v for v in variables if v in sup))
    return "\n".join(lines) + "\n"


def _read_ideal_file(text: str) -> tuple[tuple[str, ...], tuple[frozenset[str], ...]]:
    """Minimal reader for the fixture files: a vars line, then generators."""
    declared: list[str] = []
    supports: list[frozenset[str]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vars:"):
            declared = line[len("vars:"):].replace(",", " ").split()
            continue
        for piece in line.split(","):
            if piece.strip():
                supports.append(frozenset(f.strip() for f in piece.split("*")))
    used = set().union(*supports)
    variables = declared + sorted(used - set(declared))
    return tuple(variables), tuple(supports)


def _read_matrix_file(text: str) -> tuple[tuple[str, ...], tuple[frozenset[str], ...]]:
    rows = [r.split("#", 1)[0].split() for r in text.splitlines()]
    rows = [r for r in rows if r]
    _, dim = (int(x) for x in rows[0])
    variables = tuple(f"x{k}" for k in range(1, dim + 1))
    supports = tuple(
        frozenset(variables[j] for j, bit in enumerate("".join(row)) if bit == "1")
        for row in rows[1:]
    )
    return variables, supports


def fixtures() -> list[Instance]:
    out = []
    for name, verdict in FIXTURE_VERDICTS.items():
        path = FIXTURE_DIR / name
        text = path.read_text(encoding="utf-8")
        reader = _read_matrix_file if name.endswith(".mat") else _read_ideal_file
        variables, supports = reader(text)
        out.append(Instance(name, text, variables, supports, path=path, expected=verdict))
    return out


def random_minimal_ideal(rng: random.Random, max_vars: int = 9, max_gens: int = 6):
    """Small ideal whose supports form an antichain.

    The same draw sequence as the randomized acceptance suite's generator,
    so population 9001 is the criterion-9 mix.  Unused variables are
    dropped and the rest renamed x1..xk.
    """
    n = rng.randint(2, max_vars)
    goal = rng.randint(1, max_gens)
    pool = list(range(n))
    supports: list[frozenset[int]] = []
    for _ in range(60):
        if len(supports) == goal:
            break
        size = rng.randint(1, min(4, n))
        cand = frozenset(rng.sample(pool, size))
        if any(cand <= s or s <= cand for s in supports):
            continue
        supports.append(cand)
    used = sorted(set().union(*supports))
    rename = {old: f"x{i + 1}" for i, old in enumerate(used)}
    variables = tuple(rename[old] for old in used)
    return variables, tuple(frozenset(rename[v] for v in sup) for sup in supports)


def small_ideals(population: str) -> list[Instance]:
    rng = random.Random(SMALL_SEEDS[population])
    out = []
    for k in range(SMALL_COUNT):
        variables, supports = random_minimal_ideal(rng)
        out.append(Instance(f"small-{k}", ideal_text(variables, supports), variables, supports))
    return out


def random_graph(rng: random.Random, nodes: int, edges: int) -> list[tuple[int, int]]:
    return rng.sample(list(itertools.combinations(range(nodes), 2)), edges)


def edge_ideals(population: str) -> list[Instance]:
    """Edge ideals of uniform random graphs with a fixed node and edge count."""
    rng = random.Random(EDGE_SEEDS[population])
    out = []
    for k in range(EDGE_COUNT):
        pairs = random_graph(rng, EDGE_NODES, EDGE_EDGES)
        used = sorted(set(itertools.chain.from_iterable(pairs)))
        rename = {old: f"x{i + 1}" for i, old in enumerate(used)}
        variables = tuple(rename[old] for old in used)
        graph = tuple((rename[a], rename[b]) for a, b in pairs)
        supports = tuple(frozenset(e) for e in graph)
        out.append(
            Instance(f"edge-{k}", ideal_text(variables, supports), variables, supports, graph=graph)
        )
    return out
