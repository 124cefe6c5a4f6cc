"""One-off tools behind the benchmark's references.

    python3 perfbench/record.py small        # rewrite reference_small.json
    python3 perfbench/record.py odd-cycle    # check the odd cycle condition

``small`` runs the oracle on the unreduced polytope of every analyze-small
instance, for the default and the held-out population, and stores the
verdicts with a digest of the inputs.  ``odd-cycle`` compares the
benchmark's odd cycle condition with the oracle on small graphs, connected
or not: half uniform random, half built around two vertex-disjoint odd
cycles.  It exits non-zero on any disagreement.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from idpoly.model import ZeroOnePolytope  # noqa: E402
from idpoly.oracle import decide_normal_bruteforce  # noqa: E402


def oracle_verdict(instance) -> str:
    return decide_normal_bruteforce(ZeroOnePolytope(instance.vertices)).status


def record_small() -> None:
    reference = {}
    for population, seed in workloads.SMALL_SEEDS.items():
        instances = workloads.small_ideals(population)
        reference[str(seed)] = {
            "population": population,
            "digest": checks.population_digest(instances),
            "verdicts": [oracle_verdict(inst) for inst in instances],
        }
        print(f"population {seed}: {len(instances)} verdicts", flush=True)
    checks.REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n")


def check_graph(rng: random.Random, k: int) -> list[tuple[int, int]]:
    """Even k: random; odd k: two disjoint odd cycles plus up to 2 random edges."""
    if k % 2 == 0:
        nodes = rng.randint(4, 8)
        return workloads.random_graph(rng, nodes, rng.randint(3, min(8, nodes * (nodes - 1) // 2)))
    second = rng.choice((3, 5))
    nodes = 3 + second + rng.randint(0, 8 - 3 - second)
    cycles = [[0, 1, 2], list(range(3, 3 + second))]
    edges = {tuple(sorted((c[i], c[(i + 1) % len(c)]))) for c in cycles for i in range(len(c))}
    rest = [e for e in itertools.combinations(range(nodes), 2) if e not in edges]
    edges |= set(rng.sample(rest, min(len(rest), rng.randint(0, 8 - len(edges)))))
    names = list(range(nodes))
    rng.shuffle(names)
    return [(names[a], names[b]) for a, b in sorted(edges)]


def check_odd_cycle(count: int = 80) -> int:
    rng = random.Random(1998)
    mismatches = negative = 0
    for k in range(count):
        graph = [(f"x{a}", f"x{b}") for a, b in check_graph(rng, k)]
        variables = tuple(sorted({v for e in graph for v in e}))
        inst = workloads.Instance(f"graph-{k}", "", variables, tuple(frozenset(e) for e in graph))
        truth = oracle_verdict(inst)
        condition = "normal" if checks.odd_cycle_condition(graph) else "not_normal"
        negative += truth == "not_normal"
        if truth != condition:
            mismatches += 1
            print(f"MISMATCH {graph}: oracle {truth}, odd cycle condition {condition}")
    print(f"{count} graphs, {negative} not normal, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["small"]:
        record_small()
    elif sys.argv[1:] == ["odd-cycle"]:
        sys.exit(check_odd_cycle())
    else:
        sys.exit(__doc__)
