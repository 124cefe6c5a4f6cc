"""idpoly benchmark: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload analyze-small --seed 1 --seconds 60 --trace 0

Run from the root of a checkout; the program is imported from its src/.
With --trace 0 the run times whole calls and prints the end-to-end
metrics; with --trace 1 it pairs every untraced call with a traced one and
prints the per-layer metrics.  Either way every output is checked after
the timed region, and the last line of stdout is one JSON object with
keys correct, attempted, failed and metrics.  Details, a result file and
the spans of a traced run go to perfbench/out/.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

import checks  # noqa: E402  (this directory is on sys.path as the script's own)
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
PROGRAM_MODULES = ("cli", "engine", "parsing", "report", "model", "hypergraph", "intlinalg")


def import_program() -> SimpleNamespace:
    """Import idpoly afresh, so every set-up pays the import."""
    for name in [n for n in sys.modules if n == "idpoly" or n.startswith("idpoly.")]:
        del sys.modules[name]
    return SimpleNamespace(
        **{name: importlib.import_module(f"idpoly.{name}") for name in PROGRAM_MODULES}
    )


def call_oracle(mods, instance) -> str:
    """The path of ``idpoly oracle --format json FILE``, in process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = mods.cli.main(["oracle", str(instance.path), "--format", "json"])
    if code != 0:
        raise RuntimeError(f"idpoly oracle exited with code {code}")
    return out.getvalue()


def call_analyze(mods, instance) -> str:
    """The path of ``idpoly analyze --format json``: parse, analyze, render."""
    ideal = mods.parsing.parse_ideal_text(instance.text)
    return mods.report.render_json(mods.engine.analyze(ideal))


WORKLOADS = {
    "oracle-fixtures": (workloads.fixtures, call_oracle),
    "analyze-small": (workloads.small_ideals, call_analyze),
    "analyze-edge": (workloads.edge_ideals, call_analyze),
}


def setup(workload: str, population: str):
    """Import, generate the inputs and parse each once; timed as set-up."""
    started = time.perf_counter()
    mods = import_program()
    make = WORKLOADS[workload][0]
    instances = make() if workload == "oracle-fixtures" else make(population)
    for inst in instances:
        if inst.path is not None and inst.path.suffix == ".mat":
            mods.parsing.parse_matrix_text(inst.text)
        else:
            mods.parsing.parse_ideal_text(inst.text)
    return time.perf_counter() - started, mods, instances


def without_stats(rendered: str) -> str:
    """The report minus its timing-dependent stats, which come last."""
    return rendered[: rendered.rfind('"stats"')]


class Outcomes:
    """Per instance: first output, timed samples, and failed calls."""

    def __init__(self, n: int) -> None:
        self.output: list[str | None] = [None] * n
        self.samples: list[list[float]] = [[] for _ in range(n)]
        self.failed = [0] * n
        self.problems: dict[int, str] = {}
        self.attempted = 0

    def record(self, i: int, seconds: float, rendered: str) -> None:
        self.samples[i].append(seconds)
        if self.output[i] is None:
            self.output[i] = rendered
        elif without_stats(rendered) != without_stats(self.output[i]):
            self.failed[i] += 1
            self.problems.setdefault(i, "output differs between repetitions")

    def fail(self, i: int, message: str) -> None:
        self.failed[i] += 1
        self.problems.setdefault(i, message)

    def timed(self, call, mods, instances, i: int) -> None:
        self.attempted += 1
        started = time.perf_counter()
        try:
            rendered = call(mods, instances[i])
        except Exception:  # a failing call is counted, never dropped
            self.fail(i, traceback.format_exc())
            return
        self.record(i, time.perf_counter() - started, rendered)


def measure(call, mods, instances, rng, seconds: float) -> Outcomes:
    """Shuffled passes until the time is up; the first pass always completes."""
    outcomes = Outcomes(len(instances))
    deadline = time.perf_counter() + seconds
    first = True
    while True:
        order = list(range(len(instances)))
        rng.shuffle(order)
        for i in order:
            if not first and time.perf_counter() >= deadline:
                return outcomes
            outcomes.timed(call, mods, instances, i)
        first = False


def measure_traced(call, mods, instances, rng, seconds: float):
    """Whole passes of paired calls, untraced then traced, while time allows."""
    untraced, traced = Outcomes(len(instances)), Outcomes(len(instances))
    tracer = tracing.Tracer()
    started = time.perf_counter()
    passes = 0
    while True:
        pass_started = time.perf_counter()
        order = list(range(len(instances)))
        rng.shuffle(order)
        for i in order:
            untraced.timed(call, mods, instances, i)
            tracer.current_instance = i
            with tracer:
                traced.timed(call, mods, instances, i)
        passes += 1
        now = time.perf_counter()
        if now - started + (now - pass_started) > seconds:
            return untraced, traced, tracer, passes


def gate(workload: str, population: str, mods, instances, outcomes: Outcomes) -> dict:
    """Check every output against its reference and re-check its certificate."""
    if workload == "analyze-small":
        seed = workloads.SMALL_SEEDS[population]
        expected = checks.load_small_reference(seed, instances)
    elif workload == "analyze-edge":
        expected = [
            "normal" if checks.odd_cycle_condition(inst.graph) else "not_normal"
            for inst in instances
        ]
    else:
        expected = [inst.expected for inst in instances]
    verdicts: dict[str, int] = {}
    for i, inst in enumerate(instances):
        if outcomes.output[i] is None:
            continue
        payload = json.loads(outcomes.output[i])
        verdict = payload["verdict"]
        verdicts[verdict] = verdicts.get(verdict, 0) + 1
        problem = None
        if verdict != "unknown" and verdict != expected[i]:
            problem = f"verdict {verdict}, reference says {expected[i]}"
        elif verdict == "unknown" and workload == "oracle-fixtures":
            problem = "the oracle gave no verdict"
        elif verdict == "not_normal":
            problem = checks.certificate_problem(mods, inst, payload)
        if problem is not None:
            outcomes.failed[i] += len(outcomes.samples[i])
            outcomes.problems.setdefault(i, problem)
    return verdicts


def machine_facts() -> dict:
    try:
        backend = importlib.import_module("idpoly.rationals").get_backend().name
    except (ImportError, AttributeError):
        backend = "none (integer-only core)"
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "idpoly").rglob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "rational_backend": backend,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def quantile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setup_times, instances, outcomes: Outcomes, verdicts: dict) -> dict:
    """Metric -> (value, unit, what the sample count counts)."""
    latencies = [statistics.median(s) for s in outcomes.samples if s]
    decided = verdicts.get("normal", 0) + verdicts.get("not_normal", 0)
    calls = f"n={sum(map(len, outcomes.samples))} calls"
    per_instance = f"n={len(latencies)} instances, each the median of its calls"
    return {
        "setup_s": (statistics.median(setup_times), "s", f"n={len(setup_times)} set-ups"),
        "total_s": (sum(latencies), "s", calls),
        "p50_ms": (quantile(latencies, 50) * 1000, "ms", per_instance),
        "p95_ms": (quantile(latencies, 95) * 1000, "ms", per_instance),
        "decided_frac": (decided / len(instances), "fraction", f"n={len(instances)} instances"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "n=1"),
    }


def per_layer(untraced: Outcomes, traced: Outcomes, tracer, passes: int) -> dict:
    """Metric -> (value, unit, sample count), each figure per traced pass."""
    layers = tracer.summary()
    n = f"n={passes} traced passes"

    def ms(name, key="ns"):
        return (layers[name][key] / 1e6 / passes, "ms", n)

    def count(value):
        return (value / passes, "count", n)

    solves = layers["simplex.solve"]
    points = tracer.items["oracle.enumerate"]
    in_enumeration = tracer.calls_under("simplex.solve", "oracle.enumerate")
    overhead = sum(map(sum, traced.samples)) - sum(map(sum, untraced.samples))
    return {
        "simplex.solves": count(solves["calls"]),
        "simplex.solve_ms": ms("simplex.solve"),
        "simplex.us_per_solve": (solves["ns"] / 1e3 / solves["calls"] if solves["calls"] else 0.0, "us", n),
        "oracle.enumerate_ms": ms("oracle.enumerate"),
        "oracle.lattice_points": count(points),
        "oracle.lps_per_point": (in_enumeration / points if points else 0.0, "ratio", n),
        "oracle.membership_ms": ms("oracle.membership"),
        "oracle.decompose_ms": ms("oracle.decompose"),
        "oracle.decompose_calls": count(layers["oracle.decompose"]["calls"]),
        "oracle.verify_ms": ms("oracle.verify"),
        "oracle.verify_calls": count(layers["oracle.verify"]["calls"]),
        "intlinalg.torsion_verify_ms": ms("intlinalg.torsion_verify"),
        "hypergraph.build_ms": ms("hypergraph.build"),
        "hypergraph.reduce_ms": ms("hypergraph.reduce"),
        "parsing.parse_ms": ms("parsing.parse"),
        "report.render_ms": ms("report.render"),
        "engine.self_ms": ms("engine.analyze", "self_ns"),
        "hypergraph.minors_ms": ms("hypergraph.minors"),
        "hypergraph.minors": count(tracer.items["hypergraph.minors"]),
        "intlinalg.torsion_ms": ms("intlinalg.torsion"),
        "intlinalg.torsion_calls": count(layers["intlinalg.torsion"]["calls"]),
        "certificates.connected_odd_ms": ms("certificates.connected_odd"),
        "certificates.balanced_ms": ms("certificates.balanced"),
        "certificates.bicolor_ms": ms("certificates.bicolor"),
        "certificates.pair_ms": ms("certificates.pair"),
        "certificates.lift_ms": ms("certificates.lift"),
        "trace.overhead_s": (overhead / passes, "s", n),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="orders the calls; the population is fixed (see NOTES.md)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="use the held-out population instead of the default one")
    args = parser.parse_args(argv)
    if args.held_out and args.workload == "oracle-fixtures":
        parser.error("oracle-fixtures has no held-out population")

    if not (ROOT / "src" / "idpoly" / "__init__.py").is_file():
        print(f"error: no idpoly sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    population = "held-out" if args.held_out else "default"

    setup_times = []
    for _ in range(SETUP_REPEATS):
        seconds, mods, instances = setup(args.workload, population)
        setup_times.append(seconds)
    call = WORKLOADS[args.workload][1]
    rng = random.Random(f"{args.workload}/{args.seed}")

    if args.trace:
        outcomes, traced, tracer, passes = measure_traced(call, mods, instances, rng, args.seconds)
        for i, rendered in enumerate(traced.output):
            if rendered is not None and outcomes.output[i] is not None \
                    and without_stats(rendered) != without_stats(outcomes.output[i]):
                traced.fail(i, "traced output differs from untraced output")
    else:
        outcomes = measure(call, mods, instances, rng, args.seconds)
    verdicts = gate(args.workload, population, mods, instances, outcomes)
    attempted, failed = outcomes.attempted, sum(outcomes.failed)
    if args.trace:
        attempted += traced.attempted
        failed += sum(traced.failed)
        for i, problem in traced.problems.items():
            outcomes.problems.setdefault(i, f"traced call: {problem}")

    if args.trace:
        metrics = per_layer(outcomes, traced, tracer, passes)
        trace_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_file)
    else:
        metrics = end_to_end(setup_times, instances, outcomes, verdicts)
        trace_file = None
    facts = machine_facts()

    print(f"workload {args.workload} ({population} population), seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}, {attempted} timed calls, {failed} failed")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"verdicts: {verdicts}; failed_frac {failed / attempted:.4f}")
    for i, problem in sorted(outcomes.problems.items()):
        print(f"FAILED {instances[i].name}: {problem.strip().splitlines()[-1]}")
    if args.workload == "oracle-fixtures":
        for inst, s in zip(instances, outcomes.samples):
            if s:
                print(f"  fixture {inst.name:14s} {statistics.median(s) * 1000:10.1f} ms (n={len(s)})")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:32s} {value:14.6f} {unit:8s} ({samples})")
    if trace_file is not None:
        print(f"spans written to {trace_file.relative_to(ROOT)}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    detail = dict(result, workload=args.workload, population=population, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, machine=facts, verdicts=verdicts,
                  setup_times_s=setup_times,
                  instance_ms={inst.name: [x * 1000 for x in s]
                               for inst, s in zip(instances, outcomes.samples)},
                  problems={instances[i].name: p for i, p in outcomes.problems.items()})
    (OUT / f"result-{args.workload}-trace{args.trace}-seed{args.seed}.json").write_text(
        json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
