"""Spans recorded from outside the program, around calls into its modules.

Modules bind imported names at import time, so a function is wrapped at
every module attribute that holds it (``idpoly.oracle.solve_lp``,
``idpoly.engine.torsion_check``, ...).  Spans stay in memory as columns
and are written once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

# layer name -> (defining module, function names); a generator's span covers
# each resumption, so its time is the time spent inside the generator.
LAYERS = {
    "simplex.solve": ("idpoly.simplex", ("solve_lp",)),
    "oracle.decide": ("idpoly.oracle", ("decide_normal_bruteforce",)),
    "oracle.enumerate": ("idpoly.oracle", ("enumerate_lattice_points",)),
    "oracle.membership": ("idpoly.oracle", ("lp_membership",)),
    "oracle.decompose": ("idpoly.oracle", ("integer_decomposition",)),
    "oracle.verify": ("idpoly.oracle", ("verify_witness",)),
    "intlinalg.torsion": ("idpoly.intlinalg", ("torsion_check",)),
    "intlinalg.torsion_verify": ("idpoly.intlinalg", ("verify_torsion_certificate",)),
    "hypergraph.build": ("idpoly.hypergraph", ("build_from_ideal",)),
    "hypergraph.reduce": ("idpoly.hypergraph", ("reduce_closed_fixpoint",)),
    "hypergraph.minors": ("idpoly.hypergraph", ("enumerate_minors",)),
    "certificates.connected_odd": ("idpoly.certificates", ("decide_connected_odd",)),
    "certificates.balanced": ("idpoly.certificates", ("balanced_uniform_rule",)),
    "certificates.bicolor": ("idpoly.certificates", ("bicolor_obstruction",)),
    "certificates.pair": ("idpoly.certificates", ("find_exceptional_pair",)),
    "certificates.lift": ("idpoly.certificates", ("lift_witness",)),
    "parsing.parse": ("idpoly.parsing", ("parse_ideal_text", "parse_matrix_text")),
    "report.render": ("idpoly.report", ("render_json",)),
    "engine.analyze": ("idpoly.engine", ("analyze",)),
}


class Tracer:
    """Span columns: layer, start and end (ns), parent span, instance."""

    def __init__(self) -> None:
        self.names = list(LAYERS)
        self.layer = array("b")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.instance = array("l")
        self.items = defaultdict(int)  # layer -> results yielded or returned
        self.current_instance = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def _open(self, layer: int) -> int:
        idx = len(self.layer)
        self.layer.append(layer)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.instance.append(self.current_instance)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, layer_name: str, fn):
        layer = self.names.index(layer_name)
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    idx = self._open(layer)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    self.items[layer_name] += 1
                    yield item

            return generator

        @functools.wraps(fn)
        def call(*args, **kwargs):
            idx = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if isinstance(result, list):
                self.items[layer_name] += len(result)
            return result

        return call

    def _collect(self) -> None:
        """Find every binding of every layer function in the loaded idpoly modules."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "idpoly" or name.startswith("idpoly."))]
        for layer_name, (home, functions) in LAYERS.items():
            for fn_name in functions:
                original = getattr(sys.modules.get(home), fn_name, None)
                if original is None:
                    print(f"trace: {home}.{fn_name} not found, layer unmeasured", file=sys.stderr)
                    continue
                wrapper = self._wrap(layer_name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original, wrapper))

    def __enter__(self):
        """Swap the wrappers in; leaving the block restores the originals."""
        if not self._patches:
            self._collect()
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, inclusive ns, self ns (span minus its children)."""
        n = len(self.layer)
        child_ns = [0] * n
        for idx in range(n):
            p = self.parent[idx]
            if p >= 0:
                child_ns[p] += self.end[idx] - self.start[idx]
        out = {name: {"calls": 0, "ns": 0, "self_ns": 0} for name in self.names}
        for idx in range(n):
            row = out[self.names[self.layer[idx]]]
            span = self.end[idx] - self.start[idx]
            row["calls"] += 1
            row["ns"] += span
            row["self_ns"] += span - child_ns[idx]
        return out

    def calls_under(self, child: str, parent: str) -> int:
        """Spans of one layer whose direct parent belongs to another."""
        c, p = self.names.index(child), self.names.index(parent)
        return sum(
            1 for idx in range(len(self.layer))
            if self.layer[idx] == c and self.parent[idx] >= 0
            and self.layer[self.parent[idx]] == p
        )

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = {
            "layer": self.layer.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "parent": self.parent.tolist(),
            "instance": self.instance.tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"layers": self.names, "spans": columns}, fh, separators=(",", ":"))
