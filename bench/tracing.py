"""Outside-in tracing of `semihyp`: spans around calls into each module.

`Tracer.install` wraps a fixed set of public functions and methods, one per
layer boundary, and rebinds each wrapper in every `semihyp.*` namespace that
holds the original, so `cli`'s `from` imports and the `linprog` names
imported into `actions` and `amenability` are traced too.  A span records
its layer key, start, end, parent span and job id; spans stay in memory.
Counts come from the traced calls' public inputs and return values and are
computed after the pass, so they add nothing to the timed spans.

A layer's self time is its spans' durations minus the time of their direct
traced children.  Every `*_s` metric below is a self time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction
from typing import Any, Callable, Optional

Probe = Callable[[tuple, Any], dict]


def _assoc(args: tuple, result: Any) -> dict:
    s = args[0]
    support = sum(len(m.support()) for row in s.table.entries for m in row)
    return {
        "triples": s.n ** 3,
        "support": support,  # nonzero weights in the n * n * n table
        "structure": (s.name, frozenset(s.space.labels)),
    }


def _bits(values) -> int:
    return max(
        (max(Fraction(v).numerator.bit_length(), Fraction(v).denominator.bit_length())
         for v in values or ()),
        default=0,
    )


def _lp(args: tuple, result: Any) -> dict:
    problem = args[0]
    return {
        "rows": problem.n_rows,
        "vars": problem.n_vars,
        "pivots": result.pivots,
        "infeasible": int(result.status == "infeasible"),
        "bits": max(_bits(result.witness), _bits(result.certificate)),
    }


def _linsys(args: tuple, result: Any) -> dict:
    return {"rows": len(args[0])}


def _iterate(args: tuple, result: Any) -> dict:
    return {"iterations": result.iterations}


def _read(args: tuple, result: Any) -> dict:
    return {"bytes_read": len(args[0].encode()) if args and isinstance(args[0], str) else 0}


def _written(args: tuple, result: Any) -> dict:
    return {"bytes_written": len(result.encode())}


# (module, qualified name, layer key, probe): one row per traced boundary
TARGETS: tuple[tuple[str, str, str, Optional[Probe]], ...] = (
    ("algebra", "check_associativity", "algebra.assoc", _assoc),
    ("algebra", "check_probability", "algebra.prob", None),
    ("algebra", "find_identity", "algebra.identity", None),
    ("algebra", "check_commutative", "algebra.commutative", None),
    ("linprog", "solve_lp_feasibility", "linprog.lp", _lp),
    ("linprog", "solve_linear_system", "linprog.linsys", _linsys),
    ("amenability", "left_invariance_problem", "amenability.problem", None),
    ("amenability", "left_invariant_mean_solution", "amenability.problem", None),
    ("amenability", "verify_left_invariant_mean", "amenability.verify", None),
    ("functions", "left_translate", "functions.translate", None),
    ("actions", "check_action_axiom", "actions.axiom", None),
    ("actions", "DualAction.action_report", "actions.dual_axiom", None),
    ("actions", "mean_via_dual_action", "actions.dual_route_self", None),
    ("actions", "check_invariance", "actions.invariance", None),
    ("actions", "check_nonexpansive", "actions.nonexpansive", None),
    ("actions", "equicontinuity_bound", "actions.nonexpansive", None),
    ("actions", "common_fixed_point_solution", "actions.fixpoint_self", None),
    ("actions", "iterate_fixed_point", "actions.iterate", _iterate),
    ("construct", "from_semigroup", "construct.self", None),
    ("construct", "triple_hypergroup", "construct.self", None),
    ("construct", "coset_space", "construct.self", None),
    ("construct", "double_coset_space", "construct.self", None),
    ("construct", "orbit_space", "construct.self", None),
    ("construct", "CayleyTable.associativity_witness", "construct.cayley_assoc", None),
    ("files", "parse_structure", "files.parse", _read),
    ("files", "parse_group", "files.parse", _read),
    ("files", "parse_group_action", "files.parse", _read),
    ("files", "parse_affine_action", "files.parse", _read),
    ("files", "sort_points", "files.render", None),
    ("files", "canonical_structure_json", "files.render", _written),
    ("files", "ReportDocument.to_json", "files.render", _written),
    ("files", "ReportDocument.to_text", "files.render", _written),
    ("cli", "main", "cli.self", None),
)

# every per-layer metric the tracer reports, with its unit and direction
LAYER_METRICS: tuple[tuple[str, str, str], ...] = (
    ("algebra.assoc_s", "s", "lower"),
    ("algebra.assoc_calls", "count", "lower"),
    ("algebra.assoc_calls_per_structure", "count", "lower"),
    ("algebra.assoc_triples", "count", "lower"),
    ("algebra.support_density", "ratio", "lower"),
    ("algebra.prob_s", "s", "lower"),
    ("algebra.identity_s", "s", "lower"),
    ("algebra.commutative_s", "s", "lower"),
    ("linprog.lp_s", "s", "lower"),
    ("linprog.lp_calls", "count", "lower"),
    ("linprog.lp_rows", "count", "lower"),
    ("linprog.lp_vars", "count", "lower"),
    ("linprog.pivots", "count", "lower"),
    ("linprog.infeasible_calls", "count", "lower"),
    ("linprog.max_bits", "bits", "lower"),
    ("linprog.linsys_s", "s", "lower"),
    ("linprog.linsys_rows", "count", "lower"),
    ("amenability.problem_s", "s", "lower"),
    ("amenability.verify_s", "s", "lower"),
    ("amenability.verify_calls", "count", "lower"),
    ("functions.translate_s", "s", "lower"),
    ("functions.translate_calls", "count", "lower"),
    ("actions.axiom_s", "s", "lower"),
    ("actions.dual_axiom_s", "s", "lower"),
    ("actions.dual_route_self_s", "s", "lower"),
    ("actions.invariance_s", "s", "lower"),
    ("actions.nonexpansive_s", "s", "lower"),
    ("actions.fixpoint_self_s", "s", "lower"),
    ("actions.iterate_s", "s", "lower"),
    ("actions.iterations", "count", "lower"),
    ("actions.iterations_per_s", "1/s", "higher"),
    ("construct.self_s", "s", "lower"),
    ("construct.cayley_assoc_s", "s", "lower"),
    ("construct.calls", "count", "lower"),
    ("files.parse_s", "s", "lower"),
    ("files.render_s", "s", "lower"),
    ("files.bytes_read", "bytes", "lower"),
    ("files.bytes_written", "bytes", "lower"),
    ("cli.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.construct_s", "s", "lower"),
    ("cli.check_s", "s", "lower"),
    ("cli.lim_s", "s", "lower"),
    ("cli.fixpoint_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("bench.raw_wall_s", "s", "lower"),
    ("bench.probe_s", "s", "lower"),
)


class Span:
    __slots__ = ("key", "start", "end", "parent", "job", "probe", "args", "result")

    def __init__(self, key: str, parent: int, job: str, probe: Optional[Probe]):
        self.key, self.parent, self.job, self.probe = key, parent, job, probe
        self.start = self.end = 0.0
        self.args: tuple = ()
        self.result: Any = None


class Tracer:
    """Installs the wrappers, collects spans, and turns them into metrics."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job = ""
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn: Callable, probe: Optional[Probe]) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(key, stack[-1] if stack else -1, self.job, probe)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if probe is not None:
                span.args, span.result = args, result
            return result

        return traced

    def install(self) -> None:
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "semihyp" or name.startswith("semihyp."))
        ]
        for module_name, qualname, key, probe in TARGETS:
            owner = sys.modules[f"semihyp.{module_name}"]
            *classes, attr = qualname.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = vars(owner)[attr]
            if classes:
                if isinstance(original, functools.cached_property):
                    wrapped = functools.cached_property(self._wrap(key, original.func, probe))
                    wrapped.__set_name__(owner, attr)
                else:
                    wrapped = self._wrap(key, original, probe)
                self._rebind(owner, attr, wrapped)
                continue
            wrapped = self._wrap(key, original, probe)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, name, wrapped)

    def _rebind(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def metrics(self, first: int, last: int) -> dict[str, float]:
        """Per-layer metrics over spans[first:last] (one traced pass)."""
        spans = self.spans[first:last]
        children = [0.0] * len(spans)
        for span in spans:
            if span.parent >= first:
                children[span.parent - first] += span.end - span.start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        counts: Counter = Counter()
        structures = set()
        max_bits = 0
        for i, span in enumerate(spans):
            self_s[span.key] += span.end - span.start - children[i]
            calls[span.key] += 1
            if span.probe is None:
                continue
            info = span.probe(span.args, span.result)
            if "bytes_read" in info and span.parent >= first and \
                    spans[span.parent - first].key == "files.parse":
                continue  # nested parse of an already-counted document
            structures.add(info.pop("structure", None))
            max_bits = max(max_bits, info.pop("bits", 0))
            counts.update({f"{span.key}.{k}": v for k, v in info.items()})
        structures.discard(None)
        iterate_s = self_s["actions.iterate"]
        triples = counts["algebra.assoc.triples"]
        return {
            "algebra.assoc_s": self_s["algebra.assoc"],
            "algebra.assoc_calls": calls["algebra.assoc"],
            "algebra.assoc_calls_per_structure":
                calls["algebra.assoc"] / len(structures) if structures else 0,
            "algebra.assoc_triples": triples,
            "algebra.support_density":
                counts["algebra.assoc.support"] / triples if triples else 0,
            "algebra.prob_s": self_s["algebra.prob"],
            "algebra.identity_s": self_s["algebra.identity"],
            "algebra.commutative_s": self_s["algebra.commutative"],
            "linprog.lp_s": self_s["linprog.lp"],
            "linprog.lp_calls": calls["linprog.lp"],
            "linprog.lp_rows": counts["linprog.lp.rows"],
            "linprog.lp_vars": counts["linprog.lp.vars"],
            "linprog.pivots": counts["linprog.lp.pivots"],
            "linprog.infeasible_calls": counts["linprog.lp.infeasible"],
            "linprog.max_bits": max_bits,
            "linprog.linsys_s": self_s["linprog.linsys"],
            "linprog.linsys_rows": counts["linprog.linsys.rows"],
            "amenability.problem_s": self_s["amenability.problem"],
            "amenability.verify_s": self_s["amenability.verify"],
            "amenability.verify_calls": calls["amenability.verify"],
            "functions.translate_s": self_s["functions.translate"],
            "functions.translate_calls": calls["functions.translate"],
            "actions.axiom_s": self_s["actions.axiom"],
            "actions.dual_axiom_s": self_s["actions.dual_axiom"],
            "actions.dual_route_self_s": self_s["actions.dual_route_self"],
            "actions.invariance_s": self_s["actions.invariance"],
            "actions.nonexpansive_s": self_s["actions.nonexpansive"],
            "actions.fixpoint_self_s": self_s["actions.fixpoint_self"],
            "actions.iterate_s": iterate_s,
            "actions.iterations": counts["actions.iterate.iterations"],
            "actions.iterations_per_s":
                counts["actions.iterate.iterations"] / iterate_s if iterate_s else 0,
            "construct.self_s": self_s["construct.self"],
            "construct.cayley_assoc_s": self_s["construct.cayley_assoc"],
            "construct.calls": calls["construct.self"],
            "files.parse_s": self_s["files.parse"],
            "files.render_s": self_s["files.render"],
            "files.bytes_read": counts["files.parse.bytes_read"],
            "files.bytes_written": counts["files.render.bytes_written"],
            "cli.calls": calls["cli.self"],
            "cli.self_s": self_s["cli.self"],
        }

    def dump(self) -> list[list]:
        return [[s.key, s.start, s.end, s.parent, s.job] for s in self.spans]
