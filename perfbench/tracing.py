"""Spans and counters around linfiso's public entry points.

Used only in the traced run.  Each entry point is wrapped where callers
look it up: every linfiso module attribute bound to the function object
is replaced, so a call through `from .x import f` in another module, a
module attribute such as linfiso._kernels.pivot, or a class attribute
such as Instance.to_spec all pass through the wrapper.  Nothing inside
the package is edited.  An entry point that no longer exists is listed
in `absent` and the metrics that depend on it are left out.

A span's self time is its duration minus the time of the wrapped calls
it made; a layer's time counts only its outermost span, so a layer that
calls itself is not counted twice."""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction
from math import comb

# (module, attribute path, span).  Several entry points may share a span.
ENTRY_POINTS = (
    ("linfiso.cli", "main", "cli"),
    ("linfiso.instances", "load_instance", "parse"),
    ("linfiso.instances", "Instance.to_spec", "spec"),
    ("linfiso.canonical", "canonical_family", "family"),
    ("linfiso._kernels", "det_bareiss", "det"),
    ("linfiso._kernels", "pivot", "pivot"),
    ("linfiso.decide", "decide_isometric", "decide"),
    ("linfiso.decide", "decide_hyperplane", "decide"),
    ("linfiso.decide", "decide_by_minors", "decide"),
    ("linfiso.bounds", "best_upper_bound", "bounds"),
    ("linfiso.projection", "projection_constant", "projection"),
    ("linfiso.projection", "minimal_projection_program", "build"),
    ("linfiso.lp", "solve", "solve"),
    ("linfiso.lp", "verify_certificate", "verify"),
    ("linfiso.projection", "verify_norm_gap", "norm_gap"),
    ("linfiso.crosscheck", "check_instance", "check"),
)
SCAN = ("linfiso.canonical", "admissible_sets")

# per-layer metric: (unit, spans it needs)
METRICS = {
    "kernels.pivot_calls": ("count", ("pivot",)),
    "kernels.pivot_s": ("s", ("pivot",)),
    "lp.pivots": ("count", ("pivot", "solve")),
    "lp.solve_s": ("s", ("solve",)),
    "lp.select_s": ("s", ("pivot", "solve")),
    "lp.verify_s": ("s", ("verify",)),
    "lp.result_bits": ("bits", ("solve",)),
    "projection.build_s": ("s", ("build",)),
    "projection.lp_rows": ("count", ("build",)),
    "projection.lp_vars": ("count", ("build",)),
    "projection.self_s": ("s", ("projection",)),
    "canonical.family_calls": ("count", ("family",)),
    "canonical.family_s": ("s", ("family",)),
    "canonical.admissible_ratio": ("ratio", ("scan",)),
    "kernels.det_calls": ("count", ("det",)),
    "kernels.det_s": ("s", ("det",)),
    "decide.s": ("s", ("decide",)),
    "decide.sets_examined": ("count", ("decide",)),
    "decide.scan_fraction": ("ratio", ("decide", "scan")),
    "bounds.s": ("s", ("bounds",)),
    "bounds.sets": ("count", ("bounds", "scan")),
    "crosscheck.check_s": ("s", ("check",)),
    "crosscheck.norm_gap_s": ("s", ("norm_gap",)),
    "crosscheck.self_s": ("s", ("check",)),
    "cli.parse_s": ("s", ("parse",)),
    "canonical.spec_s": ("s", ("spec",)),
    "cli.self_s": ("s", ("cli",)),
    "trace.overhead_frac": ("ratio", ()),
    "trace.uncovered_frac": ("ratio", ()),
}


def _bits(value) -> int:
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    return 0


class Tracer:
    def __init__(self):
        self.absent = []
        self._undo = []
        self._installed_spans = set()
        self.stack = []  # child time of each open span
        self.depth = Counter()  # open spans per name
        self.calls = Counter()
        self.total = defaultdict(float)  # outermost spans only
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.maxima = Counter()
        self.per_instance = defaultdict(Counter)
        self.top = 0.0  # time inside spans opened by the benchmark itself
        self.instance = None  # key of the instance the current job runs on

    def reset(self):
        """Clear the figures in place; the wrappers hold these objects."""
        for figures in (self.stack, self.depth, self.calls, self.total, self.self_time,
                        self.counts, self.maxima, self.per_instance):
            figures.clear()
        self.top = 0.0
        self.instance = None

    # -- installing ----------------------------------------------------

    def install(self):
        self.absent.clear()
        self._installed_spans.clear()
        hooks = {"pivot": self._after_pivot, "decide_isometric": self._after_decide,
                 "solve": self._after_solve, "minimal_projection_program": self._after_build}
        for module_name, path, span in ENTRY_POINTS:
            target = _resolve(module_name, path)
            if target is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            self._installed_spans.add(span)
            self._patch(module_name, path, target, self._wrap(span, target, hooks.get(path)))
        target = _resolve(*SCAN)
        if target is None:
            self.absent.append(".".join(SCAN))
        else:
            self._installed_spans.add("scan")
            self._patch(*SCAN, target, self._wrap_scan(target))

    def uninstall(self):
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    def _patch(self, module_name, path, target, wrapper):
        owner_path, _, name = path.rpartition(".")
        owner = sys.modules[module_name]
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part)
        targets = [(owner, name)]
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "linfiso" or mod_name.startswith("linfiso."):
                for attr, value in list(vars(module).items()):
                    if value is target and (module, attr) != (owner, name):
                        targets.append((module, attr))
        for obj, attr in targets:
            self._undo.append((obj, attr, getattr(obj, attr)))
            setattr(obj, attr, wrapper)

    # -- wrappers ------------------------------------------------------

    def _wrap(self, span, fn, hook):
        stack, depth, clock = self.stack, self.depth, time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[span] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                depth[span] -= 1
                self.calls[span] += 1
                self.self_time[span] += took - frame[0]
                if not depth[span]:
                    self.total[span] += took
                if stack:
                    stack[-1][0] += took
                else:
                    self.top += took
            if hook is not None:
                start = clock()
                hook(result, took)
                if stack:  # keep the hook's cost out of the caller's self time
                    stack[-1][0] += clock() - start
            return result

        return traced

    def _wrap_scan(self, fn):
        def counted(spec, *args, **kwargs):
            in_bounds = self.depth["bounds"] > 0
            yielded = 0
            for item in fn(spec, *args, **kwargs):
                yielded += 1
                yield item
            # reached only when the scan ran to the end
            self.counts["admissible"] += yielded
            self.counts["candidates"] += comb(spec.ambient, spec.codim)
            self.per_instance[self.instance]["admissible"] = yielded
            if in_bounds:
                self.counts["bounds.sets"] += yielded

        return counted

    def _after_pivot(self, result, took):
        if self.depth["solve"]:
            self.counts["lp.pivots"] += 1
            self.counts["pivot_s_in_solve"] += took
            self.per_instance[self.instance]["pivots"] += 1

    def _after_solve(self, solution, took):
        values = [solution.objective_value, *(solution.x or ()), *(solution.duals or ())]
        self.maxima["lp.result_bits"] = max(self.maxima["lp.result_bits"], *map(_bits, values))

    def _after_build(self, program, took):
        self.maxima["projection.lp_rows"] = max(self.maxima["projection.lp_rows"], program.nrows)
        self.maxima["projection.lp_vars"] = max(self.maxima["projection.lp_vars"], program.nvars)

    def _after_decide(self, report, took):
        if self.depth["decide"] == 0:
            self.counts["decide.sets_examined"] += report.sets_examined
            self.per_instance[self.instance]["decide_examined"] += report.sets_examined
            self.per_instance[self.instance]["decide_calls"] += 1

    # -- figures -------------------------------------------------------

    def metrics(self, traced_wall):
        """Per-layer figures for one traced pass, by metric name; the
        caller adds trace.overhead_frac, which needs the untraced passes."""
        examined = admissible = 0
        for figures in self.per_instance.values():
            if figures["decide_calls"] and "admissible" in figures:
                examined += figures["decide_examined"]
                admissible += figures["decide_calls"] * figures["admissible"]
        pivot_s = self.counts["pivot_s_in_solve"]
        values = {
            "kernels.pivot_calls": self.calls["pivot"],
            "kernels.pivot_s": self.total["pivot"],
            "lp.pivots": self.counts["lp.pivots"],
            "lp.solve_s": self.total["solve"],
            "lp.select_s": self.total["solve"] - pivot_s,
            "lp.verify_s": self.total["verify"],
            "lp.result_bits": self.maxima["lp.result_bits"],
            "projection.build_s": self.total["build"],
            "projection.lp_rows": self.maxima["projection.lp_rows"],
            "projection.lp_vars": self.maxima["projection.lp_vars"],
            "projection.self_s": self.self_time["projection"],
            "canonical.family_calls": self.calls["family"],
            "canonical.family_s": self.total["family"],
            "canonical.admissible_ratio": _ratio(self.counts["admissible"], self.counts["candidates"]),
            "kernels.det_calls": self.calls["det"],
            "kernels.det_s": self.total["det"],
            "decide.s": self.total["decide"],
            "decide.sets_examined": self.counts["decide.sets_examined"],
            "decide.scan_fraction": _ratio(examined, admissible),
            "bounds.s": self.total["bounds"],
            "bounds.sets": self.counts["bounds.sets"],
            "crosscheck.check_s": self.total["check"],
            "crosscheck.norm_gap_s": self.total["norm_gap"],
            "crosscheck.self_s": self.self_time["check"],
            "cli.parse_s": self.total["parse"],
            "canonical.spec_s": self.total["spec"],
            "cli.self_s": self.self_time["cli"],
            "trace.uncovered_frac": 1 - self.top / traced_wall,
        }
        return {
            name: value for name, value in values.items()
            if set(METRICS[name][1]) <= self._installed_spans
        }


def _ratio(num, den):
    return num / den if den else 0.0


def _resolve(module_name, path):
    obj = sys.modules.get(module_name)
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj
