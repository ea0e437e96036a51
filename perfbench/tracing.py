"""Spans and counters at the boundaries of maskcheck's modules.

`Tracer.install` replaces each public function listed in BOUNDARIES,
in every maskcheck module that holds it, with a wrapper that records a
span (name, operation, start, end, parent) and the counts at that
boundary. The program itself is not changed. A span's self time is its
duration minus the durations of its child spans; the self times of all
spans add up to the time of the operations they cover. Work the tracer
does itself after a call returns (reading sizes, counting cells) is
kept out of every span and reported as `hook_s`.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

import numpy as np

# (module, function): the calls into each layer
BOUNDARIES = (
    ("program", "parse"), ("program", "expr_of"),
    ("infer", "infer"),
    ("reduction", "simplify"), ("reduction", "is_effective"),
    ("counting", "check_si"), ("counting", "qms_exact"),
    ("expr", "eval_vec"), ("domain", "gf_mul_vec"),
    ("smt", "encode_psi"), ("smt", "check_sat"),
    ("verify", "pm_check"), ("verify", "qms_compute"),
    ("verify", "report_to_json"),
)

COUNTING = ("counting.check_si", "counting.qms_exact")


def _after_infer(counts, parent, args, result):
    counts["infer.decided"] += result.dist.value != "UKD"


def _after_simplify(counts, parent, args, result):
    from maskcheck import expr
    counts["reduction.size_before"] += expr.size(args[0])
    counts["reduction.size_after"] += expr.size(result)


def _after_eval_vec(counts, parent, args, result):
    shapes = [np.shape(v) for v in args[1].values()]
    cells = int(np.prod(np.broadcast_shapes(*shapes), dtype=np.int64))
    counts["expr.eval_vec_cells"] += cells
    if parent in COUNTING:
        counts["counting.cells"] += cells


def _after_encode(counts, parent, args, result):
    counts["smt.script_bytes"] += len(result.text)


def _after_check_sat(counts, parent, args, result):
    counts["smt.conclusive"] += result.kind in ("sat", "unsat")


HOOKS = {
    "infer.infer": _after_infer,
    "reduction.simplify": _after_simplify,
    "expr.eval_vec": _after_eval_vec,
    "smt.encode_psi": _after_encode,
    "smt.check_sat": _after_check_sat,
}


class Window:
    """What the spans of one stretch of the run add up to."""

    def __init__(self):
        self.self_s: Counter = Counter()    # span name -> self time
        self.total_s: Counter = Counter()   # span name -> span time
        self.counts: Counter = Counter()    # span name -> calls, and more
        self.hook_s = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, op, start, end, parent]
        self.op = 0                     # operation the next spans belong to
        self.window = Window()
        self._stack: list[int] = []
        self._child: list[float] = []   # child time of each open span
        self._saved: list[tuple] = []

    def take(self) -> Window:
        """The window since the last take; a fresh one starts."""
        out, self.window = self.window, Window()
        return out

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        spans, stack, child = self.spans, self._stack, self._child
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, self.op, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                inner = child.pop()
                span[2], span[3] = start, end
                w = self.window
                w.self_s[name] += end - start - inner
                w.total_s[name] += end - start
                w.counts[name] += 1
                if child:
                    child[-1] += end - start
            if hook is not None:
                hook(w.counts, spans[parent][0] if parent >= 0 else None,
                     args, result)
            spent = clock() - end
            w.hook_s += spent
            if child:
                child[-1] += spent      # not the parent's own work either
            return result

        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "maskcheck" or n.startswith("maskcheck.")]
        for mod_name, fn_name in BOUNDARIES:
            original = getattr(sys.modules[f"maskcheck.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path):
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "op", "start", "end", "parent"],
                       "spans": self.spans}, handle, separators=(",", ":"))


def _ratio(num, den):
    return num / den if den else 1.0


def layer_metrics(w: Window) -> dict:
    """The per-layer table of one traced round. Times are self times,
    except the two `_total_s` ones, which include the spans' children."""
    s, c, t = w.self_s, w.counts, w.total_s
    return {
        "program.parse_s": s["program.parse"],
        "program.expr_of_s": s["program.expr_of"],
        "program.expr_of_calls": c["program.expr_of"],
        "infer.infer_s": s["infer.infer"],
        "infer.calls": c["infer.infer"],
        "infer.decided_ratio": _ratio(c["infer.decided"], c["infer.infer"]),
        "reduction.simplify_s": s["reduction.simplify"],
        "reduction.simplify_calls": c["reduction.simplify"],
        "reduction.is_effective_s": s["reduction.is_effective"],
        "reduction.is_effective_calls": c["reduction.is_effective"],
        "reduction.is_effective_total_s": t["reduction.is_effective"],
        "reduction.size_ratio": _ratio(c["reduction.size_after"],
                                       c["reduction.size_before"]),
        "counting.count_s": s["counting.check_si"] + s["counting.qms_exact"],
        "counting.calls": c["counting.check_si"] + c["counting.qms_exact"],
        "counting.count_total_s": (t["counting.check_si"]
                                   + t["counting.qms_exact"]),
        "counting.cells": c["counting.cells"],
        "expr.eval_vec_s": s["expr.eval_vec"],
        "expr.eval_vec_cells": c["expr.eval_vec_cells"],
        "domain.gf_mul_vec_s": s["domain.gf_mul_vec"],
        "smt.encode_s": s["smt.encode_psi"],
        "smt.script_bytes": c["smt.script_bytes"],
        "smt.queries": c["smt.check_sat"],
        "smt.solve_s": s["smt.check_sat"],
        "smt.conclusive_ratio": _ratio(c["smt.conclusive"],
                                       c["smt.check_sat"]),
        "verify.self_s": s["verify.pm_check"] + s["verify.qms_compute"],
        "verify.report_to_json_s": s["verify.report_to_json"],
        "trace.self_sum_s": sum(s.values()),
        "trace.hook_s": w.hook_s,
    }
