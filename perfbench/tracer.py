"""Spans and counts recorded around the public functions of ``ccvsp``.

The tracer lives entirely in the benchmark: ``install`` replaces each traced
function with a wrapper in every ``ccvsp`` module that bound it at import
(``from .subproblem import greedy_evaluate`` makes ``bnc.greedy_evaluate`` a
second name for the same function, so patching ``subproblem`` alone would miss
the calls made from ``bnc``). Methods are wrapped on their class. Spans stay
in memory until ``write_spans``.

A span is (id, name, start, end, parent id, operation id, attrs). Per-layer
metrics are computed from the spans of each window (one set-up, or one timed
pass over the workload's inputs): the median window of each kind, set-up plus
timed pass, so counts do not depend on how many passes fit in a run.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

# (module, attribute, span name, attrs taken from the call and its result)
FUNCTIONS = [
    ("scenarios", "generate_instance", "scenarios.generate", None),
    ("scenarios", "sample_scenarios", "scenarios.sample",
     lambda args, kw, out: {"bytes": out.dur.nbytes + out.travel.nbytes
                            + out.out_t.nbytes + out.in_t.nbytes}),
    ("subproblem", "greedy_evaluate", "subproblem.greedy_evaluate", None),
    ("subproblem", "count_violated_scenarios", "subproblem.count_violated", None),
    ("cuts", "valid_inequalities", "cuts.valid_inequalities",
     lambda args, kw, out: {"rows": len(out)}),
    ("cuts", "build_cmis", "cuts.build", None),
    ("cuts", "extend_cmis", "cuts.build", None),
    ("cuts", "cmis_cut", "cuts.build", None),
    ("cuts", "no_good_cut", "cuts.build", None),
    ("cuts", "strong_no_good_cut", "cuts.build", None),
    ("cuts", "mis_deletion_filter", "cuts.build", None),
    ("milp", "lp_solve", "milp.lp_solve",
     lambda args, kw, out: {"iters": out.iterations}),
    ("milp", "bnb_solve", "milp.bnb_solve",
     lambda args, kw, out: {"nodes": out.nodes}),
    ("bnc", "cut_generation_routine", "bnc.cut_generation",
     lambda args, kw, out: {"cuts": len(out)}),
    ("bnc", "solve_bnc", "bnc.solve_bnc", None),
    ("lagrangian", "solve_lagrangian", "lagrangian.solve",
     lambda args, kw, out: {"iterations": out.iterations}),
    ("lagrangian", "solve_group", "lagrangian.group_solve", None),
    ("lagrangian", "combine_and_repair", "lagrangian.recombine", None),
    ("baselines", "solve_deterministic", "baselines.det_solve", None),
    ("baselines", "evaluate_out_of_sample", "baselines.oos_eval", None),
]

# (module, class, method, span name, attrs from (args, kwargs, result))
METHODS = [
    ("bnc", "MasterModel", "__init__", "bnc.master_build",
     lambda args, kw, out: {"rows": args[0].model.n_rows}),
    ("lagrangian", "BundleModel", "proximal_step", "lagrangian.bundle", None),
    ("lagrangian", "BundleModel", "add_cut", "lagrangian.bundle", None),
]

# per-layer metric name -> unit, in the order they are reported
PER_LAYER_UNITS = {
    "milp.lp_calls": "count", "milp.simplex_iters": "count", "milp.lp_s": "s",
    "milp.lp_cpu_s": "s", "milp.iters_per_s": "1/s", "milp.bnb_nodes": "count",
    "milp.bnb_self_s": "s",
    "bnc.master_build_s": "s", "bnc.master_rows": "count",
    "cuts.vi_s": "s", "cuts.vi_rows": "count",
    "bnc.cut_rounds": "count", "bnc.cutgen_s": "s", "bnc.cuts_added": "count",
    "cuts.build_s": "s",
    "subproblem.evals": "count", "subproblem.eval_s": "s", "subproblem.evals_per_s": "1/s",
    "scenarios.generate_s": "s", "scenarios.sample_s": "s", "scenarios.table_mb": "MB",
    "baselines.det_solve_s": "s", "baselines.oos_eval_s": "s",
    "lagrangian.iterations": "count", "lagrangian.group_solves": "count",
    "lagrangian.group_solve_s": "s", "lagrangian.bundle_s": "s",
    "lagrangian.recombine_s": "s",
    "trace.solve_s": "s",
}


class Tracer:
    """Records spans for the calls made while it is installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.op: int | None = None
        self.windows: dict[int, tuple[str, int]] = {}   # op id -> (kind, index)
        self._next_op = 0

    # -- operations and windows -------------------------------------------

    def begin_op(self, kind: str, index: int) -> int:
        """Open a new operation id that belongs to window (kind, index)."""
        self._next_op += 1
        self.op = self._next_op
        self.windows[self.op] = (kind, index)
        return self.op

    # -- spans -------------------------------------------------------------

    def _wrap(self, func, name, attrs_of, with_cpu=False):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if name == "milp.bnb_solve" and kwargs.get("lazy") is not None:
                kwargs["lazy"] = tracer._wrap(kwargs["lazy"], "milp.lazy", None)
            span_id = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append(None)          # reserve the id; filled on exit
            tracer._stack.append(span_id)
            cpu0 = time.process_time() if with_cpu else 0.0
            t0 = time.perf_counter()
            try:
                out = func(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
            attrs = attrs_of(args, kwargs, out) if attrs_of else {}
            if with_cpu:
                attrs["cpu"] = time.process_time() - cpu0
            tracer.spans[span_id] = (span_id, name, t0, t1, parent, tracer.op, attrs)
            return out

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever ``ccvsp`` bound it."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        mods = {n: m for n, m in sys.modules.items()
                if n == "ccvsp" or n.startswith("ccvsp.")}
        for mod_name, attr, name, attrs_of in FUNCTIONS:
            orig = getattr(mods["ccvsp." + mod_name], attr)
            wrapper = self._wrap(orig, name, attrs_of, with_cpu=(name == "milp.lp_solve"))
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, meth, name, attrs_of in METHODS:
            cls = getattr(mods["ccvsp." + mod_name], cls_name)
            orig = cls.__dict__[meth]
            self._restore.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(orig, name, attrs_of))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, name, t0, t1, parent, op, attrs in filter(None, self.spans):
                fh.write(json.dumps({"id": span_id, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op, **attrs}) + "\n")

    # -- metrics -----------------------------------------------------------

    def window_totals(self) -> dict[tuple[str, int], dict[str, float]]:
        """Raw sums per window: counts, busy seconds and self seconds."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span is not None and span[4] is not None:
                child_time[span[4]] += span[3] - span[2]
        names = {span[0]: span[1] for span in self.spans if span is not None}
        totals: dict[tuple[str, int], dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span_id, name, t0, t1, parent, op, attrs in filter(None, self.spans):
            if op not in self.windows:
                continue
            w = totals[self.windows[op]]
            dur = t1 - t0
            parent_name = names.get(parent)
            if name == "milp.lp_solve":
                w["milp.lp_calls"] += 1
                w["milp.simplex_iters"] += attrs["iters"]
                w["milp.lp_s"] += dur
                w["milp.lp_cpu_s"] += attrs["cpu"]
            elif name == "milp.bnb_solve":
                w["milp.bnb_nodes"] += attrs["nodes"]
                w["milp.bnb_self_s"] += dur - child_time[span_id]
            elif name == "bnc.master_build":
                w["bnc.master_build_s"] += dur
                w["bnc.master_rows"] += attrs["rows"]
            elif name == "cuts.valid_inequalities":
                w["cuts.vi_s"] += dur
                w["cuts.vi_rows"] += attrs["rows"]
            elif name == "bnc.cut_generation":
                w["bnc.cut_rounds"] += 1
                w["bnc.cutgen_s"] += dur
                w["bnc.cuts_added"] += attrs["cuts"]
            elif name == "cuts.build" and parent_name != "cuts.build":
                w["cuts.build_s"] += dur
            elif name == "subproblem.greedy_evaluate":
                w["subproblem.evals"] += 1
                w["subproblem.eval_s"] += dur
            elif name == "scenarios.generate":
                w["scenarios.generate_s"] += dur
            elif name == "scenarios.sample":
                w["scenarios.sample_s"] += dur
                w["scenarios.table_mb"] += attrs["bytes"] / 1e6
            elif name == "baselines.det_solve":
                w["baselines.det_solve_s"] += dur
            elif name == "baselines.oos_eval":
                w["baselines.oos_eval_s"] += dur
            elif name == "lagrangian.solve":
                w["lagrangian.iterations"] += attrs["iterations"]
            elif name == "lagrangian.group_solve":
                w["lagrangian.group_solves"] += 1
                w["lagrangian.group_solve_s"] += dur
            elif name == "lagrangian.bundle":
                w["lagrangian.bundle_s"] += dur
            elif name == "lagrangian.recombine" or (
                    name == "subproblem.count_violated" and parent_name == "lagrangian.solve"):
                w["lagrangian.recombine_s"] += dur
        return totals

    def per_layer(self) -> dict[str, float]:
        """Median set-up window plus median timed window, with derived rates."""
        totals = self.window_totals()
        kinds = sorted({kind for kind, _ in self.windows.values()})
        out = {name: 0.0 for name in PER_LAYER_UNITS}
        for kind in kinds:
            indexes = sorted({idx for k, idx in self.windows.values() if k == kind})
            for name in PER_LAYER_UNITS:
                values = [totals.get((kind, idx), {}).get(name, 0.0) for idx in indexes]
                out[name] += statistics.median(values)
        out["milp.iters_per_s"] = (out["milp.simplex_iters"] / out["milp.lp_s"]
                                   if out["milp.lp_s"] else 0.0)
        out["subproblem.evals_per_s"] = (out["subproblem.evals"] / out["subproblem.eval_s"]
                                         if out["subproblem.eval_s"] else 0.0)
        return {name: int(v) if PER_LAYER_UNITS[name] == "count" and v == int(v) else v
                for name, v in out.items()}
