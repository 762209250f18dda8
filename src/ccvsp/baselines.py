"""Deterministic baselines and out-of-sample reliability evaluation.

The baselines solve the master's flow model (``bnc.FlowModel``) under a single
time table (means or an empirical percentile of the sampled scenarios), with no
reliability constraints; the evaluator replays any schedule through the greedy
operational model over an independent scenario set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bnc import FlowModel
from .core import (
    Instance,
    Schedule,
    ServiceParams,
    ValidationError,
    build_compat,
    schedule_cost,
)
from .milp import bnb_solve, deadline_after
from .scenarios import ScenarioSet, percentile_times
from .subproblem import greedy_evaluate

MEAN = ("mean", None)


class NoSchedule(ValidationError):
    """The deterministic model ended without a schedule; ``status`` is its
    MILP status, Infeasible or IterLimit (stopped by the time limit)."""

    def __init__(self, status: str, message: str):
        super().__init__(message)
        self.status = status


def percentile(q: float):
    return ("percentile", float(q))


def solve_deterministic(inst: Instance, times=MEAN,
                        scen: ScenarioSet | None = None,
                        time_limit: float | None = None) -> Schedule:
    """Minimum-cost flow schedule under one deterministic time table.

    ``times`` is ("mean", None) or ("percentile", q); percentiles need the
    sampled scenarios. The schedule sequences only pairs of the instance's
    planning set that the chosen table also finds compatible, so it passes
    ``validate_schedule`` and ``schedule_cost`` prices it. A model left
    without a schedule, as when ``time_limit`` (seconds from the call, the
    build included) stops it, raises ``NoSchedule``.
    """
    deadline = deadline_after(time_limit)
    kind, q = times
    if kind == "mean":
        compat = inst.compat
    elif kind == "percentile":
        if scen is None:
            raise ValidationError("percentile baseline needs sampled scenarios")
        scen.check_instance(inst)
        dur, travel = percentile_times(scen, q)
        compat = build_compat(inst.trips, travel, dur) & inst.compat
    else:
        raise ValidationError(f"unknown time table {times!r}")

    flow = FlowModel(inst, compat)
    for k in range(1, inst.n_depots + 1):
        flow.add_capacity_row(k)
        flow.add_balance_rows(k)
    sol = bnb_solve(flow.model, deadline=deadline)
    if sol.x is None:
        cause = ("likely insufficient depot capacity" if sol.status == "Infeasible"
                 else "no schedule found within the time limit")
        raise NoSchedule(sol.status, f"deterministic model is {sol.status}: {cause}")
    return flow.decode(sol.x)


@dataclass
class EvalReport:
    """Reliability of one schedule over an evaluation scenario set."""

    method: str
    objective: float
    eval_sat_pct: float
    train_sat_pct: float | None = None
    time_s: float = 0.0

    def __post_init__(self):
        for pct in (self.eval_sat_pct, self.train_sat_pct):
            if pct is not None and not 0.0 <= pct <= 100.0:
                raise ValidationError(f"satisfaction percentage {pct} outside [0, 100]")
        if not 0.0 <= self.time_s < math.inf:
            raise ValidationError(f"solve time {self.time_s} is not a finite number "
                                  "of seconds at least 0")


def satisfaction_pct(inst: Instance, params: ServiceParams, sched: Schedule,
                     scen: ScenarioSet) -> float:
    good = sum(1 - greedy_evaluate(inst, params, sched, scen, s).z_star
               for s in range(scen.count))
    return 100.0 * good / scen.count


def evaluate_out_of_sample(inst: Instance, params: ServiceParams, sched: Schedule,
                           eval_scen: ScenarioSet, method: str = "",
                           train_scen: ScenarioSet | None = None,
                           time_s: float = 0.0) -> EvalReport:
    """Percent of evaluation scenarios in which every requirement holds.

    ``time_s`` is the time of the solve that made the schedule, written to
    the report as given; one that is not finite and at least 0 raises
    ValidationError."""
    for scen in (eval_scen, train_scen):
        if scen is not None:
            scen.check_instance(inst)
    pct = satisfaction_pct(inst, params, sched, eval_scen)
    train = satisfaction_pct(inst, params, sched, train_scen) if train_scen else None
    return EvalReport(method=method, objective=float(schedule_cost(inst, sched)),
                      eval_sat_pct=pct, train_sat_pct=train, time_s=time_s)


COMPARE_HEADER = "method,instance,I,K,S,objective,obj_diff_vs_mean_pct,train_sat_pct,eval_sat_pct,time_s"

# one table row: (instance label, trips I, depots K, evaluation scenarios S, report)
ReportRow = tuple[str, int, int, int, EvalReport]


def report_table(rows: list[ReportRow]) -> str:
    """The comparison table as CSV text, header first, without a final newline.

    The objective difference column is relative to the mean-times baseline of
    the same instance label, when present.
    """
    mean_obj = {label: rep.objective for label, *_, rep in rows if rep.method == "det-mean"}
    lines = [COMPARE_HEADER]
    for label, I, K, S, rep in rows:
        base = mean_obj.get(label, 0.0)
        diff = f"{100.0 * (rep.objective - base) / base:.3f}" if base > 0 else ""
        train = "" if rep.train_sat_pct is None else f"{rep.train_sat_pct:.2f}"
        lines.append(f"{rep.method},{label},{I},{K},{S},{rep.objective:.1f},{diff},{train},"
                     f"{rep.eval_sat_pct:.2f},{rep.time_s:.2f}")
    return "\n".join(lines)


def read_report(path) -> list[ReportRow]:
    """The rows of a ``report_table`` file, checked line by line; the
    objective difference column is not read, as ``report_table`` derives it."""
    with open(path) as fh:
        lines = [(n, line.strip()) for n, line in enumerate(fh, 1) if line.strip()]
    if not lines or lines[0][1] != COMPARE_HEADER:
        raise ValidationError(f"{path} is not an evaluation report")
    width = COMPARE_HEADER.count(",") + 1
    rows = []
    for n, line in lines[1:]:
        cols = line.split(",")
        try:
            if len(cols) != width:
                raise ValidationError(f"{len(cols)} columns, expected {width}")
            method, label, I, K, S, obj, _, train, pct, t = cols
            rep = EvalReport(method, float(obj), float(pct),
                             float(train) if train else None, float(t))
            rows.append((label, int(I), int(K), int(S), rep))
        except ValueError as exc:
            raise ValidationError(f"{path}:{n}: {exc}") from None
    return rows
