"""Evaluate a candidate schedule under the travel-time scenarios.

The greedy evaluator propagates earliest start times bus by bus (expressing
fixed at its maximum), flags late trips and checks the service requirements in
O(I) for one scenario, and returns what the cut builders need. The scenario
evaluator runs the same propagation for every scenario at once: it loops over
buses and positions only and carries numpy vectors along the scenario axis,
in the same integer arithmetic, so its verdicts equal the greedy ones. Batch
callers (violation counts, cut screening, incumbent encoding) use it. A small
MILP oracle solves the feasibility model directly and is used to
cross-validate the greedy answer in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Instance, Schedule, ServiceParams
from .milp import GREATER, LESS, MilpModel, bnb_solve
from .scenarios import ScenarioSet


@dataclass(frozen=True)
class Requirement:
    """A minimum on-time count, fleet-wide (route=None) or for one route."""

    route: int | None = None

    def __str__(self):
        return "trip-level" if self.route is None else f"route-{self.route}"


TRIP_LEVEL = Requirement(None)


@dataclass(frozen=True)
class GreedyResult:
    z_star: int
    y_star: np.ndarray         # earliest start per trip, index id-1
    v_star: np.ndarray         # on-time flags, bool
    u_star: np.ndarray         # expressing applied (fixed to the maximum)
    delayed: frozenset[int]
    violated: tuple[Requirement, ...]

    def on_time_count(self) -> int:
        return int(self.v_star.sum())


def violated_requirements(inst: Instance, params: ServiceParams, v: np.ndarray) -> tuple[Requirement, ...]:
    """Requirements broken by an on-time flag vector; recomputable from (v, params)."""
    out = []
    if int(v.sum()) < params.f_trip:
        out.append(TRIP_LEVEL)
    for r, members in enumerate(inst.routes, start=1):
        if sum(int(v[i - 1]) for i in members) < params.f_route[r - 1]:
            out.append(Requirement(r))
    return tuple(out)


def greedy_evaluate(inst: Instance, params: ServiceParams, sched: Schedule,
                    scen: ScenarioSet, s: int) -> GreedyResult:
    """Exact earliest-start propagation for scenario s.

    The first trip of each bus starts at s_i - lb; each later trip starts at
    max(s_i - lb, y_prev + d_prev + t_prev,i - e_prev).
    """
    I = inst.n_trips
    u = np.array([t.max_express for t in inst.trips], dtype=np.int64)
    y = np.zeros(I, dtype=np.int64)
    v = np.ones(I, dtype=bool)
    dur = scen.dur[s]
    travel = scen.travel[s]
    for bus in sched.buses:
        prev = None
        for i in bus.trips:
            t = inst.trips[i - 1]
            if prev is None:
                y[i - 1] = t.start - params.lb
            else:
                arrive = y[prev - 1] + dur[prev - 1] + travel[prev - 1, i - 1] - u[prev - 1]
                y[i - 1] = max(t.start - params.lb, arrive)
                v[i - 1] = y[i - 1] <= t.start + params.ub
            prev = i
    violated = violated_requirements(inst, params, v)
    delayed = frozenset(int(i) for i in np.flatnonzero(~v) + 1)
    return GreedyResult(1 if violated else 0, y, v, u, delayed, violated)


def evaluate_scenarios(inst: Instance, params: ServiceParams, sched: Schedule,
                       scen: ScenarioSet) -> tuple[np.ndarray, np.ndarray]:
    """Verdicts and on-time flags of the schedule in every scenario at once.

    Returns ``(z_star, v_star)``: ``z_star[s]`` is True when scenario s breaks
    a requirement, and ``v_star[s, i-1]`` flags trip i on time in scenario s,
    both equal to what ``greedy_evaluate`` gives for that scenario.
    """
    S = scen.count
    start = np.array([t.start for t in inst.trips], dtype=np.int64)
    express = np.array([t.max_express for t in inst.trips], dtype=np.int64)
    v = np.ones((S, inst.n_trips), dtype=bool)
    for bus in sched.buses:
        y = np.full(S, start[bus.trips[0] - 1] - params.lb)
        for prev, i in zip(bus.trips, bus.trips[1:]):
            arrive = (y + scen.dur[:, prev - 1] + scen.travel[:, prev - 1, i - 1]
                      - express[prev - 1])
            y = np.maximum(start[i - 1] - params.lb, arrive)
            v[:, i - 1] = y <= start[i - 1] + params.ub
    broken = v.sum(axis=1) < params.f_trip
    for members, f_r in zip(inst.routes, params.f_route):
        broken |= v[:, np.asarray(members, dtype=np.intp) - 1].sum(axis=1) < f_r
    return broken, v


def count_violated_scenarios(inst: Instance, params: ServiceParams, sched: Schedule,
                             scen: ScenarioSet) -> int:
    """Number of scenarios whose requirements the schedule breaks.

    The schedule is feasible for the chance constraint iff this is at most
    floor(S * epsilon).
    """
    return int(evaluate_scenarios(inst, params, sched, scen)[0].sum())


def subproblem_big_ms(inst: Instance, params: ServiceParams, scen: ScenarioSet, s: int):
    """Safe big-M values: a horizon bound plus the per-arc leg time."""
    I = inst.n_trips
    y_max = max((t.start - params.lb for t in inst.trips), default=0)
    for i in range(1, I + 1):
        legs = [int(scen.dur[s, i - 1]) + int(scen.travel[s, i - 1, j - 1])
                for j in inst.succ[i]]
        y_max += max(legs, default=0)
    m_start = {}
    for (j, i) in inst.compat:
        m_start[(j, i)] = y_max + int(scen.dur[s, j - 1]) + int(scen.travel[s, j - 1, i - 1])
    m_otp = {i: y_max - inst.trips[i - 1].start for i in range(1, I + 1)}
    return y_max, m_start, m_otp


def milp_subproblem_oracle(inst: Instance, params: ServiceParams, sched: Schedule,
                           scen: ScenarioSet, s: int):
    """Solve the scenario feasibility model with the schedule fixed.

    Minimizes z lexicographically before maximizing the on-time count, so both
    the verdict and the count are comparable with the greedy evaluator.
    Returns (z, y, v).
    """
    I = inst.n_trips
    model = MilpModel(f"scenario-{s}")
    y_max, m_start, m_otp = subproblem_big_ms(inst, params, scen, s)
    z = model.add_var(lb=0, ub=1, obj=float(I + 1), is_int=True, name="z")
    yv = [model.add_var(lb=0, ub=float(y_max + 1), name=f"y{i}") for i in range(1, I + 1)]
    vv = [model.add_var(lb=0, ub=1, obj=-1.0, is_int=True, name=f"v{i}") for i in range(1, I + 1)]
    uv = [model.add_var(lb=0, ub=float(inst.trips[i - 1].max_express), name=f"u{i}")
          for i in range(1, I + 1)]
    # service requirements, vacuous when z = 1
    model.add_constr({vv[i]: 1.0 for i in range(I)} | {z: float(params.f_trip)},
                     GREATER, float(params.f_trip), "otp")
    for r, members in enumerate(inst.routes, start=1):
        f_r = params.f_route[r - 1]
        model.add_constr({vv[i - 1]: 1.0 for i in members} | {z: float(f_r)},
                         GREATER, float(f_r), f"route{r}")
    sequenced = set(sched.sequenced_pairs())
    for (j, i) in sorted(inst.compat):
        leg = int(scen.dur[s, j - 1]) + int(scen.travel[s, j - 1, i - 1])
        active = 1.0 if (j, i) in sequenced else 0.0
        # y_j + leg - u_j - M(1 - x_ji) <= y_i with x fixed by the schedule
        model.add_constr({yv[i - 1]: 1.0, yv[j - 1]: -1.0, uv[j - 1]: 1.0},
                         GREATER, leg - m_start[(j, i)] * (1.0 - active), f"seq{j}_{i}")
    for i in range(1, I + 1):
        t = inst.trips[i - 1]
        # y_i <= s_i + ub v_i + M_otp (1 - v_i)
        model.add_constr({yv[i - 1]: 1.0, vv[i - 1]: float(m_otp[i] - params.ub)},
                         LESS, float(t.start + m_otp[i]), f"otp{i}")
        model.add_constr({yv[i - 1]: 1.0}, GREATER, float(t.start - params.lb), f"lb{i}")
    sol = bnb_solve(model)
    if sol.status != "Optimal":
        raise RuntimeError(f"subproblem oracle did not solve: {sol.status}")
    z_val = int(round(sol.x[z]))
    y_val = np.array([sol.x[j] for j in yv])
    v_val = np.array([int(round(sol.x[j])) for j in vv], dtype=bool)
    return z_val, y_val, v_val
