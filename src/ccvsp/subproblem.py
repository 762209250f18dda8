"""Evaluate a candidate schedule under the travel-time scenarios.

``pair_legs`` and ``propagate`` are the one timing rule: the legs of
sequenced pairs (duration plus deadhead, less the maximum expressing), and
earliest starts along chains of trips on Python ints with the late trips
flagged. The greedy evaluator applies them to one scenario and the cut
builders to their subsequences; each cut builder takes the one greedy result
of the scenario it cuts. The scenario evaluator runs the same rule for every
scenario at once with numpy vectors along the scenario axis, in the same
integer arithmetic, so its verdicts equal the greedy ones; batch callers
(violation counts, cut screening, incumbent encoding) use it. A small MILP
oracle solves the feasibility model directly and cross-validates the greedy
answer in the tests.
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
    """What one scenario's propagation computes; the verdict derives from it."""

    y_star: np.ndarray         # earliest start per trip, index id-1
    delayed: frozenset[int]    # ids of the late trips
    violated: tuple[Requirement, ...]

    @property
    def z_star(self) -> int:
        return 1 if self.violated else 0


def _violated(inst: Instance, params: ServiceParams, late: list[int]) -> tuple[Requirement, ...]:
    """Requirements broken when exactly the trips ``late`` (ids) start late."""
    per_route = [0] * len(inst.routes)
    for i in late:
        per_route[inst.route_of[i] - 1] += 1
    out = [TRIP_LEVEL] if inst.n_trips - len(late) < params.f_trip else []
    out += [Requirement(r) for r, (members, f_r, n_late)
            in enumerate(zip(inst.routes, params.f_route, per_route), start=1)
            if len(members) - n_late < f_r]
    return tuple(out)


def pair_legs(inst: Instance, scen: ScenarioSet, s, prev: np.ndarray,
              nxt: np.ndarray) -> np.ndarray:
    """d_j + t_ji - e_j of the pairs (prev[k], nxt[k]) (0-based) on the last
    axis, in scenario ``s``: an index, or ``slice(None)`` for all.

    The uint8, int16, int32 or int64 duration meets the int64 expressing
    allowance first, so the sum is taken in int64: a uint8 duration less its
    allowance does not wrap below 0, and no leg wraps at 2**31. ``take``
    gathers a single scenario's short rows faster than fancy indexing does.
    """
    return (scen.dur[s].take(prev, axis=-1) - inst.max_express.take(prev)
            + scen.travel[s][..., prev, nxt])


def propagate(inst: Instance, params: ServiceParams, chains, legs) -> tuple[list[int], list[int]]:
    """Earliest starts along ``chains`` (``ChainIndex.chains``), whose pairs
    take ``legs`` in chain order; returns the start per trip (0 off the
    chains) and the ids of the late trips.

    A chain's first trip starts at s_i - lb; each later trip starts at
    max(s_i - lb, y_prev + leg) and is late once that exceeds s_i + ub.
    """
    legs = iter(legs)
    lb = params.lb
    slack = lb + params.ub          # late once y > (s_i - lb) + slack
    start = inst.starts
    y = [0] * inst.n_trips
    late = []
    for first, later in chains:
        t = y[first] = start[first] - lb
        # zip stops on ``later`` before it draws from ``legs``, so each chain
        # takes exactly its own legs
        for i, leg in zip(later, legs):
            t += leg
            earliest = start[i] - lb
            if t > earliest:
                if t > earliest + slack:
                    late.append(i + 1)
            else:
                t = earliest
            y[i] = t
    return y, late


def greedy_evaluate(inst: Instance, params: ServiceParams, sched: Schedule,
                    scen: ScenarioSet, s: int) -> GreedyResult:
    """Exact earliest-start propagation for scenario s, with expressing at
    its maximum: one gather of the legs of all sequenced pairs, then
    ``propagate``. Trips the schedule leaves out keep y = 0 and count as on
    time; a trip is expected on at most one bus.
    """
    prev, nxt, chains = sched.chain_index
    y, late = propagate(inst, params, chains, pair_legs(inst, scen, s, prev, nxt).tolist())
    return GreedyResult(np.array(y, dtype=np.int64), frozenset(late),
                        _violated(inst, params, late))


def evaluate_scenarios(inst: Instance, params: ServiceParams, sched: Schedule,
                       scen: ScenarioSet) -> tuple[np.ndarray, np.ndarray]:
    """Verdicts and on-time flags of the schedule in every scenario at once.

    Returns ``(z_star, v_star)``: ``z_star[s]`` is True when scenario s breaks
    a requirement, and ``v_star[s, i-1]`` flags trip i on time in scenario s,
    both equal to what ``greedy_evaluate`` gives for that scenario.
    """
    prev, nxt, chains = sched.chain_index
    # legs[k] is pair k's leg in every scenario, one contiguous row per pair
    legs = np.ascontiguousarray(pair_legs(inst, scen, slice(None), prev, nxt).T)
    start, lb, ub = inst.starts, params.lb, params.ub
    v = np.ones((scen.count, inst.n_trips), dtype=bool)
    k = 0
    for first, later in chains:
        y = np.full(scen.count, start[first] - lb)
        for i in later:
            y = np.maximum(start[i] - lb, y + legs[k])
            v[:, i] = y <= start[i] + ub
            k += 1
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
    model = MilpModel()
    y_max, m_start, m_otp = subproblem_big_ms(inst, params, scen, s)
    z = model.add_var(lb=0, ub=1, obj=float(I + 1), is_int=True)
    yv = [model.add_var(lb=0, ub=float(y_max + 1)) for _ in range(I)]
    vv = [model.add_var(lb=0, ub=1, obj=-1.0, is_int=True) for _ in range(I)]
    uv = [model.add_var(lb=0, ub=float(t.max_express)) for t in inst.trips]
    # service requirements, vacuous when z = 1
    model.add_constr({vv[i]: 1.0 for i in range(I)} | {z: float(params.f_trip)},
                     GREATER, float(params.f_trip))
    for r, members in enumerate(inst.routes, start=1):
        f_r = params.f_route[r - 1]
        model.add_constr({vv[i - 1]: 1.0 for i in members} | {z: float(f_r)},
                         GREATER, float(f_r))
    sequenced = set(sched.sequenced_pairs())
    for (j, i) in sorted(inst.compat):
        leg = int(scen.dur[s, j - 1]) + int(scen.travel[s, j - 1, i - 1])
        active = 1.0 if (j, i) in sequenced else 0.0
        # y_j + leg - u_j - M(1 - x_ji) <= y_i with x fixed by the schedule
        model.add_constr({yv[i - 1]: 1.0, yv[j - 1]: -1.0, uv[j - 1]: 1.0},
                         GREATER, leg - m_start[(j, i)] * (1.0 - active))
    for i in range(1, I + 1):
        t = inst.trips[i - 1]
        # y_i <= s_i + ub v_i + M_otp (1 - v_i)
        model.add_constr({yv[i - 1]: 1.0, vv[i - 1]: float(m_otp[i] - params.ub)},
                         LESS, float(t.start + m_otp[i]))
        model.add_constr({yv[i - 1]: 1.0}, GREATER, float(t.start - params.lb))
    sol = bnb_solve(model)
    if sol.status != "Optimal":
        raise RuntimeError(f"subproblem oracle did not solve: {sol.status}")
    z_val = int(round(sol.x[z]))
    y_val = np.array([sol.x[j] for j in yv])
    v_val = np.array([int(round(sol.x[j])) for j in vv], dtype=bool)
    return z_val, y_val, v_val
