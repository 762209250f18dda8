"""Lagrangian decomposition heuristic for instances beyond exact reach.

Trips are partitioned along a deterministic schedule's buses; each group is a
small chance-constrained problem solved exactly. A linking constraint forcing
the first group's scenario indicators to dominate the others' is dualized;
the dual is maximized with a proximal bundle method. Every iteration the group
schedules are recombined (with depot reassignment when capacities overflow)
and evaluated against the full instance's requirements to drive an incumbent.

Each bundle step is the exact proximal point: a primal-dual interior-point
method solves the small QP in (mu, theta), and one linear solve on the face
it ends on (the tight cuts and the multipliers at zero) gives that face's
optimum, which replaces the interior-point answer when it is no worse.

The loop stops as Converged only when the over-model's optimum (the reported
dual bound) certifies the best Lagrangian value to within ``rel_tol``. A group
value not proven optimal adds no cut and stops the run as IterLimit.

Between iterations only the multipliers, and so the indicator objective of
each group, change. Each group's master is therefore built once per run and
re-priced before every solve, and its root LP starts from the basis the
previous iteration's root LP ended with (re-optimised by the dual simplex).
"""

from __future__ import annotations

import math
import time
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .baselines import NoSchedule, percentile, solve_deterministic
# solve_bnc stays bound here: perfbench's tracer test calls lagrangian.solve_bnc
from .bnc import BnCConfig, MasterModel, solve_bnc  # noqa: F401
from .core import (
    Bus,
    Instance,
    Schedule,
    ServiceParams,
    ValidationError,
    cc_threshold,
    schedule_cost,
    validate_schedule,
)
from .milp import INF, LESS, MilpModel, deadline_after, lp_solve
from .scenarios import ScenarioSet
from .subproblem import count_violated_scenarios


# the proximal master's interior-point method stops once its residuals and
# complementarity fall below IPM_TOL (relative), or after IPM_ITER_CAP steps
IPM_TOL = 1e-9
IPM_ITER_CAP = 100


def partition_trips(det_sched: Schedule, m_gr: int) -> tuple[tuple[int, ...], ...]:
    """Append whole buses to the current group; close it at m_gr trips.

    Trips left over when the buses run out stay together as the final group
    (possibly smaller than m_gr), so every trip is assigned and no group grows
    past one bus beyond the threshold. A trip on two buses raises.
    """
    if m_gr < 1:
        raise ValidationError("minimum group size must be at least 1")
    ids = det_sched.trip_ids()
    if len(ids) != len(set(ids)):
        raise ValidationError("groups overlap")
    groups: list[tuple[int, ...]] = []
    current: list[int] = []
    for bus in det_sched.buses:
        current.extend(bus.trips)
        if len(current) >= m_gr:
            groups.append(tuple(current))
            current = []
    if current:
        groups.append(tuple(current))
    return tuple(groups)


def restrict(inst: Instance, scen: ScenarioSet, trip_ids) -> tuple[Instance, ScenarioSet]:
    """Sub-instance and scenarios over a trip subset, with local contiguous
    ids: local trip l is trip ``meta["orig_ids"][l - 1]`` of ``inst``."""
    orig = sorted(trip_ids)
    to_local = {o: l for l, o in enumerate(orig, start=1)}
    route_ids = sorted({inst.trips[o - 1].route_id for o in orig})
    route_map = {r: l for l, r in enumerate(route_ids, start=1)}
    trips = [replace(t, id=to_local[t.id], route_id=route_map[t.route_id])
             for t in (inst.trips[o - 1] for o in orig)]
    idx = np.array([o - 1 for o in orig])
    sub_inst = Instance(
        trips, inst.depots,
        dh_time=inst.dh_time[np.ix_(idx, idx)],
        out_time=inst.out_time[:, idx],
        in_time=inst.in_time[idx, :],
        cost=inst.cost[np.ix_(idx, idx)],
        out_cost=inst.out_cost[:, idx],
        in_cost=inst.in_cost[idx, :],
        compat=[(to_local[i], to_local[j]) for (i, j) in inst.compat
                if i in to_local and j in to_local],
        meta={"parent": inst.meta.get("name", ""), "orig_ids": orig},
    )
    sub_scen = ScenarioSet(
        dur=scen.dur[:, idx],
        travel=scen.travel[:, idx][:, :, idx],
        out_t=scen.out_t[:, :, idx],
        in_t=scen.in_t[:, idx, :],
        rng_seed=scen.rng_seed,
    )
    return sub_inst, sub_scen


def penalty_coefficient(p: int, n_groups: int) -> int:
    """Multiplier on the dualized linking term: -(P-1) for group 1, else 1."""
    return -(n_groups - 1) if p == 1 else 1


class GroupInfeasible(ValidationError):
    """A group has no schedule within its scenario budget."""


def solve_group(master: MasterModel, mu: np.ndarray, p: int, n_groups: int,
                deadline: float | None = None):
    """Exact solve of one group with the penalized indicator objective.

    ``master``, over an instance from ``restrict``, is re-priced for ``mu``;
    its root LP starts from the previous solve's root basis, and the solve
    stops at ``deadline`` (see ``milp.deadline_after``).

    Returns (schedule in original ids, z vector, value, solved_to_optimality),
    or None when the deadline passed before any schedule was found. The
    value is the schedule's integer cost plus the penalty term on the rounded
    indicators, coef * (mu @ z). A group proven to have no schedule raises
    ``GroupInfeasible``.
    """
    coef = penalty_coefficient(p, n_groups)
    master.reprice(coef * mu)
    res = master.solve(deadline)
    if res.schedule is None:
        if res.status == "IterLimit":
            return None
        raise GroupInfeasible(f"group {p} has no feasible schedule")
    orig = master.inst.meta["orig_ids"]
    buses = tuple(Bus(b.depot, tuple(orig[i - 1] for i in b.trips))
                  for b in res.schedule.buses)
    z = np.array([round(v) for v in res.z], dtype=int)
    return Schedule(buses), z, res.objective + coef * float(mu @ z), res.status == "Optimal"


def subgradient(z_by_group: Sequence[np.ndarray]) -> np.ndarray:
    """Component s: the sum over groups p of penalty_coefficient(p, P) z^p_s."""
    P = len(z_by_group)
    return sum(penalty_coefficient(p, P) * z.astype(float)
               for p, z in enumerate(z_by_group, start=1))


class BundleModel:
    """Cutting-plane over-model of the concave dual with a proximal master.

    The master  max theta - (1/2t)||mu - center||^2  s.t. the bundle cuts and
    mu >= 0  is solved exactly: an interior-point method finds the optimal
    face, and one linear solve on that face gives the proximal point.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.consts: list[float] = []     # c_l = value_l - g_l . anchor_l
        self.grads: list[np.ndarray] = []

    def add_cut(self, value: float, g: np.ndarray, anchor: np.ndarray) -> None:
        self.consts.append(float(value - g @ anchor))
        self.grads.append(np.asarray(g, dtype=float).copy())

    def proximal_step(self, center: np.ndarray, t: float):
        """Returns (new mu, model value there) at the exact proximal point.

        In w = (mu - center)/t and tau = (theta - top)/t, with top the highest
        cut value at the center, the master is the QP
            min ||w||^2/2 - tau  s.t.  tau - g_l . w <= b_l,  w >= -center/t,
        b_l = (c_l + g_l . center - top)/t <= 0, whose Hessian is the identity
        in w. ``_proximal_qp`` solves it to IPM_TOL; then the optimum of the
        face it found (the cuts it holds tight and the coordinates at zero)
        is solved for directly and kept when its objective is no worse.
        """
        G = np.stack(self.grads)                      # (L, S)
        c = np.array(self.consts)
        at_center = c + G @ center
        w, tight, at_zero = _proximal_qp(G, (at_center - at_center.max()) / t, -center / t)

        def value(mu):
            return float((c + G @ mu).min())

        def objective(mu):
            return value(mu) - float(((mu - center) ** 2).sum()) / (2 * t)

        mu = np.maximum(0.0, center + t * w)
        # on the face: mu_F = center_F + t G_TF' nu, theta = c_l + g_l . mu for
        # every tight cut l, with multipliers nu summing to one, and mu = 0 off F
        free = ~at_zero
        G_tf = G[tight][:, free]
        k = len(G_tf)
        if k:
            kkt = np.zeros((k + 1, k + 1))
            kkt[:k, :k] = t * (G_tf @ G_tf.T)
            kkt[:k, k] = -1.0
            kkt[k, :k] = 1.0
            rhs = np.append(-(c[tight] + G_tf @ center[free]), 1.0)
            nu = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k]
            snapped = np.zeros_like(mu)
            snapped[free] = np.maximum(0.0, center[free] + t * (G_tf.T @ nu))
            if objective(snapped) >= objective(mu):
                mu = snapped
        return mu, value(mu)

    def maximum(self) -> float:
        """Optimum of the over-model: max theta s.t. theta <= c_l + g_l . mu
        for every cut, mu >= 0; +inf when it is unbounded.

        Every cut is a supergradient inequality of the concave dual, so this
        bounds the dual from above and with it every Lagrangian value.
        """
        lp = MilpModel()
        theta = lp.add_var(-INF, INF, -1.0)
        mu = [lp.add_var(0.0, INF) for _ in range(self.dim)]
        for c, g in zip(self.consts, self.grads):
            lp.add_constr({theta: 1.0, **{j: -float(gs) for j, gs in zip(mu, g)}}, LESS, c)
        sol = lp_solve(lp)
        return -sol.obj if sol.status == "Optimal" else math.inf


def _proximal_qp(G: np.ndarray, b: np.ndarray, lo: np.ndarray):
    """min ||w||^2/2 - tau  s.t.  tau - G w <= b,  w >= lo, by Mehrotra's
    primal-dual interior-point method from an infeasible start.

    Returns (w, tight, at_zero): the last iterate's w and the masks of the
    cut and bound rows whose slack has fallen below their multiplier.
    """
    L, S = G.shape
    A = np.zeros((L + S, S + 1))                  # rows A x <= h, x = (w, tau)
    A[:L, :S] = -G
    A[:L, S] = 1.0
    A[L:, :S] = -np.eye(S)
    h = np.concatenate([b, -lo])
    hess = np.append(np.ones(S), 0.0)
    lin = np.append(np.zeros(S), -1.0)
    x = np.append(np.zeros(S), b.min() - 1.0)
    s = np.maximum(h - A @ x, 1.0)
    z = np.ones(L + S)
    tol_p = IPM_TOL * (1.0 + np.abs(h).max())

    def max_step(v, dv):
        shrink = dv < 0
        return min(1.0, float((-v[shrink] / dv[shrink]).min())) if shrink.any() else 1.0

    for _ in range(IPM_ITER_CAP):
        r_d = hess * x + lin + A.T @ z
        r_p = A @ x + s - h
        gap = float(s @ z)
        if np.abs(r_p).max() <= tol_p and np.abs(r_d).max() <= IPM_TOL * (1.0 + z.max()) \
                and gap <= IPM_TOL * (1.0 + abs(0.5 * x[:S] @ x[:S] - x[S])):
            break
        K = A.T @ ((z / s)[:, None] * A)
        K[np.diag_indices(S + 1)] += hess

        def newton(r_c):
            dx = np.linalg.solve(K, A.T @ ((r_c - z * r_p) / s) - r_d)
            ds = -r_p - A @ dx
            return dx, ds, -(r_c + z * ds) / s

        try:
            dx, ds, dz = newton(s * z)                # affine predictor
            gap_aff = (s + max_step(s, ds) * ds) @ (z + max_step(z, dz) * dz)
            sigma = (gap_aff / gap) ** 3
            dx, ds, dz = newton(s * z + ds * dz - sigma * gap / (L + S))
        except np.linalg.LinAlgError:
            break                                     # K lost rank: keep the iterate
        alpha = 0.99 * min(max_step(s, ds), max_step(z, dz))
        x += alpha * dx
        s += alpha * ds
        z += alpha * dz
    tight = s < z
    return x[:S], tight[:L], tight[L:]


class CapacityError(ValidationError):
    """Recombined buses exceed the total depot capacity."""


def combine_and_repair(sub_scheds: Sequence[Schedule], inst: Instance) -> Schedule:
    """Concatenate group buses, then move sequences off overloaded depots.

    Repeatedly relocates the sequence whose new pull-out plus pull-in cost is
    smallest among all spare depots (ties: the lower bus index, then the lower
    depot) until every capacity holds.
    """
    buses = [b for sched in sub_scheds for b in sched.buses]
    caps = {k: inst.depot(k).capacity for k in range(1, inst.n_depots + 1)}
    if len(buses) > sum(caps.values()):
        raise CapacityError(
            f"{len(buses)} buses exceed the total depot capacity {sum(caps.values())}")
    while True:
        used = Counter(b.depot for b in buses)
        over = {k for k in caps if used[k] > caps[k]}
        if not over:
            break
        spare = [k for k in caps if used[k] < caps[k]]
        _, idx, k = min((int(inst.out_cost[k - 1, b.trips[0] - 1])
                         + int(inst.in_cost[b.trips[-1] - 1, k - 1]), idx, k)
                        for idx, b in enumerate(buses) if b.depot in over for k in spare)
        buses[idx] = Bus(k, buses[idx].trips)
    sched = Schedule(tuple(buses))
    validate_schedule(inst, sched)
    return sched


@dataclass
class LagrIterate:
    iteration: int
    primal: float
    dual: float
    step: str
    t: float
    incumbent_violations: int | None
    incumbent_cost: int | None


@dataclass
class LagrangianResult:
    status: str
    schedule: Schedule | None
    objective: int | float          # the schedule's cost; nan without a schedule
    violations: int | None
    feasible: bool
    primal_bound: float
    dual_bound: float
    iterations: int
    n_groups: int
    log: list[LagrIterate] = field(default_factory=list)
    time_s: float = 0.0


def solve_lagrangian(inst: Instance, params: ServiceParams, scen: ScenarioSet,
                     cfg: BnCConfig, m_gr: int, det_sched: Schedule | None = None,
                     max_iters: int = 100, rel_tol: float = 1e-3,
                     time_limit: float | None = None) -> LagrangianResult:
    """Run the decomposition loop; returns the best recombined schedule found.

    Each group's master is built once and re-priced for every iteration's
    multipliers; its root LP warm-starts from the previous iteration's root
    basis. A single group is the whole instance with nothing dualized, so the
    first iteration solves it exactly and its flat cut certifies it.

    The primal bound is the best Lagrangian value seen: the sum of the group
    values, each its schedule's integer cost plus the multiplier term on its
    rounded indicators (see ``solve_group``). The dual bound is the optimum
    of the bundle's over-model, max theta subject to every cut and mu >= 0
    (+inf while it is unbounded), so it lies at or above every Lagrangian
    value. The per-iteration theta of the proximal step stays in the log.
    Both bound the trip-partitioned problem, in which a bus serves one
    group's trips only, not the instance: its optimum can lie above the
    instance's, so the dual bound is no lower bound on the instance. Demo
    04 converges at a dual bound of 3427 on an instance with a schedule of
    cost 3395 within the violation budget.

    The status is Converged once dual bound - primal bound <= rel_tol *
    max(1, |primal bound|): ``rel_tol`` is the relative gap that certifies the
    best value. The proximal theta never exceeds the dual bound, so the
    over-model's LP runs only once theta is that close.

    ``time_limit`` bounds the whole run in seconds from the call, the
    deterministic start included (a start cut short by it gives IterLimit;
    one proven infeasible raises); nan raises ValidationError. Every group
    solve stops at the run's deadline. A group value not proven optimal (cut
    short by the limit) adds no cut and ends the run as IterLimit, keeping
    the incumbent. A lone group proven to have no schedule gives status
    Infeasible.
    """
    t0 = time.monotonic()
    deadline = deadline_after(time_limit)
    scen.check_instance(inst)
    if det_sched is None:
        left = None if deadline is None else deadline - time.monotonic()
        try:
            det_sched = solve_deterministic(inst, percentile(75), scen, time_limit=left)
        except NoSchedule as stop:
            if stop.status != "IterLimit":
                raise
            return LagrangianResult("IterLimit", None, math.nan, None, False, -math.inf,
                                    math.inf, 0, 0, [], time.monotonic() - t0)
    groups = partition_trips(det_sched, m_gr)
    P = len(groups)
    masters = [MasterModel(sub_inst, params.scaled_to(sub_inst), sub_scen, cfg)
               for sub_inst, sub_scen in (restrict(inst, scen, g) for g in groups)]
    S = scen.count
    budget = cc_threshold(S, params.epsilon)
    center = np.zeros(S)
    mu = center.copy()
    t = 0.5
    bundle = BundleModel(S)
    best_value = -math.inf          # value at the stability center
    incumbent: tuple[int, int, Schedule] | None = None
    log: list[LagrIterate] = []
    status = "IterLimit"
    prev_value = None
    predicted = None

    for it in range(max_iters):
        outs = []
        for p, master in enumerate(masters, start=1):
            try:
                out = solve_group(master, mu, p, P, deadline)
            except GroupInfeasible:
                if P > 1:
                    raise           # one group of several proves nothing of the whole
                status = "Infeasible"
                break
            if out is None:
                break
            outs.append(out)
        if len(outs) < P:
            break                   # no schedule: out of time, or proven infeasible
        scheds, zs, values, opts = zip(*outs)
        value = float(sum(values))
        g = subgradient(zs)
        try:
            combined = combine_and_repair(scheds, inst)
            cand = (count_violated_scenarios(inst, params, combined, scen),
                    schedule_cost(inst, combined), combined)
            if incumbent is None or cand[:2] < incumbent[:2]:
                incumbent = cand
        except CapacityError:
            pass
        if not all(opts):
            break                   # a group value cut short is no dual value

        bundle.add_cut(value, g, mu)
        # a serious step moves the stability center; t follows its own test
        serious = value > best_value
        if serious:
            center = mu.copy()
            best_value = value
        if predicted is not None:
            if value - prev_value < 0.1 * max(predicted, 1e-12):
                t = max(t / 2.0, 1e-6)
            else:
                t = min(t * 2.0, 0.9)
        mu_new, theta = bundle.proximal_step(center, t)
        log.append(LagrIterate(it, value, theta, "serious" if serious else "null", t,
                               *(incumbent[:2] if incumbent else (None, None))))
        tol = rel_tol * max(1.0, abs(best_value))
        if theta - best_value <= tol:
            dual_bound = bundle.maximum()
            if dual_bound - best_value <= tol:
                status = "Converged"
                break
        predicted = theta - best_value
        prev_value = value
        mu = mu_new

    if status != "Converged":
        dual_bound = bundle.maximum()
    bad, cost, sched = incumbent or (None, math.nan, None)
    return LagrangianResult(status, sched, cost, bad, bad is not None and bad <= budget,
                            best_value, dual_bound, len(log), P, log, time.monotonic() - t0)
