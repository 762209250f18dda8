"""Scenario-reformulation master problem and the exact branch-and-cut loop.

The master carries the flow model it shares with the deterministic baselines,
one indicator per scenario and the violation budget; scenario requirements
enter lazily as cuts whenever a candidate schedule fails a scenario the master
claimed satisfied. Enhancement switches: per-scenario valid inequalities on the
master, and relaxing the indicator integrality (every cut forces its indicator
to one at the generating schedule, so branching on indicators is unnecessary).
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .core import (
    Arc,
    Instance,
    Pair,
    Schedule,
    ServiceParams,
    cc_threshold,
    schedule_cost,
    schedule_from_arcs,
    schedule_to_arcs,
    validate_schedule,
)
from .cuts import (
    CUT_KINDS,
    ECMIS,
    MIS,
    NO_GOOD,
    STRONG_NO_GOOD,
    Cut,
    build_cmis,
    cmis_cut,
    extend_cmis,
    mis_cut,
    no_good_cut,
    strong_no_good_cut,
    valid_inequalities,
)
from .milp import EQUAL, LESS, MilpModel, bnb_solve, deadline_after
from .scenarios import ScenarioSet
from .subproblem import count_violated_scenarios, evaluate_scenarios, greedy_evaluate

VARIANTS = {
    "Nn": (False, False),   # no enhancements
    "VI": (True, False),    # valid inequalities only
    "ZC": (False, True),    # continuous indicators only
    "Bo": (True, True),     # both
}


@dataclass(frozen=True)
class BnCConfig:
    cut_family: str = ECMIS
    use_vi: bool = True
    relax_z: bool = True

    def __post_init__(self):
        if self.cut_family not in CUT_KINDS:
            raise ValueError(f"unknown cut family {self.cut_family!r}")

    @classmethod
    def for_variant(cls, name: str, **kw) -> "BnCConfig":
        use_vi, relax_z = VARIANTS[name]
        return cls(use_vi=use_vi, relax_z=relax_z, **kw)


@dataclass
class BnCResult:
    """``objective`` is the schedule's integer cost (nan without a schedule);
    ``iterations`` counts the simplex iterations of every LP of the search."""

    status: str
    schedule: Schedule | None
    objective: int | float
    bound: float
    gap: float
    cuts_added: dict[str, int]
    nodes: int
    iterations: int
    time_s: float
    z: tuple[float, ...]
    train_violations: int | None = None


class FlowModel:
    """The multi-depot flow model over the arc network: one 0/1 column per
    depot and arc, and the rows that reach every trip exactly once.

    Columns come depot by depot: each trip's pull-out and pull-in, then each
    pair of ``sorted(compat)``. Callers add the capacity and balance rows in
    their own order, since the row order steers the simplex's pivots.
    """

    def __init__(self, inst: Instance, compat: Iterable[Pair]):
        self.inst = inst
        model = self.model = MilpModel()
        I, K = inst.n_trips, inst.n_depots
        pairs = sorted(compat)
        self.x: dict[Arc, int] = {}
        for k in range(1, K + 1):
            for i in range(1, I + 1):
                self.x[(-k, i, k)] = model.add_var(0, 1, float(inst.out_cost[k - 1, i - 1]), True)
                self.x[(i, -k, k)] = model.add_var(0, 1, float(inst.in_cost[i - 1, k - 1]), True)
            for (i, j) in pairs:
                self.x[(i, j, k)] = model.add_var(0, 1, float(inst.cost[i - 1, j - 1]), True)
        # every arc and, in the same order, its column, for decode's one gather
        self._arcs = list(self.x)
        self._arc_cols = np.fromiter(self.x.values(), dtype=np.intp, count=len(self.x))
        # pair -> its column in each depot, in depot order
        self.pair_cols = {p: [self.x[(*p, k)] for k in range(1, K + 1)] for p in pairs}
        # each trip's predecessors and successors among the pairs
        self.pred = {j: [i for i in inst.pred[j] if (i, j) in self.pair_cols] for j in range(1, I + 1)}
        self.succ = {i: [j for j in inst.succ[i] if (i, j) in self.pair_cols] for i in range(1, I + 1)}
        # each trip is reached exactly once, over all depots
        for j in range(1, I + 1):
            coeffs = {self.x[(-k, j, k)]: 1.0 for k in range(1, K + 1)}
            for i in self.pred[j]:
                coeffs.update(dict.fromkeys(self.pair_cols[(i, j)], 1.0))
            model.add_constr(coeffs, EQUAL, 1.0)

    def add_capacity_row(self, k: int) -> None:
        """Depot k pulls out at most its capacity."""
        self.model.add_constr({self.x[(-k, i, k)]: 1.0 for i in range(1, self.inst.n_trips + 1)},
                              LESS, float(self.inst.depot(k).capacity))

    def add_balance_rows(self, k: int) -> None:
        """Depot k's flow into every trip equals its flow out."""
        for i in range(1, self.inst.n_trips + 1):
            coeffs = {self.x[(-k, i, k)]: 1.0, self.x[(i, -k, k)]: -1.0}
            for j in self.pred[i]:
                coeffs[self.x[(j, i, k)]] = 1.0
            for j in self.succ[i]:
                coeffs[self.x[(i, j, k)]] = -1.0
            self.model.add_constr(coeffs, EQUAL, 0.0)

    def decode(self, x_vals: np.ndarray) -> Schedule:
        """The schedule of the arcs whose column is above one half."""
        on = (x_vals[self._arc_cols] > 0.5).nonzero()[0]
        return schedule_from_arcs(self.inst, [self._arcs[i] for i in on.tolist()])


class MasterModel(FlowModel):
    """Flow model over the arc network plus scenario indicators.

    The rows built here are the base rows; cuts join as lazy rows during a
    solve. ``reprice`` returns a solved master to its base rows under another
    indicator objective, so one master serves a sequence of solves, each root
    LP starting from the basis the previous one's root LP ended with.
    """

    def __init__(self, inst: Instance, params: ServiceParams, scen: ScenarioSet,
                 cfg: BnCConfig):
        depots = range(1, inst.n_depots + 1)
        super().__init__(inst, inst.compat)
        self.params, self.scen, self.cfg = params, scen, cfg
        # the most scenarios the schedule may break
        self._budget = cc_threshold(scen.count, params.epsilon)
        self.z = np.array([self.model.add_var(0, 1, 0.0, not cfg.relax_z)
                           for _ in range(scen.count)], dtype=np.intp)
        for k in depots:
            self.add_capacity_row(k)
        for k in depots:
            self.add_balance_rows(k)
        # violation budget
        self.model.add_constr(dict.fromkeys(self.z, 1.0), LESS, float(self._budget))
        if cfg.use_vi:
            for vi in valid_inequalities(inst, params, scen):
                coeffs = {j: 1.0 for pair in sorted(vi.pairs) for j in self.pair_cols[pair]}
                # sum x <= theta1 + (theta0 - theta1) z
                coeffs[self.z[vi.s]] = float(vi.theta1 - vi.theta0)
                self.model.add_constr(coeffs, LESS, float(vi.theta1))
        self.n_base_rows = self.model.n_rows
        self.pool: set = set()
        # final basis of the last solve's first root LP, over the base rows
        self.root_basis: list[int] | None = None

    def reprice(self, z_obj: np.ndarray) -> None:
        """Charge ``z_obj[s]`` per unit of indicator s and drop the lazy rows
        and cut pool of the previous solve.

        A nonzero charge makes the indicators binary, since the charged value
        needs 0/1 indicators; with none, ``cfg.relax_z`` decides as at build.
        """
        charged = bool(np.any(z_obj != 0))
        for s, j in enumerate(self.z):
            self.model.obj[j] = float(z_obj[s])
            self.model.is_int[j] = charged or not self.cfg.relax_z
        self.model.truncate_rows(self.n_base_rows)
        self.pool.clear()

    def solve(self, deadline: float | None = None,
              initial_schedule: Schedule | None = None) -> BnCResult:
        """Branch-and-cut on this master as it stands until ``deadline``; lazy rows stay added.

        The root LP starts from ``root_basis``, which is then replaced by the
        basis this solve's first root LP ended with. ``initial_schedule``, a
        schedule of this instance, seeds the search as its first incumbent
        when it breaks no more scenarios than the budget allows; one that
        ``validate_schedule`` rejects raises its ``ValidationError``.
        """
        t0 = time.monotonic()
        inst, params, scen, cfg = self.inst, self.params, self.scen, self.cfg
        if initial_schedule is not None:
            validate_schedule(inst, initial_schedule)
        counts = {kind: 0 for kind in CUT_KINDS}

        def lazy(x_vals):
            sched = self.decode(x_vals)
            zv = self.z_values(x_vals)
            cuts = cut_generation_routine(inst, params, scen, cfg, sched, zv, self.pool)
            for c in cuts:
                counts[c.kind] += 1
            return [self.cut_row(c) for c in cuts]

        incumbent0 = None if initial_schedule is None else self.encode_incumbent(initial_schedule)
        sol = bnb_solve(self.model, lazy=lazy, deadline=deadline,
                        incumbent0=incumbent0, root_basis=self.root_basis)
        if sol.root_basis is not None:
            self.root_basis = sol.root_basis
        elapsed = time.monotonic() - t0
        cuts_added = {k: v for k, v in counts.items() if v}
        if sol.x is None:
            return BnCResult(sol.status, None, math.nan, sol.bound, sol.gap,
                             cuts_added, sol.nodes, sol.iterations, elapsed, ())
        sched = self.decode(sol.x)
        z = tuple(float(v) for v in self.z_values(sol.x))
        bad = count_violated_scenarios(inst, params, sched, scen)
        if sol.status == "Optimal" and bad > self._budget:
            raise AssertionError(f"accepted schedule violates {bad} scenarios, budget {self._budget}")
        return BnCResult(sol.status, sched, schedule_cost(inst, sched), float(sol.bound),
                         float(sol.gap), cuts_added, sol.nodes, sol.iterations, elapsed, z,
                         train_violations=bad)

    def z_values(self, x_vals: np.ndarray) -> np.ndarray:
        return x_vals[self.z]

    def cut_row(self, cut: Cut):
        """The cut as a master row: one on every column of its pairs and arcs."""
        coeffs = dict.fromkeys([j for pair in cut.pairs for j in self.pair_cols[pair]]
                               + [self.x[arc] for arc in cut.depot_terms], 1.0)
        coeffs[self.z[cut.s]] = -1.0
        return (coeffs, LESS, float(cut.rhs_const - 1))

    def encode_incumbent(self, sched: Schedule):
        """Feasible start point: the schedule's arcs plus honest indicators."""
        z_star = evaluate_scenarios(self.inst, self.params, sched, self.scen)[0]
        if z_star.sum() > self._budget:
            return None
        x = np.zeros(self.model.n_vars)
        for arc in schedule_to_arcs(sched):
            x[self.x[arc]] = 1.0
        x[self.z] = z_star
        return x, float(schedule_cost(self.inst, sched))


def cut_generation_routine(inst: Instance, params: ServiceParams, scen: ScenarioSet,
                           cfg: BnCConfig, sched: Schedule, z_vals: np.ndarray,
                           pool: set) -> list[Cut]:
    """All violated cuts of the configured family across unserved scenarios.

    The scenario evaluator screens every scenario at once; only scenarios the
    master claims satisfied (indicator below one) that the schedule in fact
    breaks are evaluated again, once each, with the greedy evaluator, and every
    cut builder takes that evaluation. Each yields cuts of the configured
    family, one per violated requirement for the subsequence families. Cuts
    whose key is in ``pool`` are dropped and the keys of the returned cuts join
    it; keys carry the scenario index, so a fresh ``set()`` drops nothing. A
    strong no-good backstop, built from the same evaluation, guarantees
    progress if a family ever returns nothing new for a violated scenario.
    """
    out: list[Cut] = []
    threshold = 0.5 if not cfg.relax_z else 1.0 - 1e-6
    broken = evaluate_scenarios(inst, params, sched, scen)[0]
    for s in np.flatnonzero(broken & (z_vals < threshold)).tolist():
        g = greedy_evaluate(inst, params, sched, scen, s)
        if cfg.cut_family == NO_GOOD:
            produced = [no_good_cut(sched, s, g)]
        elif cfg.cut_family == STRONG_NO_GOOD:
            produced = [strong_no_good_cut(sched, s, g)]
        elif cfg.cut_family == MIS:
            produced = [mis_cut(inst, params, sched, scen, s, g)]
        else:
            produced = []
            for con in g.violated:
                ctx = build_cmis(inst, params, sched, scen, s, g, con)
                if cfg.cut_family == ECMIS:
                    ctx = extend_cmis(inst, params, scen, s, ctx)
                produced.append(cmis_cut(ctx))
        fresh = [c for c in produced if c.key() not in pool]
        if not fresh:
            backstop = strong_no_good_cut(sched, s, g)
            if backstop.key() not in pool:
                fresh = [backstop]
        pool.update(c.key() for c in fresh)
        out.extend(fresh)
    return out


def solve_bnc(inst: Instance, params: ServiceParams, scen: ScenarioSet,
              cfg: BnCConfig, initial_schedule: Schedule | None = None,
              time_limit: float | None = None) -> BnCResult:
    """Exact solve of the scenario reformulation by branch-and-cut; a stop on
    ``time_limit`` (seconds from the call, the master build included; nan
    raises ValidationError) returns IterLimit with the best schedule found."""
    t0 = time.monotonic()
    deadline = deadline_after(time_limit)
    scen.check_instance(inst)
    master = MasterModel(inst, params, scen, cfg)
    res = master.solve(deadline, initial_schedule)
    res.time_s = time.monotonic() - t0
    return res
