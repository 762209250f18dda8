"""Cut families linking schedule arcs to scenario indicator variables.

Given a candidate schedule that breaks a scenario's service requirements, each
generator here produces a linear inequality over aggregated arc variables of
the master form  sum lambda_ij sum_k x_ijk <= lambda_0 - 1 + z_s, from the
scenario's greedy evaluation (a ``ValueError`` if it breaks no requirement).
Families: plain and strong no-good cuts, deletion-filter minimal cuts,
infeasible-subsequence (minimal) cuts built by backtracking over the greedy
evaluation, and their head-replacement extensions; an exact dual certificate
ties the subsequence cuts to Benders cuts of a tightened LP.

The master's per-scenario valid inequalities are built here too, from the
planning pairs that are operationally late in each scenario. Legs and
earliest starts come from ``subproblem.pair_legs`` and ``propagate``, the
evaluator's own; ``operational_compat`` is the per-scenario late test.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .core import Arc, ChainIndex, Instance, Pair, Schedule, ServiceParams, schedule_to_arcs
from .scenarios import ScenarioSet
from .subproblem import GreedyResult, Requirement, _violated, pair_legs, propagate
# greedy_evaluate stays bound here: perfbench's tracer test calls cuts.greedy_evaluate
from .subproblem import greedy_evaluate  # noqa: F401

NO_GOOD = "nogood"
STRONG_NO_GOOD = "snogood"
MIS = "mis"
CMIS = "cmis"
ECMIS = "ecmis"
CUT_KINDS = (NO_GOOD, STRONG_NO_GOOD, MIS, CMIS, ECMIS)


@dataclass(frozen=True)
class Cut:
    """One master inequality with unit weights: the number of its pairs
    sequenced (over any depot) plus the number of its depot-specific arcs
    used is at most rhs_const - 1 + z_s. Pairs and arcs are sorted."""

    s: int
    kind: str
    pairs: tuple[Pair, ...]
    rhs_const: int
    depot_terms: tuple[Arc, ...] = ()    # only the plain no-good uses these

    def key(self):
        return self.s, self.pairs, self.depot_terms, self.rhs_const

    def violated_by(self, sched: Schedule, z_s: float) -> bool:
        return self.evaluate(sched) > self.rhs_const - 1 + z_s + 1e-9

    def evaluate(self, sched: Schedule) -> int:
        lhs = len(set(sched.sequenced_pairs()).intersection(self.pairs))
        if self.depot_terms:
            lhs += len(schedule_to_arcs(sched).intersection(self.depot_terms))
        return lhs


@dataclass(frozen=True)
class ValidInequality:
    """sum of x over known-late pairs <= theta0 z_s + theta1 (1 - z_s)."""

    s: int
    pairs: frozenset[Pair]
    theta0: int
    theta1: int
    scope: int | None = None     # None = all trips, else route id

    def satisfied_by(self, sched: Schedule, z_s: int) -> bool:
        lhs = len(self.pairs.intersection(sched.sequenced_pairs()))
        return lhs <= self.theta0 * z_s + self.theta1 * (1 - z_s) + 1e-9


@dataclass(frozen=True)
class CMisContext:
    """A delay core, the subsequences explaining it, and the backtracking trace."""

    s: int
    con: Requirement
    core: frozenset[int]
    pairs: frozenset[Pair]
    extra: frozenset[Pair] = frozenset()
    trace: tuple[tuple[int, int], ...] = ()


def operational_compat(inst: Instance, params: ServiceParams, scen: ScenarioSet,
                       s: int) -> set[Pair]:
    """Pairs that do not force a delay in scenario s:
    s_i - lb + d_i^s + t_ij^s - e_i <= s_j + ub."""
    out = set()
    dur = scen.dur[s]
    travel = scen.travel[s]
    for i, ti in enumerate(inst.trips, start=1):
        ready = ti.start - params.lb + int(dur[i - 1]) - ti.max_express
        for j, tj in enumerate(inst.trips, start=1):
            if i != j and ready + int(travel[i - 1, j - 1]) <= tj.start + params.ub:
                out.add((i, j))
    return out


def valid_inequalities(inst: Instance, params: ServiceParams,
                       scen: ScenarioSet) -> list[ValidInequality]:
    """One fleet-wide inequality per scenario and one per (scenario, route).

    Coefficients live on planning pairs that are operationally late in the
    scenario. With the indicator off, the number of sequenced late pairs is
    capped by the number of delays the requirement tolerates (I - f); with it
    on, by the number of trips that can be made late at all. Rows that can
    never bind are dropped.

    The late test of ``operational_compat`` is made once for all scenarios,
    as an (S, P) mask over the P planning pairs; rows come out scenario by
    scenario, the fleet-wide row before the route rows.
    """
    pairs = sorted(inst.compat)
    ij = np.array(pairs, dtype=np.intp).reshape(-1, 2) - 1
    pi, pj = ij[:, 0], ij[:, 1]
    start = np.array(inst.starts, dtype=np.int64)
    ready = (start[pi] - params.lb) + pair_legs(inst, scen, slice(None), pi, pj)
    late = ready > start[pj] + params.ub
    # delayable[s, j-1]: some planning pair into trip j is late in scenario s
    into = np.zeros((len(pairs), inst.n_trips), dtype=np.int64)
    into[np.arange(len(pairs)), pj] = 1
    delayable = late.astype(np.int64) @ into > 0
    pair_route = np.array([inst.route_of[j + 1] for j in pj], dtype=np.int64)
    scopes = [(None, inst.n_trips - params.f_trip, delayable.sum(axis=1),
               np.ones(len(pairs), dtype=bool))]
    for r, members in enumerate(inst.routes, start=1):
        scopes.append((r, len(members) - params.f_route[r - 1],
                       delayable[:, np.asarray(members, dtype=np.intp) - 1].sum(axis=1),
                       pair_route == r))
    out = []
    for s in range(scen.count):
        for scope, allowed, n_delayable, in_scope in scopes:
            i_s = int(n_delayable[s])
            if i_s > max(allowed, 0):
                row = frozenset(pairs[k] for k in np.flatnonzero(late[s] & in_scope))
                out.append(ValidInequality(s, row, i_s, allowed, scope))
    return out


def no_good_cut(sched: Schedule, s: int, g: GreedyResult) -> Cut:
    """Exclude exactly this schedule-with-depots (benchmarking baseline).

    Written over the arcs set to one; on the master polytope this matches the
    textbook form that also lists the zero variables, because covering every
    listed arc pins all remaining variables to zero.
    """
    if not g.violated:
        raise ValueError(f"schedule meets the requirements in scenario {s}; no cut to build")
    arcs = tuple(sorted(schedule_to_arcs(sched)))
    return Cut(s, NO_GOOD, (), len(arcs), arcs)


def strong_no_good_cut(sched: Schedule, s: int, g: GreedyResult) -> Cut:
    """Exclude the sequenced trip pairs under every depot assignment."""
    if not g.violated:
        raise ValueError(f"schedule meets the requirements in scenario {s}; no cut to build")
    pairs = tuple(sorted(set(sched.sequenced_pairs())))
    return Cut(s, STRONG_NO_GOOD, pairs, len(pairs))


def select_delay_core(inst: Instance, params: ServiceParams, sched: Schedule,
                      g: GreedyResult, con: Requirement) -> frozenset[int]:
    """Minimal predecessor-closed set of delayed trips witnessing the violation.

    Size is I - f_trip + 1 (or the route analogue). Candidates are taken
    latest-start-first (ties: lowest id); picking a trip pulls in every delayed
    candidate scheduled before it on the same bus, earliest first, so the
    selection per bus is a prefix of that bus's delayed trips.
    """
    if con not in g.violated:
        raise ValueError(f"requirement {con} is not violated by this evaluation")
    if con.route is None:
        pool = set(g.delayed)
        needed = len(g.y_star) - params.f_trip + 1
    else:
        members = set(inst.routes[con.route - 1])
        pool = set(g.delayed) & members
        needed = len(members) - params.f_route[con.route - 1] + 1
    bus_of = {}
    pos_of = {}
    for b, bus in enumerate(sched.buses):
        for p, i in enumerate(bus.trips):
            bus_of[i] = b
            pos_of[i] = p
    chosen: list[int] = []
    order = sorted(pool, key=lambda i: (-int(g.y_star[i - 1]), i))
    for cand in order:
        if len(chosen) >= needed:
            break
        if cand in chosen:
            continue
        required = sorted((i for i in pool if bus_of[i] == bus_of[cand]
                           and pos_of[i] <= pos_of[cand] and i not in chosen),
                          key=lambda i: pos_of[i])
        for i in required:
            if len(chosen) >= needed:
                break
            chosen.append(i)
    if len(chosen) != needed:
        raise ValueError("delay core selection failed; violation inconsistent with pool")
    return frozenset(chosen)


def build_cmis(inst: Instance, params: ServiceParams, sched: Schedule,
               scen: ScenarioSet, s: int, g: GreedyResult,
               con: Requirement) -> CMisContext:
    """Backtrack from each core trip to the subsequence that explains its delay.

    The working target starts at s_i + ub + 1, the first late start; passing
    a predecessor subtracts its leg and passing another core trip raises the
    target to that trip's own first late start. Backtracking stops once the
    current head, started as early as possible, still meets the target.
    """
    core = select_delay_core(inst, params, sched, g, con)
    start, lb, ub = inst.starts, params.lb, params.ub
    pending = set(core)
    pairs: set[Pair] = set()
    trace: list[tuple[int, int]] = []
    for bus in sched.buses:
        in_bus = [t for t in bus.trips if t in pending]
        if not in_bus:
            continue
        ids = np.array(bus.trips, dtype=np.intp) - 1
        legs = pair_legs(inst, scen, s, ids[:-1], ids[1:]).tolist()   # legs[p-1] into trips[p]
        while in_bus:
            i = max(in_bus, key=lambda t: (int(g.y_star[t - 1]), bus.trips.index(t)))
            pending.discard(i)
            target = start[i - 1] + ub + 1
            trace.append((i, target))
            while target > 0:
                pos = bus.trips.index(i)
                if pos == 0:
                    raise ValueError(
                        f"reached the head of a bus with target {target} left to explain; "
                        f"evaluation and schedule disagree")
                j = bus.trips[pos - 1]
                pairs.add((j, i))
                leg = legs[pos - 1]
                if start[j - 1] - lb + leg >= target:
                    target = 0
                    trace.append((j, 0))
                else:
                    target -= leg
                    if j in pending:
                        target = max(target, start[j - 1] + ub + 1)
                        pending.discard(j)
                    trace.append((j, target))
                    i = j
            in_bus = [t for t in bus.trips if t in pending]
    return CMisContext(s, con, core, frozenset(pairs), frozenset(), tuple(trace))


def pairs_to_paths(pairs) -> list[list[int]]:
    """Decompose a pair set into vertex-disjoint paths; error if not disjoint."""
    nxt: dict[int, int] = {}
    prev: dict[int, int] = {}
    for (i, j) in pairs:
        if i in nxt or j in prev:
            raise ValueError("pairs do not form vertex-disjoint paths")
        nxt[i] = j
        prev[j] = i
    heads = sorted(i for i in nxt if i not in prev)
    paths = []
    seen = 0
    for h in heads:
        path = [h]
        while path[-1] in nxt:
            path.append(nxt[path[-1]])
            seen += 1
        paths.append(path)
    if seen != len(set(pairs)):
        raise ValueError("pairs contain a cycle")
    return paths


def _run_paths(inst: Instance, params: ServiceParams, scen: ScenarioSet, s: int,
               paths: list[list[int]]) -> tuple[list[int], list[int], list[int]]:
    """Each path run as its own bus in scenario s: the legs of its pairs in
    path order, then ``propagate``'s starts and late trips."""
    index = ChainIndex.of(paths)
    legs = pair_legs(inst, scen, s, index.prev, index.nxt).tolist()
    return (legs, *propagate(inst, params, index.chains, legs))


def is_infeasible_set(inst: Instance, params: ServiceParams, scen: ScenarioSet,
                      s: int, pairs, con: Requirement | None = None) -> bool:
    """True iff the pairs alone force enough delays to break a requirement.

    Each path is propagated with its head starting as early as possible and
    expressing at its maximum; a trip is forced late when its earliest start
    exceeds s + ub regardless of the rest of the schedule. The forced trips
    break requirements by the evaluator's rule. With ``con`` given, only that
    requirement counts (the subsystem minimal subsequences are built
    against); by default any requirement does.
    """
    for p in pairs:
        if tuple(p) not in inst.compat:
            raise ValueError(f"pair {p} is not planning compatible")
    late = _run_paths(inst, params, scen, s, pairs_to_paths(pairs))[2]
    violated = _violated(inst, params, late)
    return bool(violated) if con is None else con in violated


def mis_deletion_filter(inst: Instance, params: ServiceParams, scen: ScenarioSet,
                        s: int, pairs, con: Requirement | None = None) -> frozenset[Pair]:
    """Shrink an infeasible pair set to a single-deletion-minimal one.

    Deterministic lexicographic scan; replaces solver-based conflict
    refinement with an oracle that has the same output contract. Minimality is
    relative to ``con`` when given, matching the per-requirement subsequence
    construction.
    """
    current = set(tuple(p) for p in pairs)
    if not is_infeasible_set(inst, params, scen, s, current, con):
        raise ValueError("input pair set is not an infeasible set")
    for p in sorted(current):
        trial = current - {p}
        if trial and is_infeasible_set(inst, params, scen, s, trial, con):
            current = trial
    return frozenset(current)


def mis_cut(inst: Instance, params: ServiceParams, sched: Schedule,
            scen: ScenarioSet, s: int, g: GreedyResult) -> Cut:
    """Cut on a single-deletion-minimal infeasible subset of the sequenced
    pairs (``mis_deletion_filter``)."""
    if not g.violated:
        raise ValueError(f"schedule meets the requirements in scenario {s}; no cut to build")
    pairs = mis_deletion_filter(inst, params, scen, s, set(sched.sequenced_pairs()))
    return Cut(s, MIS, tuple(sorted(pairs)), len(pairs))


def extend_cmis(inst: Instance, params: ServiceParams, scen: ScenarioSet,
                s: int, ctx: CMisContext) -> CMisContext:
    """Add alternative head pairs that force the same core delays.

    A trip h can replace a path's head when (h, second) is planning compatible,
    h appears in no existing pair, and propagating from h's earliest start
    still delays every core trip on the path.
    """
    used = {t for p in ctx.pairs for t in p}
    extra: set[Pair] = set()
    for path in pairs_to_paths(ctx.pairs):
        heads = [h for h in inst.pred[path[1]] if h not in used]
        tail = np.array(path[1:], dtype=np.intp) - 1
        tail_legs = pair_legs(inst, scen, s, tail[:-1], tail[1:]).tolist()
        head_legs = pair_legs(inst, scen, s, np.array(heads, dtype=np.intp) - 1,
                              np.full(len(heads), tail[0])).tolist()
        chain_tail = tuple(tail.tolist())
        targets = {t for t in path if t in ctx.core}
        for h, leg in zip(heads, head_legs):
            late = propagate(inst, params, [(h - 1, chain_tail)], [leg] + tail_legs)[1]
            if targets.issubset(late):
                extra.add((h, path[1]))
    return replace(ctx, extra=frozenset(extra))


def cmis_cut(ctx: CMisContext) -> Cut:
    """Master cut for the subsequences and their extension pairs, right-hand
    side |pairs| - 1 + z_s (unchanged by extension)."""
    kind = ECMIS if ctx.extra else CMIS
    return Cut(ctx.s, kind, tuple(sorted(ctx.pairs | ctx.extra)), len(ctx.pairs))


@dataclass
class CertificateReport:
    """Outcome of verifying the constructed dual of the tightened scenario LP."""

    ok: bool
    failures: list[str] = field(default_factory=list)
    alpha: dict[Pair, Fraction] = field(default_factory=dict)
    objective: Fraction = Fraction(0)
    cut: Cut | None = None


def dual_certificate(inst: Instance, params: ServiceParams, sched: Schedule,
                     scen: ScenarioSet, s: int, ctx: CMisContext) -> CertificateReport:
    """Construct and verify the closed-form dual of the tightened scenario LP.

    The LP is taken for the path-restricted schedule (each explaining
    subsequence as its own bus), whose earliest starts are exactly the
    backtracking targets; there every path head starts as early as possible,
    which the construction needs. The tightening pins M_otp to y' - s and, on
    path pairs, M_start to y'. The dual puts 1/y' on each subsequence pair,
    unit weight on the delay-core counting row, and head/middle/tail weights
    on the start-window rows. Verification (exact rational arithmetic):
    nonnegativity, the start-column equalities, the on-time column
    inequalities, unit dual objective, and that the induced Benders cut
    coincides with the subsequence cut.
    """
    report = CertificateReport(ok=True)
    if any(t.start - params.lb <= 0 for t in inst.trips):
        raise ValueError("certificate requires strictly positive earliest starts")
    sequenced = set(sched.sequenced_pairs())
    for p in ctx.pairs:
        if p not in sequenced:
            raise ValueError(f"subsequence pair {p} is not sequenced in the schedule")
    paths = pairs_to_paths(ctx.pairs)
    nxt = {j: i for (j, i) in ctx.pairs}
    heads = {p[0] for p in paths}
    tails = {p[-1] for p in paths}
    # earliest starts when each subsequence runs as its own bus
    legs, starts, _ = _run_paths(inst, params, scen, s, paths)
    leg_of = dict(zip((p for path in paths for p in zip(path, path[1:])), legs))
    y = {t: starts[t - 1] for path in paths for t in path}
    involved = sorted(y)

    alpha = {(j, i): Fraction(1, y[i]) for (j, i) in ctx.pairs}
    beta = {j: Fraction(1, y[nxt[j]]) for j in heads}
    pi: dict[int, Fraction] = {}
    for t in involved:
        if t in heads:
            continue
        if t in tails:
            pi[t] = Fraction(1, y[t])
        else:
            pi[t] = Fraction(1, y[t]) - Fraction(1, y[nxt[t]])
    sigma_mis = Fraction(1)

    def fail(msg):
        report.ok = False
        report.failures.append(msg)

    for t, val in pi.items():
        if val < 0:
            fail(f"pi[{t}] negative: start times not monotone along the path")
    # start-time column of each trip must price to exactly zero (y > 0 basic)
    for i in range(1, inst.n_trips + 1):
        total = Fraction(0)
        for (j2, i2), a in alpha.items():
            if i2 == i:
                total += a
            if j2 == i:
                total -= a
        total -= pi.get(i, Fraction(0))
        total += beta.get(i, Fraction(0))
        if total != 0:
            fail(f"start-column {i} prices to {total}, expected 0")
    # on-time columns: sigma terms plus pi (ub - y' + s) must stay nonnegative
    for i in involved:
        coef = Fraction(params.ub - y[i] + inst.trips[i - 1].start)
        lhs = pi.get(i, Fraction(0)) * coef
        if i in ctx.core:
            lhs += sigma_mis
        if lhs < 0:
            fail(f"on-time column {i} prices to {lhs} < 0")
    for i in ctx.core:
        if y[i] <= inst.trips[i - 1].start + params.ub:
            fail(f"core trip {i} is not forced late by the subsequence")
    # z column: the counting row alone carries the unit weight
    if sigma_mis != 1:
        fail("z-column weight differs from 1")

    obj = sigma_mis * Fraction(1)
    for p, a in alpha.items():
        obj += a * leg_of[p]
    for t, val in pi.items():
        obj -= val * y[t]
    for t, val in beta.items():
        obj += val * (inst.trips[t - 1].start - params.lb)
    report.objective = obj
    if obj != 1:
        fail(f"dual objective is {obj}, expected exactly 1")

    lam = {(j, i): a * y[i] for (j, i), a in alpha.items()}   # alpha times the tightened M_start
    if any(v != 1 for v in lam.values()):
        fail("Benders coefficients are not all one")
    induced = Cut(ctx.s, CMIS, tuple(sorted(lam)), len(lam))
    reference = cmis_cut(replace(ctx, extra=frozenset()))
    if induced.key() != reference.key():
        fail("induced Benders cut differs from the subsequence cut")
    report.alpha = alpha
    report.cut = induced
    return report
