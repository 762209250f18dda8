"""Acceptance suite: one test per shipping criterion, each printing PASS/FAIL.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines. Frozen expectations come from the bundled worked examples; everything
statistical runs on fixed seeds.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    brute_force_cc_optimum,
    enumerate_schedules,
    joint_optimum,
    random_instance,
    random_scenarios,
    random_schedule,
)

from ccvsp import gallery
from ccvsp.baselines import MEAN, percentile, satisfaction_pct, solve_deterministic
from ccvsp.bnc import VARIANTS, BnCConfig, cut_generation_routine, solve_bnc
from ccvsp.core import (
    Bus,
    Schedule,
    ServiceParams,
    cc_threshold,
    schedule_cost,
)
from ccvsp.cuts import (
    CUT_KINDS,
    build_cmis,
    cmis_cut,
    dual_certificate,
    extend_cmis,
    is_infeasible_set,
    mis_deletion_filter,
    valid_inequalities,
)
from ccvsp.lagrangian import solve_lagrangian
from ccvsp.scenarios import GenParams, _lognormal_rounded, generate_instance, sample_scenarios
from ccvsp.subproblem import TRIP_LEVEL, greedy_evaluate, milp_subproblem_oracle


def _report(cid: str, ok: bool, detail: str):
    # tee-sys capture (set in pyproject) passes these through to the console
    print(f"\nACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"{cid}: {detail}"


# -- criterion 1: golden backtracking trace ----------------------------------

def test_c01_delay_chain_golden_trace():
    inst, params, sched, scen = gallery.delay_chain()
    g = greedy_evaluate(inst, params, sched, scen, 0)
    best = np.inf
    for _ in range(10):
        t0 = time.perf_counter()
        ctx = build_cmis(inst, params, sched, scen, 0, g, TRIP_LEVEL)
        best = min(best, time.perf_counter() - t0)
    trace_vals = [t for (_, t) in ctx.trace]
    ok = (trace_vals == [96, 73, 59, 0]
          and ctx.pairs == {(3, 4), (4, 5), (5, 6)}
          and best < 1e-3)
    _report("C1", ok, f"trace {trace_vals}, pairs {sorted(ctx.pairs)}, "
                      f"best time {best * 1e6:.0f} us")


# -- criterion 2: reference costs ---------------------------------------------

def test_c02_reference_schedules_cost_twenty():
    inst = gallery.two_depot_grid()
    left = schedule_cost(inst, gallery.grid_schedule_left())
    right = schedule_cost(inst, gallery.grid_schedule_right())
    _report("C2", left == 20 and right == 20, f"left {left}, right {right}")


# -- criterion 3: greedy equals the MILP oracle -------------------------------

def test_c03_greedy_oracle_equivalence():
    rng = np.random.default_rng(1234)
    t0 = time.monotonic()
    triples = 0
    mismatches = 0
    while triples < 500:
        I = int(rng.integers(4, 16))
        inst = random_instance(rng, n_trips=I, n_routes=max(1, min(3, I // 2)))
        params = ServiceParams.for_instance(
            inst, lb=1, ub=int(rng.integers(0, 5)),
            delta_trip=float(rng.uniform(0.6, 1.0)),
            delta_route=float(rng.uniform(0.4, 1.0)), epsilon=0.2)
        scen = random_scenarios(rng, inst, 2, spread=int(rng.integers(4, 14)))
        sched = random_schedule(rng, inst)
        for s in range(2):
            g = greedy_evaluate(inst, params, sched, scen, s)
            z, _, v = milp_subproblem_oracle(inst, params, sched, scen, s)
            if z != g.z_star or int(v.sum()) != inst.n_trips - len(g.delayed):
                mismatches += 1
            triples += 1
    dt = time.monotonic() - t0
    _report("C3", mismatches == 0 and dt < 120.0,
            f"{triples} triples, {mismatches} mismatches, {dt:.1f}s")


# -- criteria 4, 5 and 7 share a pool of exhaustively solvable instances ------

def _exhaustive_pool():
    rng = np.random.default_rng(4242)
    pool = []
    while len(pool) < 30:
        I = int(rng.integers(5, 8))
        K = int(rng.integers(1, 3))
        S = int(rng.integers(4, 9))
        inst = random_instance(rng, n_trips=I, n_depots=K, n_routes=2)
        params = ServiceParams.for_instance(
            inst, lb=1, ub=int(rng.integers(1, 3)),
            delta_trip=float(rng.uniform(0.7, 1.0)),
            delta_route=float(rng.uniform(0.4, 1.0)),
            epsilon=float(rng.uniform(0.2, 0.45)))
        scen = random_scenarios(rng, inst, S, spread=int(rng.integers(6, 15)))
        best = brute_force_cc_optimum(inst, params, scen)
        pool.append((inst, params, scen, best))
    return pool


@pytest.fixture(scope="module")
def exhaustive_pool():
    return _exhaustive_pool()


def test_c04_exact_solver_matches_enumeration(exhaustive_pool):
    t0 = time.monotonic()
    solves = 0
    wrong = []
    feasible_instances = 0
    for n, (inst, params, scen, best) in enumerate(exhaustive_pool):
        if best is not None:
            feasible_instances += 1
        for family in CUT_KINDS:
            for variant in sorted(VARIANTS):
                cfg = BnCConfig.for_variant(variant, cut_family=family)
                res = solve_bnc(inst, params, scen, cfg)
                solves += 1
                if best is None:
                    if res.status != "Infeasible":
                        wrong.append((n, family, variant, "expected infeasible"))
                elif res.status != "Optimal" or abs(res.objective - best) > 1e-6:
                    wrong.append((n, family, variant, res.status, res.objective, best))
    dt = time.monotonic() - t0
    _report("C4", not wrong and dt < 600.0 and feasible_instances >= 20,
            f"{len(exhaustive_pool)} instances ({feasible_instances} feasible), "
            f"{solves} solves, {len(wrong)} disagreements, {dt:.1f}s")
    assert not wrong, wrong[:5]


def test_c05_cut_and_inequality_validity(exhaustive_pool):
    violations = 0
    cuts_checked = 0
    vis_checked = 0
    for (inst, params, scen, _) in exhaustive_pool:
        schedules = list(enumerate_schedules(inst))
        feasible = []
        budget = cc_threshold(scen.count, params.epsilon)
        for sched in schedules:
            verdicts = [greedy_evaluate(inst, params, sched, scen, s).z_star
                        for s in range(scen.count)]
            if sum(verdicts) <= budget:
                feasible.append((sched, verdicts))
        collected = []
        for family in CUT_KINDS:
            cfg = BnCConfig(cut_family=family, use_vi=False, relax_z=False)
            for sched in schedules[:200]:
                collected.extend(cut_generation_routine(
                    inst, params, scen, cfg, sched, np.zeros(scen.count), set()))
        vis = valid_inequalities(inst, params, scen)
        for sched, verdicts in feasible:
            for cut in collected:
                if cut.violated_by(sched, verdicts[cut.s]):
                    violations += 1
            for vi in vis:
                if not vi.satisfied_by(sched, verdicts[vi.s]):
                    violations += 1
        cuts_checked += len(collected)
        vis_checked += len(vis)
    _report("C5", violations == 0,
            f"{cuts_checked} cuts and {vis_checked} inequalities against all "
            f"feasible points, {violations} violations")


def test_c06_cmis_minimality():
    rng = np.random.default_rng(987)
    checked = 0
    failures = 0
    while checked < 300:
        inst = random_instance(rng, n_trips=int(rng.integers(5, 10)))
        params = ServiceParams.for_instance(
            inst, lb=1, ub=int(rng.integers(1, 4)),
            delta_trip=float(rng.uniform(0.7, 1.0)),
            delta_route=float(rng.uniform(0.5, 1.0)), epsilon=0.3)
        scen = random_scenarios(rng, inst, 2, spread=14)
        sched = random_schedule(rng, inst)
        for s in range(2):
            g = greedy_evaluate(inst, params, sched, scen, s)
            for con in g.violated:
                ctx = build_cmis(inst, params, sched, scen, s, g, con)
                if not is_infeasible_set(inst, params, scen, s, ctx.pairs, con):
                    failures += 1
                elif mis_deletion_filter(inst, params, scen, s, ctx.pairs, con) != ctx.pairs:
                    failures += 1
                checked += 1
    _report("C6", failures == 0, f"{checked} subsequence sets, {failures} failures")


def test_c07_extended_cut_dominance(exhaustive_pool):
    checked = 0
    failures = 0
    for (inst, params, scen, _) in exhaustive_pool[:12]:
        schedules = list(enumerate_schedules(inst))
        for sched in schedules[:120]:
            for s in range(scen.count):
                g = greedy_evaluate(inst, params, sched, scen, s)
                if g.z_star == 0:
                    continue
                for con in g.violated:
                    ctx = build_cmis(inst, params, sched, scen, s, g, con)
                    ext = extend_cmis(inst, params, scen, s, ctx)
                    base_cut = cmis_cut(ctx)
                    ext_cut = cmis_cut(ext)
                    for other in schedules:
                        for z in (0, 1):
                            if base_cut.violated_by(other, z) and \
                                    not ext_cut.violated_by(other, z):
                                failures += 1
                    checked += 1
    _report("C7", failures == 0 and checked >= 50,
            f"{checked} contexts, cut-off containment failures {failures}")


def test_c08_dual_certificates_exact():
    rng = np.random.default_rng(555)
    checked = 0
    failures = []
    while checked < 200:
        inst = random_instance(rng, n_trips=int(rng.integers(5, 10)))
        params = ServiceParams.for_instance(
            inst, lb=1, ub=int(rng.integers(1, 4)),
            delta_trip=float(rng.uniform(0.7, 1.0)),
            delta_route=float(rng.uniform(0.5, 1.0)), epsilon=0.3)
        scen = random_scenarios(rng, inst, 2, spread=14)
        sched = random_schedule(rng, inst)
        for s in range(2):
            g = greedy_evaluate(inst, params, sched, scen, s)
            if TRIP_LEVEL not in g.violated:
                continue
            ctx = build_cmis(inst, params, sched, scen, s, g, TRIP_LEVEL)
            rep = dual_certificate(inst, params, sched, scen, s, ctx)
            if not rep.ok or rep.objective != Fraction(1) or \
                    rep.cut.key() != cmis_cut(ctx).key():
                failures.append(rep.failures)
            checked += 1
    _report("C8", not failures,
            f"{checked} certificates, {len(failures)} failures"
            + (f"; first: {failures[0]}" if failures else ""))


def test_c09_lagrangian_sanity():
    rng = np.random.default_rng(31415)
    # (a) one group reproduces the exact objective
    inst = random_instance(rng, n_trips=7, n_depots=2)
    params = ServiceParams.for_instance(inst, lb=1, ub=2, delta_trip=0.9,
                                        delta_route=0.6, epsilon=0.34)
    scen = random_scenarios(rng, inst, 4, spread=8)
    exact = solve_bnc(inst, params, scen, BnCConfig())
    singles = Schedule(tuple(Bus(1, (i,)) for i in range(1, 8)))
    one = solve_lagrangian(inst, params, scen, BnCConfig(), m_gr=100, det_sched=singles)
    part_a = one.n_groups == 1 and abs(one.objective - exact.objective) < 1e-9

    # (b) two groups on 12-16 trips: cost above the exact optimum, and the
    # incumbent meets the training budget in at least 80% of the seeds
    seeds_ok = 0
    cost_ok = True
    n_seeds = 10
    for seed in range(n_seeds):
        rng_b = np.random.default_rng(5000 + seed)
        I = int(rng_b.integers(12, 17))
        inst_b = random_instance(rng_b, n_trips=I, n_depots=2, n_routes=3)
        params_b = ServiceParams.for_instance(inst_b, lb=1, ub=3, delta_trip=0.8,
                                              delta_route=0.5, epsilon=0.3)
        scen_b = random_scenarios(rng_b, inst_b, 5, spread=8)
        budget = cc_threshold(scen_b.count, params_b.epsilon)
        det = Schedule(tuple(Bus(1, (i,)) for i in range(1, I + 1)))
        heur = solve_lagrangian(inst_b, params_b, scen_b, BnCConfig(),
                                m_gr=(I + 1) // 2, det_sched=det, max_iters=15)
        if heur.violations is not None and heur.violations <= budget:
            seeds_ok += 1
        ex = solve_bnc(inst_b, params_b, scen_b, BnCConfig(), )
        if ex.status == "Optimal" and heur.feasible \
                and heur.objective < ex.objective - 1e-6:
            cost_ok = False
    part_b = seeds_ok >= int(0.8 * n_seeds) and cost_ok

    # (c) bundle dual bound dominates the brute-forced joint optimum
    joint_ok = 0
    joint_total = 0
    for seed in range(6):
        rng_c = np.random.default_rng(700 + seed)
        inst_c = random_instance(rng_c, n_trips=8, n_depots=2)
        params_c = ServiceParams.for_instance(inst_c, lb=1, ub=2, delta_trip=0.8,
                                              delta_route=0.5, epsilon=0.4)
        scen_c = random_scenarios(rng_c, inst_c, 4, spread=8)
        joint = joint_optimum(inst_c, params_c, scen_c, [(1, 2, 3, 4), (5, 6, 7, 8)])
        if joint is None:
            continue
        det = Schedule(tuple(Bus(1, (i,)) for i in range(1, 9)))
        res = solve_lagrangian(inst_c, params_c, scen_c, BnCConfig(), m_gr=4,
                               det_sched=det, max_iters=25)
        joint_total += 1
        if res.dual_bound >= joint - 1e-6:
            joint_ok += 1
    part_c = joint_total >= 3 and joint_ok == joint_total
    _report("C9", part_a and part_b and part_c,
            f"P=1 exact match {part_a}; P=2 {seeds_ok}/{n_seeds} within budget, "
            f"cost dominance {cost_ok}; dual bound over joint {joint_ok}/{joint_total}")


def test_c10_reliability_pattern_at_desk_scale():
    t0 = time.monotonic()
    rows = []
    for seed in range(10):
        inst = generate_instance(GenParams(
            n_trips=20, n_depots=2, trips_per_route=10,
            grid_width=80, grid_height=80, headway_buffer=(2, 10), seed=seed))
        scen = sample_scenarios(inst, 50, seed=seed + 100)
        ev = sample_scenarios(inst, 2000, seed=seed + 90000)
        params = ServiceParams.for_instance(inst, lb=1, ub=5, delta_trip=0.9,
                                            delta_route=0.8, epsilon=0.05)
        mean_s = solve_deterministic(inst, MEAN)
        p75_s = solve_deterministic(inst, percentile(75), scen)
        res = solve_bnc(inst, params, scen, BnCConfig(), initial_schedule=p75_s,
                        time_limit=120)
        rows.append((
            schedule_cost(inst, mean_s), schedule_cost(inst, p75_s), res.objective,
            satisfaction_pct(inst, params, mean_s, ev),
            satisfaction_pct(inst, params, p75_s, ev),
            satisfaction_pct(inst, params, res.schedule, ev)))
    arr = np.array(rows, dtype=float)
    mean_cost, p75_cost, cc_cost = arr[:, 0].mean(), arr[:, 1].mean(), arr[:, 2].mean()
    mean_sat, p75_sat, cc_sat = arr[:, 3].mean(), arr[:, 4].mean(), arr[:, 5].mean()
    dt = time.monotonic() - t0
    ok = (cc_sat >= mean_sat + 5.0) and (cc_cost <= p75_cost + 1e-9) and dt < 1800.0
    _report("C10", ok,
            f"satisfaction mean/cc/p75 = {mean_sat:.1f}/{cc_sat:.1f}/{p75_sat:.1f}%, "
            f"costs {mean_cost:.0f}/{cc_cost:.0f}/{p75_cost:.0f}, {dt:.0f}s")


def test_c11_sampler_moments():
    rng = np.random.default_rng(2024)
    draws = _lognormal_rounded(rng, np.full(100_000, 100.0), 0.2).astype(float)
    mean_err = abs(draws.mean() - 100.0) / 100.0
    cv = draws.std() / draws.mean()
    cv_err = abs(cv - 0.2) / 0.2
    _report("C11", mean_err < 0.01 and cv_err < 0.05,
            f"mean {draws.mean():.2f} (err {mean_err * 100:.2f}%), "
            f"sd/mean {cv:.4f} (err {cv_err * 100:.2f}%)")
