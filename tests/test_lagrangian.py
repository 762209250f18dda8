"""Partitioning, bundle steps, recombination and the decomposition loop."""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import joint_optimum, random_instance, random_scenarios, random_schedule

from ccvsp import baselines, lagrangian, scenarios
from ccvsp.bnc import BnCConfig, MasterModel, solve_bnc
from ccvsp.core import Bus, Schedule, ServiceParams, ValidationError, cc_threshold, schedule_cost
from ccvsp.lagrangian import (
    BundleModel,
    CapacityError,
    combine_and_repair,
    partition_trips,
    penalty_coefficient,
    restrict,
    solve_group,
    solve_lagrangian,
    subgradient,
)
from ccvsp.subproblem import count_violated_scenarios


def _sched(sizes):
    trips = iter(range(1, sum(sizes) + 1))
    return Schedule(tuple(Bus(1, tuple(itertools.islice(trips, n))) for n in sizes))


def _group_master(inst, params, scen, group, cfg):
    sub_inst, sub_scen = restrict(inst, scen, group)
    return MasterModel(sub_inst, params.scaled_to(sub_inst), sub_scen, cfg)


def test_partition_remainder_becomes_last_group():
    part = partition_trips(_sched([4, 4, 4]), m_gr=8)
    assert [sorted(g) for g in part] == [[1, 2, 3, 4, 5, 6, 7, 8], [9, 10, 11, 12]]
    part2 = partition_trips(_sched([4, 4, 3]), m_gr=8)
    assert [sorted(g) for g in part2] == [[1, 2, 3, 4, 5, 6, 7, 8], [9, 10, 11]]


def test_partition_single_group_when_mgr_large():
    part = partition_trips(_sched([3, 3]), m_gr=100)
    assert len(part) == 1
    assert sorted(part[0]) == [1, 2, 3, 4, 5, 6]


def test_partition_one_group_per_bus():
    part = partition_trips(_sched([3, 4, 5]), m_gr=3)
    assert [len(g) for g in part] == [3, 4, 5]


def test_partition_refuses_a_trip_on_two_buses():
    sched = Schedule((Bus(1, (1, 2)), Bus(2, (2, 3))))
    with pytest.raises(ValidationError, match="^groups overlap$"):
        partition_trips(sched, m_gr=1)


def test_subgradient_formula():
    z1 = np.array([1, 0, 0])
    z2 = np.array([1, 1, 0])
    z3 = np.array([1, 1, 0])
    g = subgradient([z1, z2, z3])
    assert list(g) == [0, 2, 0]
    assert penalty_coefficient(1, 3) == -2
    assert penalty_coefficient(2, 3) == 1


def test_bundle_single_cut_closed_form():
    S = 3
    bundle = BundleModel(S)
    g = np.array([2.0, 1.0, 0.5])
    bundle.add_cut(value=10.0, g=g, anchor=np.zeros(S))
    t = 0.25
    mu, theta = bundle.proximal_step(np.zeros(S), t)
    assert np.allclose(mu, t * g, atol=1e-6)
    assert theta == pytest.approx(10.0 + g @ mu, abs=1e-6)


def test_bundle_stationary_when_gradient_zero():
    bundle = BundleModel(2)
    center = np.array([1.0, 2.0])
    bundle.add_cut(value=5.0, g=np.zeros(2), anchor=center)
    mu, theta = bundle.proximal_step(center, 0.5)
    assert np.allclose(mu, center, atol=1e-7)
    assert theta == pytest.approx(5.0)


def _proximal_objective(bundle, center, t, mu):
    G, c = np.stack(bundle.grads), np.array(bundle.consts)
    return float((c + G @ mu).min()) - float(((mu - center) ** 2).sum()) / (2 * t)


def test_bundle_step_exact_when_a_zero_cut_caps_theta_at_the_center():
    """A bundle from a Lagrangian run: the zero-gradient cut holds theta at
    4323, so the proximal point is the center itself."""
    S, e = 20, np.eye(20)
    bundle = BundleModel(S)
    for g in (e[1] - e[7] + e[13] - e[19], e[0] + e[1] - e[7] - e[13], e[4] - e[7],
              e[6] - e[7], np.zeros(S)):
        bundle.add_cut(value=4323.0, g=g, anchor=np.zeros(S))
    center = np.zeros(S)
    center[[0, 1, 4, 13]] = [0.0313581, 0.5313581, 0.0936419, 0.4686419]
    t = 1 / 32
    mu, theta = bundle.proximal_step(center, t)
    assert np.abs(mu - center).max() <= 1e-12
    assert theta == pytest.approx(4323.0, abs=1e-9)
    assert _proximal_objective(bundle, center, t, mu) == pytest.approx(4323.0, abs=1e-9)


def _random_bundle(rng, L, S):
    """Cuts shaped like the loop's: small integer subgradients taken at
    nonnegative anchors, values near one another, one zero-gradient cut and
    one duplicate among them; the center is one of the anchors."""
    P = int(rng.integers(2, 5))
    grads = rng.integers(-(P - 1), 2, size=(L, S)) * (rng.random((L, S)) < 0.3)
    anchors = np.abs(rng.normal(0.0, 2.0, size=(L, S))) * (rng.random((L, S)) < 0.4)
    values = 4000.0 + rng.integers(0, 40, size=L)
    grads[rng.integers(L)] = 0
    dup = rng.integers(L, size=2)
    grads[dup[1]], anchors[dup[1]], values[dup[1]] = grads[dup[0]], anchors[dup[0]], values[dup[0]]
    bundle = BundleModel(S)
    for v, g, a in zip(values, grads, anchors):
        bundle.add_cut(float(v), g.astype(float), a)
    return bundle, anchors[rng.integers(L)]


def _slsqp_proximal_point(bundle, center, t, starts):
    """Best SLSQP optimum of the proximal master over several starts."""
    from scipy.optimize import minimize

    G, c = np.stack(bundle.grads), np.array(bundle.consts)
    L, S = G.shape
    best = -np.inf
    for mu0 in starts:
        res = minimize(
            lambda v: ((v[:S] - center) ** 2).sum() / (2 * t) - v[S],
            np.append(mu0, (c + G @ mu0).min()),
            jac=lambda v: np.append((v[:S] - center) / t, -1.0),
            constraints=[{"type": "ineq", "fun": lambda v: c + G @ v[:S] - v[S],
                          "jac": lambda v: np.hstack([G, -np.ones((L, 1))])}],
            bounds=[(0.0, None)] * S + [(None, None)], method="SLSQP",
            options={"ftol": 1e-15, "maxiter": 1000})
        best = max(best, _proximal_objective(bundle, center, t, np.maximum(res.x[:S], 0.0)))
    return best


@pytest.mark.parametrize("t", [1e-6, 1e-4, 1e-2, 0.25, 0.9])
def test_bundle_step_matches_slsqp_on_random_bundles(t):
    pytest.importorskip("scipy")
    rng = np.random.default_rng(int(1e6 * t))
    for L, S in [(40, 40), (1, 40), (40, 1), (3, 20)] + \
            [tuple(rng.integers(1, 41, size=2)) for _ in range(4)]:
        bundle, center = _random_bundle(rng, int(L), int(S))
        mu, theta = bundle.proximal_step(center, t)
        assert (mu >= 0).all()
        assert theta == pytest.approx(min(c + g @ mu for c, g in zip(bundle.consts, bundle.grads)),
                                      rel=1e-12)
        f = _proximal_objective(bundle, center, t, mu)
        G = np.stack(bundle.grads)
        ref = _slsqp_proximal_point(bundle, center, t, [
            center, np.maximum(0.0, center + t * G[-1]), np.maximum(0.0, center + t * G.mean(0))])
        assert abs(f - ref) <= 1e-9 * (1 + abs(ref)), (L, S)


def test_restrict_keeps_structure():
    rng = np.random.default_rng(3)
    inst = random_instance(rng, n_trips=8, n_routes=3)
    scen = random_scenarios(rng, inst, 2)
    sub_inst, sub_scen = restrict(inst, scen, [2, 5, 7])
    assert sub_inst.n_trips == 3
    orig = sub_inst.meta["orig_ids"]
    assert orig == [2, 5, 7]
    for (i, j) in sub_inst.compat:
        assert (orig[i - 1], orig[j - 1]) in inst.compat
    # scenario slices line up with the original tables
    for l, o in enumerate(orig, start=1):
        assert (sub_scen.dur[:, l - 1] == scen.dur[:, o - 1]).all()


def test_combine_and_repair_reassigns_cheapest():
    rng = np.random.default_rng(5)
    inst = random_instance(rng, n_trips=6, n_depots=2)
    # overload depot 1 deliberately
    buses = [Schedule((Bus(1, (i,)),)) for i in range(1, 7)]
    cap = inst.depot(1).capacity
    if cap >= 6:
        pytest.skip("capacity too large to trigger repair")
    merged = combine_and_repair(buses, inst)
    used = sum(1 for b in merged.buses if b.depot == 1)
    assert used <= cap
    assert sorted(t for b in merged.buses for t in b.trips) == list(range(1, 7))


def _relocate_cheapest_first(buses, inst):
    """Reference repair: while a depot is over capacity, move the bus of an
    overloaded depot whose pull-out plus pull-in cost at a depot with room is
    least, ties to the lower bus index and then the lower depot. Returns the
    buses and the number of moves, and of those chosen among tied moves."""
    buses, moves, tied = list(buses), 0, 0
    depots = range(1, inst.n_depots + 1)
    while True:
        used = {k: sum(b.depot == k for b in buses) for k in depots}
        if all(used[k] <= inst.depot(k).capacity for k in depots):
            return buses, moves, tied
        best, n_best = None, 0
        for idx, b in enumerate(buses):
            if used[b.depot] <= inst.depot(b.depot).capacity:
                continue
            for k in depots:
                if used[k] >= inst.depot(k).capacity:
                    continue
                cost = int(inst.out_cost[k - 1, b.trips[0] - 1]) + int(inst.in_cost[b.trips[-1] - 1, k - 1])
                if best is None or cost < best[0]:
                    best, n_best = (cost, idx, k), 1
                elif cost == best[0]:
                    n_best += 1
        _, idx, k = best
        buses[idx] = Bus(k, buses[idx].trips)
        moves, tied = moves + 1, tied + (n_best > 1)


def test_combine_and_repair_relocates_cheapest_bus_first():
    """Three depots, several overloaded buses and pull-out and pull-in costs
    of 0 or 1, so equal-cost moves compete at almost every step."""
    from ccvsp.core import Depot, Instance

    tied_steps = 0
    for seed in range(8):
        rng = np.random.default_rng(400 + seed)
        base = random_instance(rng, n_trips=9, n_depots=3, n_routes=3)
        caps = [int(c) for c in rng.permutation([1, 3, 5])]
        inst = Instance(base.trips, [Depot(k, (0, 0), c) for k, c in enumerate(caps, start=1)],
                        base.dh_time, base.out_time, base.in_time, base.cost,
                        rng.integers(0, 2, size=(3, 9)), rng.integers(0, 2, size=(9, 3)),
                        base.compat)
        chains = [b.trips for b in random_schedule(rng, inst, allow_capacity_violation=True).buses]
        # most buses start at the smallest depot
        small = caps.index(1) + 1
        buses = [Bus(small if rng.random() < 0.7 else int(rng.integers(1, 4)), c) for c in chains]
        groups = [Schedule(tuple(buses[:len(buses) // 2])), Schedule(tuple(buses[len(buses) // 2:]))]
        want, moves, tied = _relocate_cheapest_first(buses, inst)
        assert moves >= 2, seed
        assert combine_and_repair(groups, inst) == Schedule(tuple(want)), seed
        tied_steps += tied
    assert tied_steps >= 10


def test_combine_capacity_exhausted_raises():
    from ccvsp.core import Depot, Instance

    rng = np.random.default_rng(6)
    base = random_instance(rng, n_trips=4, n_depots=1)
    tight = Instance(base.trips, [Depot(1, (0, 0), 2)],
                     base.dh_time, base.out_time, base.in_time,
                     base.cost, base.out_cost, base.in_cost, base.compat)
    buses = [Schedule((Bus(1, (i,)),)) for i in range(1, 5)]
    with pytest.raises(CapacityError):
        combine_and_repair(buses, tight)


def test_single_group_reproduces_exact():
    rng = np.random.default_rng(8)
    inst = random_instance(rng, n_trips=6)
    params = ServiceParams.for_instance(inst, lb=1, ub=2, delta_trip=0.9,
                                        delta_route=0.6, epsilon=0.34)
    scen = random_scenarios(rng, inst, 4, spread=8)
    cfg = BnCConfig()
    exact = solve_bnc(inst, params, scen, cfg)
    det = Schedule(tuple(Bus(1, (i,)) for i in range(1, 7)))
    heur = solve_lagrangian(inst, params, scen, cfg, m_gr=100, det_sched=det)
    assert heur.n_groups == 1
    assert heur.objective == pytest.approx(exact.objective)
    # nothing is dualized, so the first group value is certified at once
    assert heur.status == "Converged"
    assert heur.dual_bound == heur.primal_bound


def test_group_solve_zero_penalty_matches_plain():
    rng = np.random.default_rng(12)
    inst = random_instance(rng, n_trips=6)
    params = ServiceParams.for_instance(inst, lb=1, ub=2, delta_trip=0.8,
                                        delta_route=0.5, epsilon=0.34)
    scen = random_scenarios(rng, inst, 3, spread=6)
    sub_inst, sub_scen = restrict(inst, scen, [1, 2, 3])
    cfg = BnCConfig()
    mu = np.zeros(3)
    master = MasterModel(sub_inst, params.scaled_to(sub_inst), sub_scen, cfg)
    sched, z, val, opt = solve_group(master, mu, p=2, n_groups=2)
    plain = solve_bnc(sub_inst, params.scaled_to(sub_inst), sub_scen, cfg)
    assert opt
    assert val == pytest.approx(plain.objective)


def test_group_value_carries_the_indicator_charges():
    rng = np.random.default_rng(12)
    inst = random_instance(rng, n_trips=6)
    params = ServiceParams.for_instance(inst, lb=1, ub=2, delta_trip=0.8,
                                        delta_route=0.5, epsilon=0.34)
    scen = random_scenarios(rng, inst, 3, spread=6)
    sub_inst, sub_scen = restrict(inst, scen, [1, 2, 3])
    mu = np.full(3, 7.0)
    # group 1 is charged -(P-1) mu per indicator, so the budget's worth turn on
    master = MasterModel(sub_inst, params.scaled_to(sub_inst), sub_scen, BnCConfig())
    sched, z, val, opt = solve_group(master, mu, p=1, n_groups=2)
    assert opt and z.sum() == cc_threshold(scen.count, params.epsilon) > 0
    assert val == pytest.approx(schedule_cost(inst, sched) - mu @ z)


def test_weak_duality_against_joint_model():
    rng = np.random.default_rng(14)
    inst = random_instance(rng, n_trips=6, n_depots=2)
    params = ServiceParams.for_instance(inst, lb=1, ub=2, delta_trip=0.9,
                                        delta_route=0.6, epsilon=0.4)
    scen = random_scenarios(rng, inst, 3, spread=8)
    groups = [(1, 2, 3), (4, 5, 6)]
    joint = joint_optimum(inst, params, scen, groups)
    if joint is None:
        pytest.skip("joint model infeasible for this draw")
    masters = [_group_master(inst, params, scen, g, BnCConfig()) for g in groups]
    for trial in range(6):
        mu = np.abs(np.random.default_rng(trial).normal(0, 5, size=3))
        total = 0.0
        for p, master in enumerate(masters, start=1):
            _, _, val, _ = solve_group(master, mu, p, 2)
            total += val
        assert total <= joint + 1e-6


def test_two_group_run_bounds_and_feasibility():
    rng = np.random.default_rng(15)
    inst = random_instance(rng, n_trips=8, n_depots=2)
    params = ServiceParams.for_instance(inst, lb=1, ub=2, delta_trip=0.8,
                                        delta_route=0.5, epsilon=0.4)
    scen = random_scenarios(rng, inst, 4, spread=7)
    cfg = BnCConfig()
    det = solve_bnc(inst, params, scen, cfg)  # exact optimum for reference
    heur = solve_lagrangian(inst, params, scen, cfg, m_gr=4, max_iters=12)
    assert heur.schedule is not None
    assert sorted(t for b in heur.schedule.buses for t in b.trips) == \
        list(range(1, 9))
    if det.status == "Optimal" and heur.feasible:
        assert heur.objective >= det.objective - 1e-6
    counts = [e.incumbent_violations for e in heur.log if e.incumbent_violations is not None]
    assert counts == sorted(counts, reverse=True)  # nonincreasing violations


def _demo04(seed):
    """The tight 24-trip instance of demo 04 and its deterministic start."""
    inst = scenarios.generate_instance(scenarios.GenParams(
        n_trips=24, n_depots=2, trips_per_route=12, grid_width=80, grid_height=80,
        headway_buffer=(0, 4), seed=seed))
    scen = scenarios.sample_scenarios(inst, 20, seed=303)
    params = ServiceParams.for_instance(inst, lb=1, ub=4, delta_trip=1.0,
                                        delta_route=1.0, epsilon=0.1)
    return inst, params, scen, baselines.solve_deterministic(inst, baselines.percentile(75), scen)


def _group_solves(inst, params, scen, groups, mus, reuse):
    cfg = BnCConfig()
    masters = [_group_master(inst, params, scen, g, cfg) for g in groups]
    return [solve_group(master if reuse else _group_master(inst, params, scen, g, cfg),
                        mu, p, len(groups))
            for mu in mus for p, (g, master) in enumerate(zip(groups, masters), start=1)]


def _mu_sequence(S, scale, seed):
    rng = np.random.default_rng(seed)
    return [np.zeros(S)] + [np.abs(rng.normal(0, scale, size=S)) for _ in range(3)]


def test_reused_group_master_matches_fresh_master():
    inst, params, scen, det = _demo04(22)
    groups = partition_trips(det, 12)
    assert len(groups) == 2
    mus = _mu_sequence(scen.count, 30.0, 200)
    reused = _group_solves(inst, params, scen, groups, mus, reuse=True)
    fresh = _group_solves(inst, params, scen, groups, mus, reuse=False)
    for (sched_r, z_r, val_r, opt_r), (sched_f, z_f, val_f, opt_f) in zip(reused, fresh):
        assert opt_r and opt_f
        assert val_r == pytest.approx(val_f, rel=1e-9)
        assert list(z_r) == list(z_f)
        assert sched_r == sched_f


def test_reused_group_master_matches_fresh_master_on_random_instances():
    """Ties between optimal schedules may break differently from another root
    basis, so only the values, indicators and schedule costs must agree."""
    for seed in range(10, 16):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, n_trips=8, n_depots=2)
        params = ServiceParams.for_instance(inst, lb=1, ub=2, delta_trip=0.8,
                                            delta_route=0.5, epsilon=0.4)
        scen = random_scenarios(rng, inst, 4, spread=7)
        mus = _mu_sequence(scen.count, 5.0, 100 + seed)
        groups = [(1, 2, 3, 4), (5, 6, 7, 8)]
        reused = _group_solves(inst, params, scen, groups, mus, reuse=True)
        fresh = _group_solves(inst, params, scen, groups, mus, reuse=False)
        for (sched_r, z_r, val_r, _), (sched_f, z_f, val_f, _) in zip(reused, fresh):
            assert val_r == pytest.approx(val_f, rel=1e-9), seed
            assert list(z_r) == list(z_f), seed
            assert schedule_cost(inst, sched_r) == schedule_cost(inst, sched_f), seed


@pytest.mark.parametrize("seed", [22, 24])
def test_dual_bound_not_below_primal_bound(seed):
    inst, params, scen, det = _demo04(seed)
    res = solve_lagrangian(inst, params, scen, BnCConfig(), m_gr=12, det_sched=det,
                           max_iters=30, rel_tol=1e-6)
    assert res.n_groups == 2
    assert res.status == "Converged" and math.isfinite(res.dual_bound)
    assert res.primal_bound <= res.dual_bound + 1e-9 * max(1.0, abs(res.dual_bound))
    assert max(e.primal for e in res.log) == res.primal_bound


def test_a_step_is_serious_exactly_when_it_moves_the_center(monkeypatch):
    """``step`` reads serious when the value beats every earlier one, which
    moves the stability center to its multipliers, and null otherwise; ``t``
    follows its own test. On demo 04's g25 instance the value at iteration 4
    passes t's test (t doubles) but stays below the best: a null step."""
    centers = []
    proximal_step = BundleModel.proximal_step

    def recorded(self, center, t):
        centers.append(center.copy())
        return proximal_step(self, center, t)

    monkeypatch.setattr(BundleModel, "proximal_step", recorded)
    inst, params, scen, det = _demo04(25)
    res = solve_lagrangian(inst, params, scen, BnCConfig(), m_gr=12, det_sched=det,
                           max_iters=30, rel_tol=1e-6)
    assert res.status == "Converged"
    values = [e.primal for e in res.log]
    assert [e.step for e in res.log] == [
        "serious" if v > max(values[:i], default=-math.inf) else "null"
        for i, v in enumerate(values)]
    assert [e.step for e in res.log] == ["serious"] + ["null"] * 5
    assert [e.t for e in res.log] == [0.5, 0.25, 0.125, 0.0625, 0.125, 0.0625]
    for e, before, center in zip(res.log[1:], centers, centers[1:]):
        assert (e.step == "null") == np.array_equal(center, before), e.iteration


def _cli_repro():
    """The instance, scenarios and service levels of ``ccvsp generate --trips 24
    --depots 2 --seed 1``, ``sample --scenarios 20 --seed 2`` and the solve
    defaults."""
    inst = scenarios.generate_instance(scenarios.GenParams(n_trips=24, n_depots=2, seed=1))
    scen = scenarios.sample_scenarios(inst, 20, seed=2)
    params = ServiceParams.for_instance(inst, lb=1, ub=5, delta_trip=0.9,
                                        delta_route=0.8, epsilon=0.05)
    return inst, params, scen


@pytest.mark.parametrize("case", ["g22", "g24", "g25", "cli"])
def test_lagrangian_values_and_bounds_are_exact(case, monkeypatch):
    """Each group value is the integer schedule cost plus the multiplier term
    on the rounded indicators, so the best value lies at or below the dual
    bound with no slack."""
    calls = []

    def recorded(master, mu, p, n_groups, deadline=None):
        out = solve_group(master, mu, p, n_groups, deadline)
        calls.append((mu.copy(), p, n_groups, out))
        return out

    monkeypatch.setattr(lagrangian, "solve_group", recorded)
    if case == "cli":
        inst, params, scen = _cli_repro()
        res = solve_lagrangian(inst, params, scen, BnCConfig(), m_gr=12)
    else:
        inst, params, scen, det = _demo04(int(case[1:]))
        res = solve_lagrangian(inst, params, scen, BnCConfig(), m_gr=12, det_sched=det,
                               max_iters=30, rel_tol=1e-6)
    assert res.status == "Converged" and res.n_groups == 2
    assert len(calls) == res.iterations * res.n_groups
    for mu, p, n_groups, (sched, z, val, opt) in calls:
        assert opt
        assert val == schedule_cost(inst, sched) + penalty_coefficient(p, n_groups) * float(mu @ z)
    values = [out[2] for *_, out in calls]
    assert [e.primal for e in res.log] == [float(sum(values[i:i + 2]))
                                           for i in range(0, len(values), 2)]
    assert res.primal_bound <= res.dual_bound


def test_group_value_cut_short_ends_the_run_without_a_cut(monkeypatch):
    """A group solve that is not proven optimal still yields a schedule for the
    incumbent, but its value is no dual value: no cut, status IterLimit."""
    inst, params, scen, det = _demo04(22)
    solve, add_cut = MasterModel.solve, BundleModel.add_cut
    solves, cuts = [], []

    def second_group_of_second_iteration_cut_short(master, *args, **kwargs):
        res = solve(master, *args, **kwargs)
        solves.append(res)
        return replace(res, status="IterLimit") if len(solves) == 4 else res

    def counted_add_cut(bundle, *args):
        cuts.append(args)
        add_cut(bundle, *args)

    monkeypatch.setattr(MasterModel, "solve", second_group_of_second_iteration_cut_short)
    monkeypatch.setattr(BundleModel, "add_cut", counted_add_cut)
    res = solve_lagrangian(inst, params, scen, BnCConfig(), m_gr=12, det_sched=det,
                           max_iters=30, rel_tol=1e-6)
    assert solves[3].schedule is not None
    assert (res.status, res.iterations, len(cuts)) == ("IterLimit", 1, 1)
    assert res.schedule is not None
    assert res.violations == count_violated_scenarios(inst, params, res.schedule, scen)
    assert (res.violations, res.objective) <= (res.log[0].incumbent_violations,
                                               res.log[0].incumbent_cost)


def test_time_limit_bounds_the_whole_run():
    inst, params, scen, det = _demo04(22)
    full = solve_lagrangian(inst, params, scen, BnCConfig(), m_gr=12, det_sched=det,
                            max_iters=30, rel_tol=1e-6)
    assert full.status == "Converged"
    limit = full.time_s / 3
    res = solve_lagrangian(inst, params, scen, BnCConfig(), m_gr=12, det_sched=det,
                           max_iters=30, rel_tol=1e-6, time_limit=limit)
    assert res.status == "IterLimit"
    assert res.time_s < limit + 0.5
    assert res.iterations < full.iterations
    if res.schedule is not None:
        assert res.violations == count_violated_scenarios(inst, params, res.schedule, scen)
    # so short that the first group stops without a schedule
    res = solve_lagrangian(inst, params, scen, BnCConfig(), m_gr=12, det_sched=det,
                           time_limit=1e-6)
    assert (res.status, res.schedule, res.iterations) == ("IterLimit", None, 0)
    # the deterministic start is bounded by the same limit
    res = solve_lagrangian(inst, params, scen, BnCConfig(), m_gr=12, time_limit=1e-6)
    assert (res.status, res.schedule) == ("IterLimit", None)


@pytest.mark.parametrize("status", ["Infeasible", "IterLimit"])
def test_deterministic_start_stops_only_on_its_time_limit(monkeypatch, status):
    """A deterministic start cut short by the time limit ends the run as
    IterLimit; one proven infeasible raises, even once the time is up."""
    inst, params, scen = _cli_repro()

    def no_schedule(*args, **kwargs):
        raise baselines.NoSchedule(status, f"deterministic model is {status}")

    monkeypatch.setattr(lagrangian, "solve_deterministic", no_schedule)

    def run():
        return solve_lagrangian(inst, params, scen, BnCConfig(), m_gr=12, time_limit=1e-9)

    if status == "Infeasible":
        with pytest.raises(baselines.NoSchedule, match="Infeasible"):
            run()
    else:
        res = run()
        assert (res.status, res.schedule, res.iterations, res.n_groups) == ("IterLimit", None, 0, 0)


def test_deterministic_start_build_counts_against_the_run(monkeypatch):
    """The deterministic start's model build spends the run's own time: a
    build longer than the whole limit leaves the start no time to search."""
    from ccvsp import gallery

    flow_model = baselines.FlowModel

    def slow(*args):
        time.sleep(0.3)
        return flow_model(*args)

    monkeypatch.setattr(baselines, "FlowModel", slow)
    inst, scen = gallery.two_depot_grid(), gallery.grid_scenarios()
    res = solve_lagrangian(inst, gallery.grid_service_params(inst), scen, BnCConfig(),
                           m_gr=4, time_limit=0.2)
    assert (res.status, res.schedule, res.n_groups) == ("IterLimit", None, 0)
