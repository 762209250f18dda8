"""Exact branch-and-cut against exhaustive enumeration."""

import dataclasses
import hashlib
import json
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    PROPERTY,
    brute_force_cc_optimum,
    enumerate_schedules,
    random_cases,
    random_instance,
    random_scenarios,
    unsolved_copy,
)

from ccvsp import baselines, bnc, gallery, milp
from ccvsp.bnc import VARIANTS, BnCConfig, MasterModel, cut_generation_routine, solve_bnc
from ccvsp.core import (
    Bus,
    Schedule,
    ServiceParams,
    ValidationError,
    cc_threshold,
    schedule_cost,
    schedule_from_arcs,
    schedule_from_json,
    schedule_to_arcs,
)
from ccvsp.cuts import CUT_KINDS
from ccvsp.scenarios import GenParams, generate_instance, sample_scenarios
from ccvsp.subproblem import count_violated_scenarios, greedy_evaluate


def test_master_arc_count_matches_network():
    inst = gallery.two_depot_grid()
    params = gallery.grid_service_params(inst)
    scen = gallery.grid_scenarios()
    cfg = BnCConfig(use_vi=False, relax_z=False)
    master = MasterModel(inst, params, scen, cfg)
    A = inst.arc_count()
    assert A == len(inst.compat) + 2 * 2 * 8
    # cross-depot pull arcs are structurally zero and never become variables
    K, I = inst.n_depots, inst.n_trips
    assert len(master.x) == K * (len(inst.compat) + 2 * I)
    assert master.model.n_vars == len(master.x) + scen.count


def test_budget_row_values():
    inst = gallery.two_depot_grid()
    scen = gallery.grid_scenarios()
    params = ServiceParams.for_instance(inst, 0, 0, 0.875, 0.5, epsilon=0.05)
    assert cc_threshold(scen.count, params.epsilon) == 0  # eps -> tiny budget
    assert cc_threshold(40, 0.05) == 2


def test_grid_bnc_picks_right_schedule():
    inst = gallery.two_depot_grid()
    params = gallery.grid_service_params(inst)
    scen = gallery.grid_scenarios()
    res = solve_bnc(inst, params, scen, BnCConfig())
    assert res.status == "Optimal"
    assert res.objective == pytest.approx(20.0)
    assert res.train_violations <= cc_threshold(scen.count, params.epsilon)
    # the left reference schedule costs the same but breaks both scenarios
    assert count_violated_scenarios(inst, params, gallery.grid_schedule_left(), scen) == 2


def test_objective_is_the_integer_schedule_cost():
    inst = generate_instance(GenParams(n_trips=20, n_depots=2, seed=1))
    scen = sample_scenarios(inst, 50, seed=2)
    params = ServiceParams.for_instance(inst, lb=1, ub=5, delta_trip=0.9,
                                        delta_route=0.8, epsilon=0.05)
    res = solve_bnc(inst, params, scen, BnCConfig())
    assert type(res.objective) is int
    assert res.objective == schedule_cost(inst, res.schedule)
    assert dataclasses.asdict(res)["objective"] == res.objective


@pytest.mark.parametrize("case", ["grid", "I20-S50"])
def test_iterations_are_the_sum_over_every_lp(monkeypatch, case):
    """``iterations`` counts the simplex iterations of every LP the search
    solves, root, nodes and re-solves after cuts: the sum over what
    ``lp_solve`` returns, on the grid and on the exact ladder's first rung."""
    if case == "grid":
        inst = gallery.two_depot_grid()
        params = gallery.grid_service_params(inst)
        scen = gallery.grid_scenarios()
    else:
        inst = generate_instance(GenParams(n_trips=20, n_depots=2, seed=1))
        scen = sample_scenarios(inst, 50, seed=2)
        params = ServiceParams.for_instance(inst, lb=1, ub=5, delta_trip=0.9,
                                            delta_route=0.8, epsilon=0.05)
    counted = []
    real = milp.lp_solve

    def lp_solve(*args, **kwargs):
        sol = real(*args, **kwargs)
        counted.append(sol.iterations)
        return sol

    monkeypatch.setattr(milp, "lp_solve", lp_solve)
    res = solve_bnc(inst, params, scen, BnCConfig())
    assert res.status == "Optimal"
    assert len(counted) > 1
    assert res.iterations == sum(counted)


def test_cuts_never_fire_when_mean_solution_reliable():
    rng = np.random.default_rng(4)
    inst = random_instance(rng, n_trips=5)
    params = ServiceParams.for_instance(inst, lb=2, ub=30, delta_trip=0.6,
                                        delta_route=0.5, epsilon=0.4)
    scen = random_scenarios(rng, inst, 3, spread=2)  # wide windows: nothing is late
    res = solve_bnc(inst, params, scen, BnCConfig())
    assert res.status == "Optimal"
    assert not res.cuts_added
    # objective equals the unconstrained flow optimum: compare to enumeration
    best = min(schedule_cost(inst, s) for s in enumerate_schedules(inst))
    assert res.objective == pytest.approx(best)


@pytest.mark.parametrize("family", CUT_KINDS)
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_exact_on_small_instance_all_configs(family, variant):
    rng = np.random.default_rng(77)
    inst = random_instance(rng, n_trips=6, n_depots=2)
    params = ServiceParams.for_instance(inst, lb=1, ub=2, delta_trip=0.9,
                                        delta_route=0.6, epsilon=0.34)
    scen = random_scenarios(rng, inst, 6, spread=10)
    expected = brute_force_cc_optimum(inst, params, scen)
    cfg = BnCConfig.for_variant(variant, cut_family=family)
    res = solve_bnc(inst, params, scen, cfg)
    if expected is None:
        assert res.status == "Infeasible" or res.schedule is None
    else:
        assert res.status == "Optimal"
        assert res.objective == pytest.approx(expected)


def test_cut_validity_no_feasible_point_removed():
    rng = np.random.default_rng(9)
    total = 0
    rounds = 0
    while total < 30 and rounds < 20:
        rounds += 1
        inst = random_instance(rng, n_trips=5, n_depots=2)
        params = ServiceParams.for_instance(inst, lb=1, ub=1, delta_trip=0.9,
                                            delta_route=0.6, epsilon=0.34)
        scen = random_scenarios(rng, inst, 4, spread=14)
        cfg = BnCConfig(cut_family="ecmis", use_vi=True, relax_z=True)
        collected = []
        for sched in enumerate_schedules(inst):
            zvec = np.zeros(scen.count)
            collected.extend(cut_generation_routine(inst, params, scen, cfg, sched, zvec, set()))
        if not collected:
            continue
        total += len(collected)
        budget = cc_threshold(scen.count, params.epsilon)
        for sched in enumerate_schedules(inst):
            verdicts = [greedy_evaluate(inst, params, sched, scen, s).z_star
                        for s in range(scen.count)]
            if sum(verdicts) > budget:
                continue
            for cut in collected:
                # z = verdict per scenario is feasible; the cut must hold there
                assert not cut.violated_by(sched, verdicts[cut.s]), (
                    f"cut {cut} removes a feasible schedule")
    assert total >= 30


def test_warm_start_same_objective():
    inst = gallery.two_depot_grid()
    params = gallery.grid_service_params(inst)
    scen = gallery.grid_scenarios()
    cold = solve_bnc(inst, params, scen, BnCConfig())
    warm = solve_bnc(inst, params, scen, BnCConfig(),
                     initial_schedule=gallery.grid_schedule_right())
    assert warm.objective == pytest.approx(cold.objective)


def test_initial_schedule_outside_planning_set_is_rejected():
    inst = gallery.two_depot_grid()
    params = gallery.grid_service_params(inst)
    scen = gallery.grid_scenarios()
    assert (1, 8) not in inst.compat
    sched = Schedule((Bus(1, (1, 8)),) + tuple(Bus(1, (i,)) for i in range(2, 8)))
    with pytest.raises(ValidationError, match=r"\(1,8\) is not planning compatible"):
        solve_bnc(inst, params, scen, BnCConfig(), initial_schedule=sched)
    with pytest.raises(ValidationError, match=r"\(1,8\) is not planning compatible"):
        MasterModel(inst, params, scen, BnCConfig()).solve(initial_schedule=sched)


def test_relaxed_z_integral_at_optimum():
    rng = np.random.default_rng(21)
    inst = random_instance(rng, n_trips=6)
    params = ServiceParams.for_instance(inst, lb=1, ub=3, delta_trip=0.9,
                                        delta_route=0.6, epsilon=0.4)
    scen = random_scenarios(rng, inst, 5, spread=8)
    res = solve_bnc(inst, params, scen, BnCConfig(relax_z=True, use_vi=False))
    if res.status == "Optimal":
        for v in res.z:
            assert min(abs(v), abs(1 - v)) < 1e-6


def test_result_json_round_trip(tmp_path):
    inst = gallery.two_depot_grid()
    params = gallery.grid_service_params(inst)
    scen = gallery.grid_scenarios()
    res = solve_bnc(inst, params, scen, BnCConfig())
    doc = json.loads(json.dumps(dataclasses.asdict(res)))
    assert set(doc) >= {"objective", "bound", "gap", "nodes", "iterations", "cuts_added",
                        "time_s", "schedule", "z"}
    assert schedule_from_json(doc["schedule"]) == res.schedule


def test_infeasible_when_capacity_too_small():
    from ccvsp.core import Depot, Instance

    rng = np.random.default_rng(55)
    base = random_instance(rng, n_trips=4, n_depots=1)
    # one bus total but the trips cannot all chain onto one bus
    tight = Instance(base.trips, [Depot(1, (0, 0), 1)],
                     base.dh_time, base.out_time, base.in_time,
                     base.cost, base.out_cost, base.in_cost, compat=[])
    params = ServiceParams.for_instance(tight, lb=1, ub=2, delta_trip=0.9,
                                        delta_route=0.6, epsilon=0.3)
    scen = random_scenarios(rng, tight, 2)
    res = solve_bnc(tight, params, scen, BnCConfig())
    assert res.status == "Infeasible"
    assert res.schedule is None


def test_gap_stop_bound_never_exceeds_objective():
    # the gap test can stop with unpruned open nodes above the incumbent
    inst = generate_instance(GenParams(n_trips=24, n_depots=2, seed=2))
    scen = sample_scenarios(inst, 50, seed=3)
    params = ServiceParams.for_instance(inst, lb=1, ub=5, delta_trip=0.9,
                                        delta_route=0.8, epsilon=0.05)
    res = solve_bnc(inst, params, scen, BnCConfig())
    assert res.status == "Optimal"
    assert res.bound <= res.objective + 1e-6 * abs(res.objective)
    assert res.gap >= 0.0


def test_node_lps_reported_infeasible_are_infeasible(monkeypatch):
    # the first rung has node LPs whose bound-flipping reach matches a row's
    # infeasibility only up to rounding; they are feasible, not prunable. The
    # second, with every trip required on time, has node LPs that are
    # infeasible, and each must stay so when solved cold.
    infeasible = []
    lp_solve = milp.lp_solve

    def recording(model, **kw):
        sol = lp_solve(model, **kw)
        if sol.status == "Infeasible":
            infeasible.append((unsolved_copy(model), kw["var_lb"], kw["var_ub"]))
        return sol

    monkeypatch.setattr(milp, "lp_solve", recording)
    for n_scen, rates, epsilon, cost in ((300, (0.9, 0.8), 0.05, 3291),
                                         (50, (1.0, 1.0), 0.1, 3359)):
        inst = generate_instance(GenParams(n_trips=20, n_depots=2, seed=1))
        scen = sample_scenarios(inst, n_scen, seed=2)
        params = ServiceParams.for_instance(inst, 1, 5, *rates, epsilon)
        res = solve_bnc(inst, params, scen, BnCConfig())
        assert res.status == "Optimal"
        assert res.objective == pytest.approx(cost)
    assert infeasible
    for model, lb, ub in infeasible:
        cold = milp._Simplex(model, var_lb=lb, var_ub=ub).solve(10**6)
        assert cold.status == "Infeasible", (model.n_rows, cold.status, cold.obj)


def test_reprice_restores_base_rows_and_empties_pool():
    inst = gallery.two_depot_grid()
    params = gallery.grid_service_params(inst)
    scen = gallery.grid_scenarios()
    master = MasterModel(inst, params, scen, BnCConfig())
    base_rows = master.model.n_rows
    assert master.solve().status == "Optimal"
    assert master.model.n_rows > base_rows and master.pool
    z_obj = np.array([0.0, 3.0])
    master.reprice(z_obj)
    assert master.model.n_rows == master.n_base_rows == base_rows
    assert not master.pool
    assert [master.model.obj[j] for j in master.z] == [0.0, 3.0]
    assert all(master.model.is_int[j] for j in master.z)
    warm = master.solve()
    fresh = MasterModel(inst, params, scen, BnCConfig())
    fresh.reprice(z_obj)
    cold = fresh.solve()
    assert warm.status == cold.status == "Optimal"
    assert warm.objective == pytest.approx(cold.objective)


def test_repriced_master_reuses_its_phase1_bit_for_bit(monkeypatch):
    """A re-priced master whose warm root basis the new objective makes dual
    infeasible solves its root cold from the phase 1 it already ran, and its
    LPs equal a freshly built master's bit for bit, iterations included."""
    inst = generate_instance(GenParams(n_trips=10, n_depots=2, seed=1))
    scen = sample_scenarios(inst, 6, seed=1)
    params = ServiceParams.for_instance(inst, lb=1, ub=3, delta_trip=0.9,
                                        delta_route=0.8, epsilon=0.34)
    z_obj = np.random.default_rng(1).uniform(0, 200, scen.count)
    master = MasterModel(inst, params, scen, BnCConfig())
    master.solve()
    master.reprice(z_obj)
    fresh = MasterModel(inst, params, scen, BnCConfig())
    fresh.reprice(z_obj)
    fresh.root_basis = list(master.root_basis)

    lps, iterates, colds = [], [], []
    lp_solve = milp.lp_solve
    iterate, cold_solve = milp._Simplex._iterate, milp._Simplex.solve

    def recording(model, **kw):
        sol = lp_solve(model, **kw)
        lps.append((sol.status, sol.iterations, sol.obj, sol.basis,
                    None if sol.x is None else sol.x.tobytes()))
        return sol

    monkeypatch.setattr(milp, "lp_solve", recording)
    monkeypatch.setattr(milp._Simplex, "_iterate",
                        lambda self, *a: iterates.append(1) or iterate(self, *a))
    monkeypatch.setattr(milp._Simplex, "solve",
                        lambda self, *a: colds.append(1) or cold_solve(self, *a))
    runs = []
    for m in (master, fresh):
        for seen in (lps, iterates, colds):
            seen.clear()
        res = m.solve()
        runs.append((res, list(lps), len(iterates), len(colds)))
    (got, got_lps, got_iterates, got_colds), (want, want_lps, want_iterates, want_colds) = runs
    assert got_colds == want_colds >= 1          # the warm root was refused
    assert got_lps == want_lps
    assert got_iterates == want_iterates - 1      # phase 1 ran once less
    assert got.status == want.status == "Optimal"
    assert (got.schedule, got.objective, got.bound, got.nodes, got.z) \
        == (want.schedule, want.objective, want.bound, want.nodes, want.z)


def test_matrix_byte_cap_counts_the_bytes_exactly(monkeypatch):
    """The dense arrays of the grid master's root LP take exactly the
    estimate: a cap of that many bytes solves it, one byte less refuses it
    before the matrix is built."""
    inst = gallery.two_depot_grid()
    params = gallery.grid_service_params(inst)
    scen = gallery.grid_scenarios()
    model = MasterModel(inst, params, scen, BnCConfig()).model
    n, m = model.n_vars, model.n_rows
    assert (n, m) == (78, 29)
    need = 8 * m * (n + 2 * m) + 3 * 8 * m * m
    assert need == 51_736
    monkeypatch.setattr(milp, "_BYTES_CAP", need)
    sim = milp._Simplex(model)
    assert sim.A.nbytes + 3 * sim.binv.nbytes == need
    assert milp.lp_solve(model).status == "Optimal"
    monkeypatch.setattr(milp, "_BYTES_CAP", need - 1)
    fresh = unsolved_copy(model)
    with pytest.raises(ValidationError, match=f"^the LP of 78 columns and 29 rows needs {need} "
                       f"bytes of dense arrays, over the cap of {need - 1} bytes$"):
        milp.lp_solve(fresh)
    assert fresh._matrix is None
    assert milp.lp_solve(model).status == "Optimal"     # its matrix is built already


def test_cut_rows_past_the_byte_cap_stop_the_search(monkeypatch):
    """The grid master's root LP fits a cap of exactly its estimate; the cut
    rows the search adds then pass it, which stops the search as IterLimit
    rather than raising."""
    inst = gallery.two_depot_grid()
    master = MasterModel(inst, gallery.grid_service_params(inst), gallery.grid_scenarios(),
                         BnCConfig())
    monkeypatch.setattr(milp, "_BYTES_CAP", 51_736)
    res = master.solve()
    assert isinstance(res, bnc.BnCResult)
    assert res.status == "IterLimit"
    assert master.model.n_rows > 29 and sum(res.cuts_added.values()) > 0


def test_time_limit_counts_the_master_build(monkeypatch):
    """A build that takes longer than the whole limit leaves no time to search."""
    valid_inequalities = bnc.valid_inequalities

    def slow(*args):
        time.sleep(0.3)
        return valid_inequalities(*args)

    monkeypatch.setattr(bnc, "valid_inequalities", slow)
    inst = gallery.two_depot_grid()
    res = solve_bnc(inst, gallery.grid_service_params(inst), gallery.grid_scenarios(),
                    BnCConfig(), time_limit=0.2)
    assert (res.status, res.nodes) == ("IterLimit", 0)
    assert res.time_s >= 0.3


def _model_digest(model: milp.MilpModel) -> str:
    """SHA-256 of the columns (obj, lb, ub, is_int) and the rows in order, each
    row as (sorted coefficient items, sense, rhs): what fixes every pivot."""
    h = hashlib.sha256(repr([model.obj, model.lb, model.ub, model.is_int]).encode())
    for coeffs, sense, rhs in model.rows:
        h.update(repr((sorted(coeffs.items()), sense, rhs)).encode())
    return h.hexdigest()


def _oos_instance():
    inst = generate_instance(GenParams(n_trips=50, n_depots=2, seed=7))
    return inst, sample_scenarios(inst, 200, seed=8)


def _lagr_instance(gen_seed):
    inst = generate_instance(GenParams(n_trips=24, n_depots=2, trips_per_route=12,
                                       grid_width=80, grid_height=80,
                                       headway_buffer=(0, 4), seed=gen_seed))
    return inst, sample_scenarios(inst, 20, seed=303)


# the flow models the benchmark's workloads solve: their row order steers the
# simplex's pivots, so a digest that moves moves the LP paths and the results
PINNED_DET = [
    ("oos det-mean", _oos_instance, baselines.MEAN,
     "0c237de2af4748f484dd8af798a4cdb6f6993fe632af74a9930a5e4fd82ef431"),
    ("oos det-p75", _oos_instance, baselines.percentile(75),
     "eff44b394d69c26ec1c76ceaa3a4ad8638f91c1d660174fcd23fe225c95a5010"),
    ("lagr g22 det-p75", lambda: _lagr_instance(22), baselines.percentile(75),
     "37c8d7e7fb6666cc789cb1740c3042adc52b4bb97d76f579fe9cb791d6979686"),
    ("lagr g24 det-p75", lambda: _lagr_instance(24), baselines.percentile(75),
     "90c728693ba2b12b0f8bab6be8183b4d2d3f79f2090e5bf337b2cdb2836aaada"),
    ("lagr g25 det-p75", lambda: _lagr_instance(25), baselines.percentile(75),
     "9f83f5a4d8b26a3a7d18ca1af43e2306783bc840e2db657b531eec7f73f8e41d"),
]
PINNED_MASTER = [
    # (trips, scenarios, instance seed, scenario seed), digest
    ((20, 50, 1, 2), "39413859b7e51d3351d427111c9c491c1fff4f1cbea7489aea0b7f90cfc48ceb"),
    ((24, 50, 2, 3), "05de38f700e8125b73470eb4ee96b9276750f2dfacd10e2d39d4b7d1dc3e4162"),
    ((30, 80, 2, 3), "374a5cac1cf2ca4725883e4b75e5965227387a432fbe5a4bf0de80a773f2d09c"),
    ((20, 300, 1, 2), "7f405ea13ddac3707b67c06d0be0d4e2b5088142224b0feb65882cbcd901099d"),
]


@pytest.mark.parametrize("label, make, times, digest", PINNED_DET,
                         ids=[p[0] for p in PINNED_DET])
def test_deterministic_model_rows_are_pinned(monkeypatch, label, make, times, digest):
    inst, scen = make()
    seen = []
    bnb_solve = baselines.bnb_solve

    def capture(model, **kw):
        seen.append(_model_digest(model))
        return bnb_solve(model, **kw)

    monkeypatch.setattr(baselines, "bnb_solve", capture)
    baselines.solve_deterministic(inst, times, scen)
    assert seen == [digest]


@pytest.mark.parametrize("rung, digest", PINNED_MASTER, ids=[str(p[0]) for p in PINNED_MASTER])
def test_master_rows_are_pinned(rung, digest):
    n, n_scen, gen_seed, scen_seed = rung
    inst = generate_instance(GenParams(n_trips=n, n_depots=2, seed=gen_seed))
    scen = sample_scenarios(inst, n_scen, seed=scen_seed)
    params = ServiceParams.for_instance(inst, lb=1, ub=5, delta_trip=0.9,
                                        delta_route=0.8, epsilon=0.05)
    assert _model_digest(MasterModel(inst, params, scen, BnCConfig()).model) == digest


# column values on either side of the decoding threshold, and on it
_ON = [1.0, np.nextafter(0.5, 1.0)]
_OFF = [0.0, 0.5, np.nextafter(0.5, 0.0)]


@PROPERTY
@given(random_cases(), st.data())
def test_decode_reads_the_columns_above_one_half(case, data):
    """``decode`` gives the schedule of the arcs whose column is above 0.5,
    read arc by arc, or raises the same error, and ``z_values`` gives the
    indicator columns' values, byte for byte. The values sit at 0.5 and one
    ulp either side, and one column may take any of them, which can leave an
    arc set that is no schedule."""
    inst, params, scen, sched = case
    master = MasterModel(inst, params, scen, BnCConfig(use_vi=False))
    on = {master.x[arc] for arc in schedule_to_arcs(sched)}
    n = master.model.n_vars
    x = np.array([data.draw(st.sampled_from(_ON if j in on else _OFF)) for j in range(n)])
    if data.draw(st.booleans()):
        x[data.draw(st.integers(0, n - 1))] = data.draw(st.sampled_from(_ON + _OFF))

    def outcome(decode):
        try:
            return decode(x)
        except ValidationError as exc:
            return str(exc)

    def by_arc(x_vals):
        return schedule_from_arcs(inst, {arc for arc, j in master.x.items() if x_vals[j] > 0.5})

    assert outcome(master.decode) == outcome(by_arc)
    assert master.z_values(x).tobytes() == np.array([x[j] for j in master.z]).tobytes()
