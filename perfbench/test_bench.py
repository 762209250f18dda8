"""Tests of the benchmark's own pieces: checker, replay, cost, HiGHS model,
tracer and compare verdicts.

    python3 -m pytest perfbench -q

Run from the repository root.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import ccvsp  # noqa: E402
from ccvsp import baselines, bnc, core, gallery, lagrangian, milp, scenarios, subproblem  # noqa: E402
from ccvsp.core import Bus, Schedule  # noqa: E402

import compare  # noqa: E402
import reference as ref  # noqa: E402
from tracer import FUNCTIONS, METHODS, Tracer  # noqa: E402


def rates_of(params):
    return (params.lb, params.ub), (params.delta_trip, params.delta_route)


def random_schedule(rng, inst) -> Schedule:
    """Trips in start order, each appended to a random compatible bus or a new one."""
    buses: list[list[int]] = []
    depots: list[int] = []
    for trip in sorted(range(1, inst.n_trips + 1), key=lambda i: inst.trips[i - 1].start):
        open_buses = [b for b in range(len(buses)) if (buses[b][-1], trip) in inst.compat]
        if open_buses and rng.random() < 0.7:
            buses[open_buses[int(rng.integers(len(open_buses)))]].append(trip)
        else:
            buses.append([trip])
            depots.append(int(rng.integers(1, inst.n_depots + 1)))
    return Schedule(tuple(Bus(k, tuple(b)) for k, b in zip(depots, buses)))


def greedy_flags(inst, params, sched, scen):
    return np.array([subproblem.greedy_evaluate(inst, params, sched, scen, s).z_star
                     for s in range(scen.count)], dtype=bool)


# -- structural checker and cost --------------------------------------------

def test_checker_accepts_reference_schedules():
    inst = gallery.two_depot_grid()
    for sched in (gallery.grid_schedule_left(), gallery.grid_schedule_right()):
        assert ref.check_schedule(inst, sched) == []
        assert ref.schedule_cost(inst, sched) == core.schedule_cost(inst, sched) == 20


@pytest.mark.parametrize("buses, fault", [
    (((1, (1, 3, 4)), (2, (8, 6, 5, 7))), "not served"),
    (((1, (1, 3, 4, 2)), (2, (8, 6, 5, 7, 2))), "more than once"),
    (((1, (1, 3, 4, 2)), (2, (8, 5, 6, 7))), "not compatible"),
    (((1, (1, 3, 4, 2)), (1, (8, 6)), (1, (5, 7))), "capacity"),
    (((1, (1, 3, 4, 2)), (3, (8, 6, 5, 7))), "unknown depot"),
    (((1, (1, 3, 4, 2, 9)), (2, (8, 6, 5, 7))), "outside"),
])
def test_checker_rejects_broken_schedules(buses, fault):
    inst = gallery.two_depot_grid()
    sched = Schedule(tuple(Bus(k, trips) for k, trips in buses))
    faults = ref.check_schedule(inst, sched)
    assert any(fault in f for f in faults), faults


def test_cost_matches_program_on_random_schedules():
    rng = np.random.default_rng(5)
    inst = scenarios.generate_instance(scenarios.GenParams(n_trips=16, n_depots=3, seed=4))
    for _ in range(20):
        sched = random_schedule(rng, inst)
        assert ref.schedule_cost(inst, sched) == core.schedule_cost(inst, sched)


# -- independent replay -------------------------------------------------------

def test_replay_matches_greedy_on_gallery():
    inst, scen = gallery.two_depot_grid(), gallery.grid_scenarios()
    params = gallery.grid_service_params(inst)
    window, rates = rates_of(params)
    for sched in (gallery.grid_schedule_left(), gallery.grid_schedule_right()):
        flags = ref.replay(inst, window, rates, sched, scen.dur, scen.travel)
        assert flags.tolist() == greedy_flags(inst, params, sched, scen).tolist()
    inst, params, sched, scen = gallery.delay_chain()
    window, rates = rates_of(params)
    flags = ref.replay(inst, window, rates, sched, scen.dur, scen.travel)
    assert flags.tolist() == greedy_flags(inst, params, sched, scen).tolist() == [True]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_replay_matches_greedy_on_random_schedules(seed):
    rng = np.random.default_rng(seed)
    inst = scenarios.generate_instance(scenarios.GenParams(
        n_trips=18, n_depots=2, trips_per_route=6, headway_buffer=(0, 4), seed=seed))
    scen = scenarios.sample_scenarios(inst, 60, seed=seed + 100)
    for lb, ub, dt, dr in [(1, 5, 0.9, 0.8), (0, 2, 1.0, 1.0), (2, 8, 0.7, 0.5)]:
        params = core.ServiceParams.for_instance(inst, lb=lb, ub=ub, delta_trip=dt,
                                                 delta_route=dr, epsilon=0.1)
        for _ in range(5):
            sched = random_schedule(rng, inst)
            flags = ref.replay(inst, (lb, ub), (dt, dr), sched, scen.dur, scen.travel)
            expected = greedy_flags(inst, params, sched, scen)
            assert flags.tolist() == expected.tolist()


# -- HiGHS model ---------------------------------------------------------------

def test_highs_optimum_matches_exact_solver():
    inst = scenarios.generate_instance(scenarios.GenParams(n_trips=12, n_depots=2, seed=3))
    scen = scenarios.sample_scenarios(inst, 12, seed=4)
    params = core.ServiceParams.for_instance(inst, lb=1, ub=3, delta_trip=0.9,
                                             delta_route=0.8, epsilon=0.1)
    res = bnc.solve_bnc(inst, params, scen, bnc.BnCConfig())
    window, rates = rates_of(params)
    entry = ref.highs_optimum(inst, scen, window, rates, 0.1)
    assert entry["status"] == 0
    assert entry["optimum"] == pytest.approx(res.objective, rel=1e-9)


def test_fingerprint_follows_the_inputs():
    inst = scenarios.generate_instance(scenarios.GenParams(n_trips=10, n_depots=2, seed=1))
    a = scenarios.sample_scenarios(inst, 5, seed=1)
    b = scenarios.sample_scenarios(inst, 5, seed=2)
    key = ((1, 5), (0.9, 0.8), 0.05)
    assert ref.fingerprint(inst, a, *key) == ref.fingerprint(inst, a, *key)
    assert ref.fingerprint(inst, a, *key) != ref.fingerprint(inst, b, *key)
    assert ref.fingerprint(inst, a, *key) != ref.fingerprint(inst, a, (1, 4), (0.9, 0.8), 0.05)


# -- tracer ---------------------------------------------------------------------

@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    t.begin_op("pass", 0)
    yield t
    t.uninstall()


def ccvsp_modules():
    return [m for n, m in sys.modules.items() if n == "ccvsp" or n.startswith("ccvsp.")]


def test_tracer_leaves_no_binding_unwrapped(tracer):
    originals = [getattr(sys.modules["ccvsp." + m], a).__wrapped__ for m, a, _, _ in FUNCTIONS]
    for mod in ccvsp_modules():
        for key, value in vars(mod).items():
            assert not any(value is o for o in originals), f"{mod.__name__}.{key} not wrapped"
    for mod_name, cls_name, meth, _, _ in METHODS:
        cls = getattr(sys.modules["ccvsp." + mod_name], cls_name)
        assert getattr(cls.__dict__[meth], "__wrapped_by_tracer__", False)
    tracer.uninstall()
    for mod in ccvsp_modules():
        for key, value in vars(mod).items():
            assert not getattr(value, "__wrapped_by_tracer__", False), key


def spans_named(tracer, name):
    return sum(1 for s in tracer.spans if s is not None and s[1] == name)


def test_tracer_counts_calls_through_each_importing_module(tracer):
    inst, scen = gallery.two_depot_grid(), gallery.grid_scenarios()
    params = gallery.grid_service_params(inst)
    sched = gallery.grid_schedule_left()
    via = [subproblem, bnc, ccvsp.cuts, baselines, ccvsp]
    for n, mod in enumerate(via, start=1):
        mod.greedy_evaluate(inst, params, sched, scen, 0)
        assert spans_named(tracer, "subproblem.greedy_evaluate") == n, mod.__name__
    model = milp.MilpModel()
    x = model.add_var(0, 3, -1.0, True)
    model.add_constr({x: 2.0}, milp.LESS, 5.0)
    for n, mod in enumerate([milp, bnc, baselines, subproblem], start=1):
        assert mod.bnb_solve(model).obj == -2.0
        assert spans_named(tracer, "milp.bnb_solve") == n, mod.__name__
    before = spans_named(tracer, "subproblem.count_violated")
    for n, mod in enumerate([subproblem, bnc, lagrangian, ccvsp], start=1):
        mod.count_violated_scenarios(inst, params, sched, scen)
        assert spans_named(tracer, "subproblem.count_violated") == before + n, mod.__name__
    before = spans_named(tracer, "bnc.solve_bnc")
    for n, mod in enumerate([bnc, lagrangian, ccvsp], start=1):
        mod.solve_bnc(inst, params, scen, bnc.BnCConfig())
        assert spans_named(tracer, "bnc.solve_bnc") == before + n, mod.__name__


def test_tracer_counts_reconcile_with_results(tracer):
    inst = scenarios.generate_instance(scenarios.GenParams(n_trips=14, n_depots=2, seed=2))
    train = scenarios.sample_scenarios(inst, 20, seed=3)
    held = scenarios.sample_scenarios(inst, 30, seed=4)
    params = core.ServiceParams.for_instance(inst, lb=1, ub=5, delta_trip=0.9,
                                             delta_route=0.8, epsilon=0.05)
    tracer.begin_op("setup", 0)
    res = bnc.solve_bnc(inst, params, train, bnc.BnCConfig())
    tracer.begin_op("pass", 0)
    baselines.evaluate_out_of_sample(inst, params, res.schedule, held, "bnc", train_scen=train)
    totals = tracer.window_totals()
    solve, replay = totals[("setup", 0)], totals[("pass", 0)]
    assert solve["milp.bnb_nodes"] == res.nodes
    assert solve["bnc.cuts_added"] == sum(res.cuts_added.values())
    assert solve["milp.lp_calls"] >= res.nodes
    setup_ops = {op for op, w in tracer.windows.items() if w == ("setup", 0)}
    spans = [s for s in tracer.spans if s is not None and s[5] in setup_ops]
    bnb = {s[0]: s[3] - s[2] for s in spans if s[1] == "milp.bnb_solve"}
    lp_in_bnb = sum(s[3] - s[2] for s in spans if s[1] == "milp.lp_solve" and s[4] in bnb)
    assert lp_in_bnb > 0
    assert 0 <= solve["milp.bnb_self_s"] <= sum(bnb.values()) - lp_in_bnb + 1e-9
    assert replay["subproblem.evals"] == held.count + train.count
    per_layer = tracer.per_layer()
    assert per_layer["subproblem.evals"] == solve["subproblem.evals"] + held.count + train.count
    assert per_layer["milp.bnb_nodes"] == res.nodes


# -- compare verdicts -------------------------------------------------------------

@pytest.mark.parametrize("change, expected", [
    ([10.0, 10.1, 9.9, 10.0, 10.05], "within bound"),
    ([12.0, 12.1, 11.9, 12.0, 12.05], "worse"),
    ([8.0, 8.1, 7.9, 8.0, 8.05], "improved"),
])
def test_compare_verdicts(change, expected):
    base = [10.0, 10.1, 9.9, 10.05, 9.95]
    _, won, _ = compare.pair_wins(list(enumerate(base)), list(enumerate(change)), "lower")
    assert compare.verdict(base, change, won, "lower", 0.1) == expected


def test_compare_unresolved_when_spread_exceeds_bound():
    base = [10.0, 14.0, 7.0, 12.0, 9.0]
    change = [9.5, 13.0, 8.0, 12.5, 9.0]
    _, won, _ = compare.pair_wins(list(enumerate(base)), list(enumerate(change)), "lower")
    assert compare.verdict(base, change, won, "lower", 0.1) == "unresolved"


def test_compare_unresolved_when_second_spread_exceeds_bound():
    base = [10.0, 10.1, 9.9, 10.05, 9.95]
    change = [9.0, 14.0, 7.0, 12.0, 10.0]
    _, won, _ = compare.pair_wins(list(enumerate(base)), list(enumerate(change)), "lower")
    assert compare.verdict(base, change, won, "lower", 0.1) == "unresolved"


# -- timing loop ------------------------------------------------------------------

def test_timed_pass_calls_each_input_once_between_calibrations():
    import run

    seen = []

    class Echo:
        def call(self, case):
            seen.append(case)
            return case

    calls = run.timed_pass(Echo(), ["a", "b", "c"], lambda: None)
    assert seen == ["a", "b", "c"]
    assert [c.outcome for c in calls] == seen
    for c in calls:
        assert c.wall_s >= 0 and c.cal_s > 0
        assert c.scaled(c.cal_s) == pytest.approx(run.CAL_REF_S)
