"""Greedy evaluator, its MILP cross-check and scenario counting."""

import numpy as np
import pytest
from hypothesis import given

from conftest import PROPERTY, random_cases, random_instance, random_scenarios, random_schedule

from ccvsp import gallery
from ccvsp.core import Bus, Schedule, ServiceParams, cc_threshold
from ccvsp.subproblem import (
    TRIP_LEVEL,
    count_violated_scenarios,
    evaluate_scenarios,
    greedy_evaluate,
    milp_subproblem_oracle,
    violated_requirements,
)


def test_delay_chain_earliest_starts():
    inst, params, sched, scen = gallery.delay_chain()
    g = greedy_evaluate(inst, params, sched, scen, 0)
    assert list(g.y_star) == [6, 24, 39, 60, 74, 97]
    assert g.delayed == {4, 6}
    assert g.z_star == 1
    assert g.violated == (TRIP_LEVEL,)


def test_single_trip_bus_always_on_time():
    inst, params, _, scen = gallery.delay_chain()
    sched = Schedule(tuple(Bus(1, (i,)) for i in range(1, 7)))
    g = greedy_evaluate(inst, params, sched, scen, 0)
    assert g.z_star == 0
    assert g.on_time_count() == 6
    assert all(g.y_star[i] == inst.trips[i].start - params.lb for i in range(6))


def test_grid_scenarios_reproduce_known_delays():
    inst = gallery.two_depot_grid()
    params = gallery.grid_service_params(inst)
    scen = gallery.grid_scenarios()
    left, right = gallery.grid_schedule_left(), gallery.grid_schedule_right()
    assert greedy_evaluate(inst, params, left, scen, 0).delayed == {3, 4}
    assert greedy_evaluate(inst, params, left, scen, 1).delayed == {2, 4}
    assert greedy_evaluate(inst, params, right, scen, 0).delayed == {6}
    assert greedy_evaluate(inst, params, right, scen, 1).delayed == {4}
    # left breaks both scenarios, right none; with eps=0.5 that separates them
    assert count_violated_scenarios(inst, params, left, scen) == 2
    assert count_violated_scenarios(inst, params, right, scen) == 0
    assert cc_threshold(scen.count, params.epsilon) == 1


@PROPERTY
@given(random_cases())
def test_scenario_evaluator_matches_greedy(case):
    inst, params, scen, sched = case
    z_star, v_star = evaluate_scenarios(inst, params, sched, scen)
    assert z_star.shape == (scen.count,) and v_star.shape == (scen.count, inst.n_trips)
    for s in range(scen.count):
        g = greedy_evaluate(inst, params, sched, scen, s)
        assert z_star[s] == g.z_star
        assert np.array_equal(v_star[s], g.v_star)
    assert count_violated_scenarios(inst, params, sched, scen) == int(z_star.sum())


def test_violation_threshold_formula():
    assert cc_threshold(750, 0.05) == 37


def test_requirement_check_idempotent():
    inst, params, sched, scen = gallery.delay_chain()
    g = greedy_evaluate(inst, params, sched, scen, 0)
    assert violated_requirements(inst, params, g.v_star) == g.violated


def test_monotone_in_times():
    rng = np.random.default_rng(0)
    for _ in range(20):
        inst = random_instance(rng)
        params = ServiceParams.for_instance(inst, lb=2, ub=3, delta_trip=0.8,
                                            delta_route=0.5, epsilon=0.2)
        scen = random_scenarios(rng, inst, 2)
        # scenario 1 dominates scenario 0 pointwise
        bumped = scen.dur.copy()
        bumped[1] = bumped[0] + rng.integers(0, 4, size=inst.n_trips)
        trav = scen.travel.copy()
        trav[1] = trav[0] + rng.integers(0, 4, size=(inst.n_trips, inst.n_trips))
        scen2 = type(scen)(bumped, trav, scen.out_t, scen.in_t)
        sched = random_schedule(rng, inst)
        g0 = greedy_evaluate(inst, params, sched, scen2, 0)
        g1 = greedy_evaluate(inst, params, sched, scen2, 1)
        assert (g1.y_star >= g0.y_star).all()


def test_expressing_lower_envelope():
    rng = np.random.default_rng(1)
    for _ in range(20):
        inst = random_instance(rng)
        params = ServiceParams.for_instance(inst, lb=2, ub=3, delta_trip=0.8,
                                            delta_route=0.5, epsilon=0.2)
        scen = random_scenarios(rng, inst, 1)
        sched = random_schedule(rng, inst)
        g = greedy_evaluate(inst, params, sched, scen, 0)
        # recompute with expressing disabled: starts can only get later
        no_express = type(inst)(
            [type(t)(t.id, t.route_id, t.start_loc, t.end_loc, t.start, t.mean_dur, 0)
             for t in inst.trips],
            inst.depots, inst.routes, inst.dh_time, inst.out_time, inst.in_time,
            inst.cost, inst.out_cost, inst.in_cost, inst.compat)
        g0 = greedy_evaluate(no_express, params, sched, scen, 0)
        assert (g0.y_star >= g.y_star).all()


def test_oracle_agrees_on_delay_chain():
    inst, params, sched, scen = gallery.delay_chain()
    z, y, v = milp_subproblem_oracle(inst, params, sched, scen, 0)
    assert z == 1
    g = greedy_evaluate(inst, params, sched, scen, 0)
    assert int(v.sum()) == g.on_time_count()


def test_oracle_feasible_schedule_gives_zero():
    inst, params, _, scen = gallery.delay_chain()
    sched = Schedule(tuple(Bus(1, (i,)) for i in range(1, 7)))
    z, _, v = milp_subproblem_oracle(inst, params, sched, scen, 0)
    assert z == 0
    assert int(v.sum()) == 6


@pytest.mark.parametrize("seed", range(5))
def test_oracle_equivalence_random(seed):
    rng = np.random.default_rng(100 + seed)
    for _ in range(8):
        inst = random_instance(rng, n_trips=int(rng.integers(4, 7)))
        params = ServiceParams.for_instance(
            inst, lb=int(rng.integers(0, 3)), ub=int(rng.integers(0, 5)),
            delta_trip=float(rng.uniform(0.5, 1.0)), delta_route=float(rng.uniform(0.4, 1.0)),
            epsilon=0.2)
        scen = random_scenarios(rng, inst, 2)
        sched = random_schedule(rng, inst)
        for s in range(2):
            g = greedy_evaluate(inst, params, sched, scen, s)
            z, _, v = milp_subproblem_oracle(inst, params, sched, scen, s)
            assert z == g.z_star
            assert int(v.sum()) == g.on_time_count()
