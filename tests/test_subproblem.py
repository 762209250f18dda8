"""Greedy evaluator, its MILP cross-check and scenario counting."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import PROPERTY, random_cases, random_instance, random_scenarios, random_schedule

from ccvsp import gallery
from ccvsp.core import Bus, Schedule, ServiceParams, cc_threshold, validate_schedule
from ccvsp.lagrangian import restrict
from ccvsp.scenarios import ScenarioSet
from ccvsp.subproblem import (
    TRIP_LEVEL,
    Requirement,
    count_violated_scenarios,
    evaluate_scenarios,
    greedy_evaluate,
    milp_subproblem_oracle,
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
    assert not g.delayed
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
        assert set(np.flatnonzero(~v_star[s]) + 1) == g.delayed
    assert count_violated_scenarios(inst, params, sched, scen) == int(z_star.sum())


def reference_greedy(inst, params, sched, scen, s):
    """Earliest starts, on-time flags and broken requirements, trip by trip
    from the model's definition."""
    y = [0] * inst.n_trips
    v = [True] * inst.n_trips
    for bus in sched.buses:
        for pos, i in enumerate(bus.trips):
            trip = inst.trips[i - 1]
            if pos == 0:
                y[i - 1] = trip.start - params.lb
                continue
            p = bus.trips[pos - 1]
            arrive = (y[p - 1] + int(scen.dur[s, p - 1]) + int(scen.travel[s, p - 1, i - 1])
                      - inst.trips[p - 1].max_express)
            y[i - 1] = max(trip.start - params.lb, arrive)
            v[i - 1] = y[i - 1] <= trip.start + params.ub
    violated = [TRIP_LEVEL] if sum(v) < params.f_trip else []
    for r, members in enumerate(inst.routes, start=1):
        if sum(v[i - 1] for i in members) < params.f_route[r - 1]:
            violated.append(Requirement(r))
    return y, v, tuple(violated)


@st.composite
def evaluator_cases(draw):
    """``random_cases`` cut down: up to two buses dropped (a partial schedule),
    sometimes restricted to the kept trips as a Lagrangian sub-instance, with
    a drawn window whose lb or ub is often zero."""
    inst, params, scen, sched = draw(random_cases())
    dropped = draw(st.sets(st.integers(0, len(sched.buses) - 1), max_size=2))
    buses = tuple(b for k, b in enumerate(sched.buses) if k not in dropped)
    if buses and draw(st.booleans()):
        inst, scen = restrict(inst, scen, [i for b in buses for i in b.trips])
        to_local = {o: l for l, o in enumerate(inst.meta["orig_ids"], start=1)}
        buses = tuple(Bus(b.depot, tuple(to_local[i] for i in b.trips)) for b in buses)
    params = ServiceParams.for_instance(
        inst, lb=draw(st.integers(0, 3)), ub=draw(st.integers(0, 3)),
        delta_trip=params.delta_trip, delta_route=params.delta_route, epsilon=params.epsilon)
    return inst, params, scen, Schedule(buses)


@PROPERTY
@given(evaluator_cases())
def test_greedy_matches_reference_propagation(case):
    inst, params, scen, sched = case
    z_rows, v_rows = evaluate_scenarios(inst, params, sched, scen)
    for s in range(scen.count):
        g = greedy_evaluate(inst, params, sched, scen, s)
        y, v, violated = reference_greedy(inst, params, sched, scen, s)
        assert g.y_star.dtype == np.int64 and g.y_star.tolist() == y
        assert g.delayed == {i for i, ok in enumerate(v, start=1) if not ok}
        assert g.violated == violated and g.z_star == (1 if violated else 0)
        assert z_rows[s] == g.z_star and v_rows[s].tolist() == v


def test_on_time_window_includes_its_upper_end():
    inst, params, sched, scen = gallery.delay_chain()
    y = greedy_evaluate(inst, params, sched, scen, 0).y_star
    for i in range(1, inst.n_trips + 1):
        ub = int(y[i - 1]) - inst.trips[i - 1].start
        if ub < 1:
            continue
        for bound, late in ((ub, False), (ub - 1, True)):
            p = ServiceParams.for_instance(inst, params.lb, bound, params.delta_trip,
                                           params.delta_route, params.epsilon)
            assert (i in greedy_evaluate(inst, p, sched, scen, 0).delayed) == late
            assert reference_greedy(inst, p, sched, scen, 0)[1][i - 1] != late


@PROPERTY
@given(random_cases())
def test_changing_a_result_leaves_the_next_call_alone(case):
    inst, params, scen, sched = case
    first = greedy_evaluate(inst, params, sched, scen, 0)
    y = first.y_star.tolist()
    first.y_star[:] = -1
    again = greedy_evaluate(inst, params, sched, scen, 0)
    assert again.y_star.tolist() == y


def test_empty_bus_changes_no_verdict():
    inst, params, sched, scen = gallery.delay_chain()
    padded = Schedule(sched.buses + (Bus(1, ()),))
    validate_schedule(inst, padded)
    for got, want in zip(evaluate_scenarios(inst, params, padded, scen),
                         evaluate_scenarios(inst, params, sched, scen)):
        assert np.array_equal(got, want)
    got, want = (greedy_evaluate(inst, params, x, scen, 0) for x in (padded, sched))
    assert np.array_equal(got.y_star, want.y_star) and got.violated == want.violated


def test_violation_threshold_formula():
    assert cc_threshold(750, 0.05) == 37


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
            inst.depots, inst.dh_time, inst.out_time, inst.in_time,
            inst.cost, inst.out_cost, inst.in_cost, inst.compat)
        g0 = greedy_evaluate(no_express, params, sched, scen, 0)
        assert (g0.y_star >= g.y_star).all()


def test_oracle_agrees_on_delay_chain():
    inst, params, sched, scen = gallery.delay_chain()
    z, y, v = milp_subproblem_oracle(inst, params, sched, scen, 0)
    assert z == 1
    g = greedy_evaluate(inst, params, sched, scen, 0)
    assert int(v.sum()) == inst.n_trips - len(g.delayed)


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
            assert int(v.sum()) == inst.n_trips - len(g.delayed)


INT32_MAX = 2**31 - 1


def _python_int_verdict(inst, params, sched, scen, s):
    """Late trips and verdict of scenario s, propagated on Python ints."""
    late = set()
    for bus in sched.buses:
        y = inst.starts[bus.trips[0] - 1] - params.lb
        for prev, i in zip(bus.trips, bus.trips[1:]):
            leg = (int(scen.dur[s, prev - 1]) + int(scen.travel[s, prev - 1, i - 1])
                   - int(inst.max_express[prev - 1]))
            y = max(inst.starts[i - 1] - params.lb, y + leg)
            if y > inst.starts[i - 1] + params.ub:
                late.add(i)
    per_route = [sum(i not in late for i in members) for members in inst.routes]
    broken = (inst.n_trips - len(late) < params.f_trip
              or any(on < f for on, f in zip(per_route, params.f_route)))
    return late, broken


def _limit_scenarios(rng, inst, base, n, top=INT32_MAX):
    """Copies of ``base``'s first scenario whose durations and deadheads are
    set, entry by entry, to 0 or ``top`` with probability 1/4 each."""
    tables = {name: np.repeat(getattr(base, name)[:1], n, axis=0).astype(np.int64)
              for name in ("dur", "travel", "out_t", "in_t")}
    for name in ("dur", "travel"):
        pick = rng.random(tables[name].shape)
        tables[name][pick < 0.25] = top
        tables[name][(pick >= 0.25) & (pick < 0.5)] = 0
    tables["dur"][0, :] = top            # every leg at the limit in scenario 0
    tables["travel"][0] = top
    return ScenarioSet(**tables)


def test_evaluators_agree_at_the_int32_limits():
    """A duration of 2**31-1 plus a deadhead must not wrap: the greedy
    evaluator, the batch evaluator and a Python-int propagation agree."""
    inst = gallery.two_depot_grid()
    params = gallery.grid_service_params(inst)
    dur = gallery.grid_scenarios().dur.astype(np.int64)
    dur[0, 0] = INT32_MAX                  # trip 1, first of the left schedule's bus 1
    base = gallery.grid_scenarios()
    scen = ScenarioSet(dur, base.travel, base.out_t, base.in_t)
    left = gallery.grid_schedule_left()
    g = greedy_evaluate(inst, params, left, scen, 0)
    assert 3 in g.delayed and g.z_star == 1
    assert evaluate_scenarios(inst, params, left, scen)[0][0]

    rng = np.random.default_rng(31)
    cases = [(inst, params, sched, _limit_scenarios(rng, inst, base, 12))
             for sched in (left, gallery.grid_schedule_right())]
    for _ in range(10):
        rinst = random_instance(rng, n_trips=int(rng.integers(4, 9)))
        rparams = ServiceParams.for_instance(rinst, lb=1, ub=3, delta_trip=0.7,
                                             delta_route=0.5, epsilon=0.2)
        cases.append((rinst, rparams, random_schedule(rng, rinst),
                      _limit_scenarios(rng, rinst, random_scenarios(rng, rinst, 1), 12)))
    limit_breaks = 0
    for inst_c, params_c, sched, scen_c in cases:
        # the legs pass 2**31 - 1, so dur is int64 by the leg rule
        assert (scen_c.dur.dtype, scen_c.travel.dtype) == (np.int64, np.int32)
        broken, v = evaluate_scenarios(inst_c, params_c, sched, scen_c)
        for s in range(scen_c.count):
            late, want = _python_int_verdict(inst_c, params_c, sched, scen_c, s)
            g = greedy_evaluate(inst_c, params_c, sched, scen_c, s)
            assert g.delayed == late
            assert g.z_star == int(want) == int(broken[s])
            assert set(np.flatnonzero(~v[s]) + 1) == g.delayed
            limit_breaks += want
    assert limit_breaks >= 10, limit_breaks


def _check_limit_agreement(top, horizon, narrow):
    """Tables whose largest value is ``top``, in every scenario's durations
    and deadheads: travel is stored as ``narrow`` at ``top`` and as the next
    width above it, and dur as the type of twice ``top``. Where a duration
    plus a deadhead passes ``top``, the greedy evaluator, the batch
    evaluator, the MILP oracle and a Python-int propagation agree. Starts
    spread over ``horizon`` minutes make some of those legs late and others
    not."""
    rng = np.random.default_rng(47)
    verdicts = [0, 0]
    wide = {np.uint8: np.int16, np.int16: np.int32}[narrow]
    for _ in range(6):
        inst = random_instance(rng, n_trips=int(rng.integers(4, 7)), horizon=horizon)
        params = ServiceParams.for_instance(inst, lb=1, ub=3, delta_trip=0.7,
                                            delta_route=0.5, epsilon=0.2)
        sched = random_schedule(rng, inst)
        scen = _limit_scenarios(rng, inst, random_scenarios(rng, inst, 1), 4, top)
        assert scen.travel.dtype == (narrow if top == np.iinfo(narrow).max else wide)
        assert scen.dur.dtype == wide
        broken, v = evaluate_scenarios(inst, params, sched, scen)
        for s in range(scen.count):
            late, want = _python_int_verdict(inst, params, sched, scen, s)
            g = greedy_evaluate(inst, params, sched, scen, s)
            z, _, v_oracle = milp_subproblem_oracle(inst, params, sched, scen, s)
            assert g.delayed == late
            assert g.z_star == int(want) == int(broken[s]) == z
            assert set(np.flatnonzero(~v[s]) + 1) == g.delayed
            assert int(v_oracle.sum()) == inst.n_trips - len(g.delayed)
            verdicts[want] += 1
    assert min(verdicts) >= 3, verdicts


@pytest.mark.parametrize("top", [255, 256])
def test_evaluators_and_oracle_agree_at_the_uint8_limit(top):
    _check_limit_agreement(top, 1_000, np.uint8)


@pytest.mark.parametrize("top", [32767, 32768])
def test_evaluators_and_oracle_agree_at_the_int16_limit(top):
    _check_limit_agreement(top, 120_000, np.int16)
