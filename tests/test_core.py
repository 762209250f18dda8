"""Domain types, cost evaluation, arc encoding and serialization."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import PROPERTY, random_instance, random_scenarios, random_schedule

from ccvsp import gallery
from ccvsp.core import (
    Bus,
    Depot,
    Instance,
    Schedule,
    ServiceParams,
    Trip,
    ValidationError,
    build_compat,
    cc_threshold,
    floor_frac,
    instance_from_json,
    instance_to_json,
    load_instance,
    save_instance,
    schedule_cost,
    schedule_from_arcs,
    schedule_to_arcs,
    validate_schedule,
)


@pytest.fixture(scope="module")
def grid():
    return gallery.two_depot_grid()


def test_grid_dimensions(grid):
    assert grid.n_trips == 8
    assert grid.n_depots == 2
    assert len(grid.routes) == 4


def test_a_route_id_with_no_trips_gives_an_empty_route():
    """Routes come from the trips' route ids: trips on routes (1, 1, 3, 3) give
    an empty route 2, which requires nothing, so no evaluator breaks it and no
    valid inequality is scoped to it."""
    from ccvsp.cuts import valid_inequalities
    from ccvsp.subproblem import Requirement, evaluate_scenarios, greedy_evaluate

    rng = np.random.default_rng(21)
    broken_routes = set()
    for _ in range(30):
        base = random_instance(rng, n_trips=4, n_depots=1, horizon=120)
        trips = [dataclasses.replace(t, route_id=r) for t, r in zip(base.trips, (1, 1, 3, 3))]
        inst = Instance(trips, base.depots, base.dh_time, base.out_time, base.in_time,
                        base.cost, base.out_cost, base.in_cost, base.compat)
        assert inst.routes == ((1, 2), (), (3, 4))
        assert instance_from_json(instance_to_json(inst)).routes == inst.routes
        params = ServiceParams.for_instance(inst, lb=0, ub=1, delta_trip=0.5,
                                            delta_route=1.0, epsilon=0.5)
        assert params.f_route == (2, 0, 2)
        scen = random_scenarios(rng, inst, 6, spread=30)
        sched = random_schedule(rng, inst)
        broken, _ = evaluate_scenarios(inst, params, sched, scen)
        for s in range(scen.count):
            g = greedy_evaluate(inst, params, sched, scen, s)
            assert Requirement(2) not in g.violated
            assert broken[s] == bool(g.violated)
            broken_routes.update(c.route for c in g.violated)
        assert all(vi.scope != 2 for vi in valid_inequalities(inst, params, scen))
    # the draws do break the other routes
    assert {1, 3} <= broken_routes


def test_both_reference_schedules_cost_twenty(grid):
    assert schedule_cost(grid, gallery.grid_schedule_left()) == 20
    assert schedule_cost(grid, gallery.grid_schedule_right()) == 20


def test_empty_schedule_on_empty_instance_costs_zero():
    empty = Instance([], [], *(np.zeros((0, 0), dtype=np.int64) for _ in range(6)), compat=[])
    assert schedule_cost(empty, Schedule(())) == 0


def test_cost_invariant_under_bus_permutation(grid):
    left = gallery.grid_schedule_left()
    flipped = Schedule(tuple(reversed(left.buses)))
    assert schedule_cost(grid, left) == schedule_cost(grid, flipped)


def test_cost_rejects_incompatible_pair(grid):
    bad = Schedule((Bus(1, (2, 1, 3, 4)), Bus(2, (8, 6, 5, 7))))  # 2 before 1 is impossible
    with pytest.raises(ValidationError):
        schedule_cost(grid, bad)


def test_arc_round_trip(grid):
    for sched in (gallery.grid_schedule_left(), gallery.grid_schedule_right()):
        arcs = schedule_to_arcs(sched)
        back = schedule_from_arcs(grid, arcs)
        assert sorted((b.depot, b.trips) for b in back.buses) == \
            sorted((b.depot, b.trips) for b in sched.buses)


def test_single_trip_bus_from_arcs(grid):
    inst = gallery.two_depot_grid()
    # put every trip on its own bus, all from depot 1 -> exceeds capacity, so relax
    arcs = set()
    for i in range(1, 9):
        arcs |= {(-1, i, 1), (i, -1, 1)}
    with pytest.raises(ValidationError):
        schedule_from_arcs(inst, arcs)  # depot capacity is 2
    one = schedule_from_arcs(grid, {(-1, 1, 1), (1, -1, 1), (-2, 8, 2), (8, -2, 2),
                                    (-1, 3, 1), (3, 4, 1), (4, 2, 1), (2, -1, 1),
                                    (-2, 6, 2), (6, 5, 2), (5, 7, 2), (7, -2, 2)})
    assert sorted(len(b.trips) for b in one.buses) == [1, 1, 3, 3]


def test_arcs_with_double_cover_rejected(grid):
    arcs = schedule_to_arcs(gallery.grid_schedule_left())
    arcs.add((-2, 3, 2))  # second pull-out covering trip 3 twice
    with pytest.raises(ValidationError):
        schedule_from_arcs(grid, arcs)


def test_negative_cost_rejected():
    doc = instance_to_json(gallery.two_depot_grid())
    doc["costs"]["pairs"][0][2] = -1
    with pytest.raises(ValidationError):
        instance_from_json(doc)


def test_load_save_round_trip(tmp_path, grid):
    path = tmp_path / "inst.json"
    save_instance(grid, path)
    again = load_instance(path)
    assert again.n_trips == grid.n_trips
    assert again.compat == grid.compat
    assert np.array_equal(again.cost, grid.cost)
    assert np.array_equal(again.dh_time, grid.dh_time)
    assert schedule_cost(again, gallery.grid_schedule_left()) == 20


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError):
        load_instance(path)


def test_load_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ValidationError, match="^" + re.escape(f"cannot parse {path}")):
        load_instance(path)


def test_capacity_validation(grid):
    sched = Schedule((Bus(1, (1, 3, 4, 2)), Bus(1, (8, 6, 5, 7)), Bus(1, ())))
    # three buses at depot 1 exceeds capacity 2, but empty buses are dropped from counting?
    with pytest.raises(ValidationError):
        validate_schedule(grid, sched)


def test_floor_arithmetic():
    assert floor_frac(10, 0.3) == 3          # exact despite binary floats
    assert floor_frac(8, 0.85) == 6
    assert cc_threshold(750, 0.05) == 37
    assert cc_threshold(40, 0.05) == 2


def test_service_params_derivation(grid):
    params = gallery.grid_service_params(grid)
    assert params.f_trip == 7
    assert params.f_route == (1, 1, 1, 1)


def _grid_parts(grid) -> dict:
    return dict(trips=list(grid.trips), depots=list(grid.depots), dh_time=grid.dh_time,
                out_time=grid.out_time, in_time=grid.in_time, cost=grid.cost,
                out_cost=grid.out_cost, in_cost=grid.in_cost, compat=set(grid.compat))


def _edit_trip(parts, i, **changes):
    parts["trips"][i - 1] = dataclasses.replace(parts["trips"][i - 1], **changes)


def _negative_cost(parts):
    parts["cost"] = parts["cost"].copy()
    parts["cost"][0, 1] = -1


@pytest.mark.parametrize("edit, message", [
    (lambda p: p["trips"].reverse(), "trip ids must be 1..8 in order, got 8 at position 1"),
    (lambda p: _edit_trip(p, 1, mean_dur=0), "trip 1: mean duration must be positive"),
    (lambda p: _edit_trip(p, 1, max_express=11), "trip 1: max_express must lie in [0, mean_dur]"),
    (lambda p: _edit_trip(p, 1, start=-1), "trip 1: scheduled start must be non-negative"),
    (lambda p: _edit_trip(p, 1, route_id=9), "trip 1: route 9 lies outside 1..8"),
    (lambda p: p["depots"].reverse(), "depot ids must be 1..2 in order, got 2"),
    (lambda p: p["depots"].__setitem__(0, Depot(1, (1, 2), 0)),
     "depot 1: capacity must be at least 1"),
    (lambda p: p.update(dh_time=p["dh_time"][:7]), "dh_time has shape (7, 8), expected (8, 8)"),
    (_negative_cost, "cost[1,2] is negative"),
    (lambda p: p["compat"].add((3, 3)),
     "compatibility pair (3,3) is not a valid ordered trip pair"),
    (lambda p: p["compat"].add((1, 9)),
     "compatibility pair (1,9) is not a valid ordered trip pair"),
    (lambda p: p["compat"].add((2, 1)),
     "compatibility pair (2,1) violates s_i + d_i + t_ij <= s_j under mean times"),
])
def test_instance_refusals_name_their_fault(grid, edit, message):
    parts = _grid_parts(grid)
    Instance(**parts)
    edit(parts)
    with pytest.raises(ValidationError, match=re.escape(message) + "$"):
        Instance(**parts)


@pytest.mark.parametrize("window, deltas, epsilon, message", [
    ((-1, 5), (0.9, 0.8), 0.05, "lb and ub must be non-negative"),
    ((1, -5), (0.9, 0.8), 0.05, "lb and ub must be non-negative"),
    ((1, 5), (0.0, 0.8), 0.05, "delta_trip and delta_route must lie in (0, 1]"),
    ((1, 5), (0.9, 1.5), 0.05, "delta_trip and delta_route must lie in (0, 1]"),
    ((1, 5), (0.9, 0.8), 0.0, "epsilon must lie in (0, 1)"),
    ((1, 5), (0.9, 0.8), 1.0, "epsilon must lie in (0, 1)"),
])
def test_service_params_refusals(grid, window, deltas, epsilon, message):
    with pytest.raises(ValidationError, match=re.escape(message) + "$"):
        ServiceParams.for_instance(grid, *window, *deltas, epsilon)


@st.composite
def compat_inputs(draw):
    """Trips, a deadhead table with a zero diagonal and optional duration
    estimates; an estimate may be zero, so a trip can meet the test against
    itself."""
    n = draw(st.integers(0, 8))
    times = st.lists(st.integers(0, 30), min_size=n, max_size=n)
    starts, means = draw(times), draw(times)
    trips = [Trip(i, 1, (0, 0), (0, 0), 10 * starts[i - 1], means[i - 1] + 1, 0)
             for i in range(1, n + 1)]
    dh = np.array(draw(st.lists(st.integers(0, 20), min_size=n * n, max_size=n * n)),
                  dtype=np.int64).reshape(n, n)
    np.fill_diagonal(dh, 0)
    dur = draw(st.none() | times.map(lambda d: np.array(d, dtype=np.int64)))
    return trips, dh, dur


@PROPERTY
@given(compat_inputs())
def test_build_compat_matches_double_loop(case):
    trips, dh, dur = case
    d = [t.mean_dur for t in trips] if dur is None else dur.tolist()
    expected = set()
    for a, ti in enumerate(trips):
        for b, tj in enumerate(trips):
            if a != b and ti.start + d[a] + int(dh[a, b]) <= tj.start:
                expected.add((a + 1, b + 1))
    assert build_compat(trips, dh, dur) == expected
