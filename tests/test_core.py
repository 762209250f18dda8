"""Domain types, cost evaluation, arc encoding and serialization."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import PROPERTY

from ccvsp import gallery
from ccvsp.core import (
    Bus,
    Instance,
    Schedule,
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


def test_both_reference_schedules_cost_twenty(grid):
    assert schedule_cost(grid, gallery.grid_schedule_left()) == 20
    assert schedule_cost(grid, gallery.grid_schedule_right()) == 20


def test_empty_schedule_on_empty_instance_costs_zero():
    empty = Instance([], [], [], *(np.zeros((0, 0), dtype=np.int64) for _ in range(6)), compat=[])
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


def test_trip_in_two_routes_rejected(grid):
    with pytest.raises(ValidationError) as err:
        Instance(grid.trips, grid.depots, [[1, 2], [2, 3, 4], [5, 6], [7, 8]],
                 grid.dh_time, grid.out_time, grid.in_time,
                 grid.cost, grid.out_cost, grid.in_cost, grid.compat)
    assert "trip 2" in str(err.value)


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
