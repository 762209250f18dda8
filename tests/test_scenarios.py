"""Instance generation and scenario sampling."""

import io
import json

import numpy as np
import pytest
from hypothesis import given

from conftest import PROPERTY, random_cases

from ccvsp.baselines import evaluate_out_of_sample
from ccvsp.bnc import BnCConfig, solve_bnc
from ccvsp.core import (
    Bus,
    Schedule,
    ServiceParams,
    ValidationError,
    build_compat,
    instance_from_json,
    instance_to_json,
)
from ccvsp.lagrangian import solve_lagrangian
from ccvsp.scenarios import (
    GenParams,
    ScenarioSet,
    generate_instance,
    load_scenarios,
    percentile_times,
    sample_scenarios,
    save_scenarios,
)
from ccvsp.subproblem import evaluate_scenarios, greedy_evaluate


def test_fifty_trips_make_five_routes_with_shared_endpoints():
    inst = generate_instance(GenParams(n_trips=50, n_depots=2, seed=42))
    assert len(inst.routes) == 5
    for members in inst.routes:
        assert len(members) == 10
        locs = set()
        for i in members:
            locs.add(inst.trip(i).start_loc)
            locs.add(inst.trip(i).end_loc)
        assert len(locs) <= 2


def test_short_trips_have_no_expressing():
    inst = generate_instance(GenParams(n_trips=60, n_depots=2, seed=7))
    for t in inst.trips:
        if t.mean_dur < 10:
            assert t.max_express == 0
        else:
            assert np.ceil(0.05 * t.mean_dur) <= t.max_express <= np.floor(0.10 * t.mean_dur) \
                or t.max_express >= 0


def test_same_seed_same_instance():
    a = generate_instance(GenParams(n_trips=30, n_depots=3, seed=5))
    b = generate_instance(GenParams(n_trips=30, n_depots=3, seed=5))
    assert [t for t in a.trips] == [t for t in b.trips]
    assert np.array_equal(a.dh_time, b.dh_time)
    assert a.compat == b.compat
    c = generate_instance(GenParams(n_trips=30, n_depots=3, seed=6))
    assert a.compat != c.compat or not np.array_equal(a.dh_time, c.dh_time)


def test_zero_grid_rejected():
    with pytest.raises(ValidationError):
        generate_instance(GenParams(n_trips=10, n_depots=1, grid_width=0))


def test_sampling_deterministic():
    inst = generate_instance(GenParams(n_trips=20, n_depots=2, seed=1))
    a = sample_scenarios(inst, 5, seed=9)
    b = sample_scenarios(inst, 5, seed=9)
    assert np.array_equal(a.dur, b.dur) and np.array_equal(a.travel, b.travel)


def test_sampler_moments():
    # mean 100, cv 0.2, 1e5 draws: mean within 1%, sd within 5% of 20
    inst = generate_instance(GenParams(n_trips=2, n_depots=1, seed=3))
    rng = np.random.default_rng(0)
    from ccvsp.scenarios import _lognormal_rounded

    draws = _lognormal_rounded(rng, np.full(100_000, 100.0), 0.2).astype(float)
    assert abs(draws.mean() - 100.0) < 1.0
    assert abs(draws.std() / draws.mean() - 0.2) < 0.05 * 0.2 * 5  # sd within 5%


def test_percentile_nearest_rank():
    I = 1
    dur = np.arange(1, 101).reshape(100, 1)
    scen = ScenarioSet(dur, np.zeros((100, 1, 1), dtype=np.int64),
                       np.zeros((100, 1, 1), dtype=np.int64),
                       np.zeros((100, 1, 1), dtype=np.int64))
    inst = generate_instance(GenParams(n_trips=1, n_depots=1, seed=0))
    d75, *_ = percentile_times(inst, scen, 75)
    assert d75[0] == 75
    d100, *_ = percentile_times(inst, scen, 100)
    assert d100[0] == 100
    same = ScenarioSet(np.full((2, 1), 7, dtype=np.int64), np.zeros((2, 1, 1), dtype=np.int64),
                       np.zeros((2, 1, 1), dtype=np.int64), np.zeros((2, 1, 1), dtype=np.int64))
    d50, *_ = percentile_times(inst, same, 50)
    assert d50[0] == 7


def test_compat_monotone_in_estimates():
    inst = generate_instance(GenParams(n_trips=25, n_depots=2, seed=11))
    scen = sample_scenarios(inst, 40, seed=2)
    d100, t100, *_ = percentile_times(inst, scen, 100)
    hi = build_compat(inst.trips, t100, d100)
    mean_d = np.array([t.mean_dur for t in inst.trips])
    base = build_compat(inst.trips, np.maximum(inst.dh_time, t100), np.maximum(mean_d, d100))
    assert base <= hi  # larger estimates can only shrink the pair set


def test_generated_instance_validates():
    for seed in range(3):
        inst = generate_instance(GenParams(n_trips=40, n_depots=3, seed=seed))
        assert inst.n_trips == 40
        assert inst.arc_count() == len(inst.compat) + 2 * 3 * 40


@pytest.mark.parametrize("source_trips", [12, 30])
def test_scenarios_from_another_instance_rejected(source_trips):
    inst = generate_instance(GenParams(n_trips=24, n_depots=2, seed=2))
    params = ServiceParams.for_instance(inst, lb=1, ub=5, delta_trip=0.9,
                                        delta_route=0.8, epsilon=0.05)
    other = generate_instance(GenParams(n_trips=source_trips, n_depots=2, seed=2))
    scen = sample_scenarios(other, 10, seed=3)
    singles = Schedule(tuple(Bus(1, (i,)) for i in range(1, 25)))
    with pytest.raises(ValidationError, match="scenario table dur has shape"):
        solve_bnc(inst, params, scen, BnCConfig())
    with pytest.raises(ValidationError, match="24 trips and 2 depots"):
        solve_lagrangian(inst, params, scen, BnCConfig(), m_gr=12)
    with pytest.raises(ValidationError, match="scenario table"):
        evaluate_out_of_sample(inst, params, singles, scen)
    own = sample_scenarios(inst, 10, seed=3)
    with pytest.raises(ValidationError, match="scenario table"):
        evaluate_out_of_sample(inst, params, singles, own, train_scen=scen)


def test_scenario_shape_check_names_each_table():
    inst = generate_instance(GenParams(n_trips=6, n_depots=2, trips_per_route=3, seed=1))
    scen = sample_scenarios(inst, 4, seed=2)
    scen.check_instance(inst)
    for name, bad in (("travel", scen.travel[:, :, :5]), ("out_t", scen.out_t[:, :1]),
                      ("in_t", scen.in_t[:, :, :1])):
        tables = {k: getattr(scen, k) for k in ("dur", "travel", "out_t", "in_t")}
        tables[name] = bad
        with pytest.raises(ValidationError, match=f"scenario table {name} has shape"):
            ScenarioSet(**tables).check_instance(inst)


@PROPERTY
@given(random_cases())
def test_instance_and_scenarios_survive_round_trip(case):
    inst, params, scen, sched = case
    loaded = instance_from_json(json.loads(json.dumps(instance_to_json(inst))))
    buf = io.BytesIO()
    save_scenarios(scen, buf)
    buf.seek(0)
    scen2 = load_scenarios(buf)
    assert (loaded.trips, loaded.depots, loaded.routes, loaded.compat) == \
        (inst.trips, inst.depots, inst.routes, inst.compat)
    for name in ("dh_time", "out_time", "in_time", "cost", "out_cost", "in_cost"):
        a, b = getattr(inst, name), getattr(loaded, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for name in ("dur", "travel", "out_t", "in_t"):
        a, b = getattr(scen, name), getattr(scen2, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert scen2.rng_seed == scen.rng_seed
    params2 = params.scaled_to(loaded)
    assert params2 == params
    z, v = evaluate_scenarios(inst, params, sched, scen)
    z2, v2 = evaluate_scenarios(loaded, params2, sched, scen2)
    assert np.array_equal(z, z2) and np.array_equal(v, v2)
    for s in range(scen.count):
        g = greedy_evaluate(inst, params, sched, scen, s)
        g2 = greedy_evaluate(loaded, params2, sched, scen2, s)
        assert np.array_equal(g.y_star, g2.y_star) and g.violated == g2.violated
