"""Instance generation and scenario sampling."""

import dataclasses
import hashlib
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given

from conftest import PROPERTY, random_cases

from ccvsp.baselines import evaluate_out_of_sample
from ccvsp.bnc import BnCConfig, solve_bnc
from ccvsp import scenarios
from ccvsp.core import (
    Bus,
    Depot,
    Instance,
    Schedule,
    ServiceParams,
    Trip,
    ValidationError,
    build_compat,
    instance_from_json,
    instance_to_json,
)
from ccvsp.lagrangian import restrict, solve_lagrangian
from ccvsp.scenarios import (
    GenParams,
    ScenarioSet,
    _dist,
    _lognormal_rounded,
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
            locs.add(inst.trips[i - 1].start_loc)
            locs.add(inst.trips[i - 1].end_loc)
        assert len(locs) <= 2


def test_short_trips_have_no_expressing():
    inst = generate_instance(GenParams(n_trips=60, n_depots=2, seed=7))
    for t in inst.trips:
        if t.mean_dur < 10:
            assert t.max_express == 0
        else:
            assert np.ceil(0.05 * t.mean_dur) <= t.max_express <= np.floor(0.10 * t.mean_dur)


def test_expressing_allowance_lies_in_its_range():
    checked = 0
    for seed in range(1, 30):
        inst = generate_instance(GenParams(n_trips=60, n_depots=2, seed=seed))
        for t in inst.trips:
            if t.mean_dur >= 10:
                assert math.ceil(0.05 * t.mean_dur) <= t.max_express \
                    <= math.floor(0.10 * t.mean_dur), (seed, t)
                checked += 1
    assert checked >= 1000, checked


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


@pytest.mark.parametrize("changes, message", [
    (dict(n_trips=0), "n_trips, n_depots and trips_per_route must be positive"),
    (dict(n_depots=0), "n_trips, n_depots and trips_per_route must be positive"),
    (dict(trips_per_route=0), "n_trips, n_depots and trips_per_route must be positive"),
    (dict(grid_height=0), "grid must be non-degenerate"),
    (dict(headway_buffer=(-1, 4)), "headway_buffer must be a non-negative range"),
    (dict(headway_buffer=(5, 4)), "headway_buffer must be a non-negative range"),
])
def test_generator_refusals(changes, message):
    p = dataclasses.replace(GenParams(n_trips=10, n_depots=1), **changes)
    with pytest.raises(ValidationError, match=re.escape(message) + "$"):
        generate_instance(p)


def test_scenario_set_refuses_no_scenarios():
    with pytest.raises(ValidationError, match="^a scenario set needs at least one scenario$"):
        ScenarioSet(np.zeros((0, 3), dtype=np.int64), np.zeros((0, 3, 3), dtype=np.int64),
                    np.zeros((0, 1, 3), dtype=np.int64), np.zeros((0, 3, 1), dtype=np.int64))


@pytest.mark.parametrize("n", [0, -1])
def test_sampler_refuses_fewer_than_one_scenario(n):
    inst = generate_instance(GenParams(n_trips=6, n_depots=1, seed=1))
    with pytest.raises(ValidationError, match="^need at least one scenario$"):
        sample_scenarios(inst, n, seed=1)


@pytest.mark.parametrize("cv, named", [
    (math.nan, "cv nan"),
    (-0.2, "cv -0.2"),
    (math.inf, "cv inf"),
], ids=["nan", "negative", "inf"])
def test_sampler_refuses_a_cv_that_is_not_a_finite_number_at_least_0(tmp_path, capsys, cv,
                                                                     named):
    from ccvsp.cli import main
    from ccvsp.core import save_instance

    inst = generate_instance(GenParams(n_trips=6, n_depots=1, seed=1))
    # 0 is valid: every sampled time is its mean
    zero = sample_scenarios(inst, 2, seed=1, cv=0.0)
    assert (zero.dur == [t.mean_dur for t in inst.trips]).all()
    message = f"{named} is not a finite number >= 0"
    with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
        sample_scenarios(inst, 2, seed=1, cv=cv)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    capsys.readouterr()
    argv = ["sample", "--instance", str(path), "--scenarios", "2", "-o", str(tmp_path / "s.npz")]
    assert main(argv + ["--cv", str(cv)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "s.npz").exists()


@pytest.mark.parametrize("generator_params", [[1], {"lognormal_cv": "abc"},
                                              {"lognormal_cv": 0.5}])
def test_sampling_cv_does_not_come_from_the_instance_meta(tmp_path, generator_params):
    """The recorded ``lognormal_cv`` is provenance: whatever the instance's
    ``meta.generator_params`` holds, the API and ``ccvsp sample`` draw the
    tables of cv 0.2."""
    from ccvsp.cli import main
    from ccvsp.core import load_instance, save_instance

    inst = generate_instance(GenParams(n_trips=6, n_depots=1, seed=1))
    want = sample_scenarios(inst, 3, seed=5, cv=0.2)
    inst.meta["generator_params"] = generator_params
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    out = tmp_path / "s.npz"
    assert main(["sample", "--instance", str(path), "--scenarios", "3", "--seed", "5",
                 "-o", str(out)]) == 0
    for got in (sample_scenarios(inst, 3, seed=5), sample_scenarios(load_instance(path), 3, seed=5),
                load_scenarios(out)):
        for name in scenarios.SCENARIO_TABLES:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("q", [0, -5, 100.5, math.inf, math.nan])
def test_percentile_refuses_q_outside_0_to_100(q):
    inst = generate_instance(GenParams(n_trips=6, n_depots=1, seed=1))
    scen = sample_scenarios(inst, 4, seed=1)
    with pytest.raises(ValidationError, match=re.escape("percentile must lie in (0, 100]") + "$"):
        percentile_times(scen, q)


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
    d75, *_ = percentile_times(scen, 75)
    assert d75[0] == 75
    d100, *_ = percentile_times(scen, 100)
    assert d100[0] == 100
    same = ScenarioSet(np.full((2, 1), 7, dtype=np.int64), np.zeros((2, 1, 1), dtype=np.int64),
                       np.zeros((2, 1, 1), dtype=np.int64), np.zeros((2, 1, 1), dtype=np.int64))
    d50, *_ = percentile_times(same, 50)
    assert d50[0] == 7


def test_compat_monotone_in_estimates():
    inst = generate_instance(GenParams(n_trips=25, n_depots=2, seed=11))
    scen = sample_scenarios(inst, 40, seed=2)
    d100, t100, *_ = percentile_times(scen, 100)
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


def _fits(top: int):
    """The narrowest of uint8, int16, int32 and int64 that holds ``top``."""
    return next(t for t in (np.uint8, np.int16, np.int32, np.int64)
                if top <= np.iinfo(t).max)


def _rule_types(dur, travel, out_t, in_t) -> list:
    """The types a ``ScenarioSet`` gives its tables: each holds its largest
    value, and ``dur`` its largest value plus the largest deadhead."""
    top = [int(np.max(t, initial=0)) for t in (dur, travel, out_t, in_t)]
    return [_fits(top[0] + top[1])] + [_fits(t) for t in top[1:]]


def _types(scen) -> list:
    return [getattr(scen, n).dtype for n in scenarios.SCENARIO_TABLES]


def _digest(*tables) -> str:
    """SHA-256 over the shapes and the int64 little-endian bytes of the tables."""
    h = hashlib.sha256()
    for t in tables:
        t = np.asarray(t)
        h.update(repr(t.shape).encode())
        h.update(np.ascontiguousarray(t, dtype="<i8").tobytes())
    return h.hexdigest()


_LAGR = dict(n_depots=2, trips_per_route=12, grid_width=80, grid_height=80,
             headway_buffer=(0, 4))
# key: (generator parameters, scenarios, scenario seed, digest of the instance's
# six time and cost tables, digest of the four scenario tables). The digests
# were recorded with the one-call-per-table sampler and the scalar-distance
# generator that came before the block-wise ones; the inputs are the benchmark's
# training sets, its 3,000-scenario evaluation set for run seed 41, the
# Lagrangian cases and one single-scenario set.
GOLDEN = {
    "bnc/I20-S50": (dict(n_trips=20, n_depots=2, seed=1), 50, 2,
                    "8540c3f1b1c33e2a914d7962ebee8b4c263817d28ea9fcc4edd74f375f9deccb",
                    "89516ed6cc3057172dca340c55a4d58000ad60813dc29f562e9018221c41515e"),
    "bnc/I24-S50": (dict(n_trips=24, n_depots=2, seed=2), 50, 3,
                    "14490fa0c64308cd1fe7a00b693c56063860eb7de9dd6fd295c535192def1828",
                    "794de48f5e0133021f7f9ee726cd6b3e5ce5f9e0a952fc3c2168b7faa03ad915"),
    "bnc/I30-S80": (dict(n_trips=30, n_depots=2, seed=2), 80, 3,
                    "0343d7efad17df4e39053f6a6f2fa5e34c03dc9d6dc6c3a1e9ccaf4d5c9ce212",
                    "bdbba50370f620a5805c8b17c576fec0ce026e27f22847a371b423b9d08a9cca"),
    "bnc/I20-S300": (dict(n_trips=20, n_depots=2, seed=1), 300, 2,
                     "8540c3f1b1c33e2a914d7962ebee8b4c263817d28ea9fcc4edd74f375f9deccb",
                     "2990f45836d848524f8ec11590e621bce7974169861bd13e8684f7dc7f6da3d6"),
    "oos/train": (dict(n_trips=50, n_depots=2, seed=7), 200, 8,
                  "7693a499aac324c85378a2673d505c449671807c4b7a55df8ef5d1bd535b9256",
                  "a759e692dd1930cdcb8acce4b6d1a69abf347fc70184bca0e0bf740d2b9d11f6"),
    "oos/eval": (dict(n_trips=50, n_depots=2, seed=7), 3000, 3566257030,
                 "7693a499aac324c85378a2673d505c449671807c4b7a55df8ef5d1bd535b9256",
                 "1136740eed0815506a2eeccb7319d76093c6cffe65da3126fda8807f75e369df"),
    "lagr/g22": (dict(n_trips=24, seed=22, **_LAGR), 20, 303,
                 "6752d971c85ba4dc66c3d5d760b35e9af0cbbb72e2e226c02fed752c6ca997e3",
                 "6d397b2949f648e98cc0dec16d1642fbcf18d5f5072e15c527dbc72f9c8c2cc4"),
    "lagr/g24": (dict(n_trips=24, seed=24, **_LAGR), 20, 303,
                 "f3d9bbb9754ae8d7fab27d6fc413d61868860d57320971ee6fb36deb613c1329",
                 "1dd87b7f38fda25b0c8bdb9ae4fa7c1f4cb5f6369ac9420fc5eb2a1fc305f6dd"),
    "lagr/g25": (dict(n_trips=24, seed=25, **_LAGR), 20, 303,
                 "04538c1fe7c87461da03c07e6909004050d068f69274cae81cac079389cbb569",
                 "66477299a9c80c122b0808f984746ea53fd3389c77fa8dd1e7237bbeed340cfe"),
    "single": (dict(n_trips=10, n_depots=2, trips_per_route=5, seed=17), 1, 1,
               "e7c88fb4f8e35d4aa78395015df9354eabe5eb275f85e85f33ccc86014cf003c",
               "88ae7c7962966209cc7c7619a9c3d4e34e9b20a7e731afc01658d4c6375dbd9e"),
}


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_generated_tables_match_their_recorded_digests(key):
    gen, n_scen, seed, inst_digest, scen_digest = GOLDEN[key]
    inst = generate_instance(GenParams(**gen))
    assert _digest(inst.dh_time, inst.out_time, inst.in_time,
                   inst.cost, inst.out_cost, inst.in_cost) == inst_digest
    scen = sample_scenarios(inst, n_scen, seed=seed)
    # every generated deadhead fits in 8 bits; dur holds the longest leg
    assert _types(scen)[1:] == [np.uint8] * 3
    leg = int(scen.dur.max()) + int(scen.travel.max())
    assert scen.dur.dtype == (np.uint8 if leg <= 255 else np.int16)
    assert _digest(scen.dur, scen.travel, scen.out_t, scen.in_t) == scen_digest


def _with_long_trip(inst, trip, mean_dur):
    """``inst`` with trip ``trip``'s mean duration set to ``mean_dur``."""
    trips = list(inst.trips)
    trips[trip - 1] = dataclasses.replace(trips[trip - 1], mean_dur=mean_dur)
    return Instance(trips, inst.depots, inst.dh_time, inst.out_time,
                    inst.in_time, inst.cost, inst.out_cost, inst.in_cost,
                    build_compat(trips, inst.dh_time), inst.meta)


def _with_long_deadhead(inst, i, j, mean):
    """``inst`` with the mean deadhead from trip ``i`` to trip ``j`` set to ``mean``."""
    dh = inst.dh_time.copy()
    dh[i - 1, j - 1] = mean
    return Instance(inst.trips, inst.depots, dh, inst.out_time,
                    inst.in_time, inst.cost, inst.out_cost, inst.in_cost,
                    build_compat(inst.trips, dh), inst.meta)


@pytest.mark.parametrize("block_bytes", [8, 3000, 2 << 20])
def test_block_sampler_equals_one_call_per_table(monkeypatch, block_bytes):
    # blocks of one scenario, of a few with a short last block, and of all.
    # In the second instance trip 6's durations pass 32767 first in scenario
    # 4, so the dur table is widened to int32 after blocks were written; in
    # the third the deadhead 5 -> 3 passes 255 first in scenario 3, so the
    # travel table is widened from uint8 to int16 after blocks were written,
    # and dur (at most 106 minutes) to int16 by the leg rule
    inst = generate_instance(GenParams(n_trips=12, n_depots=3, trips_per_route=4, seed=4))
    monkeypatch.setattr(scenarios, "SAMPLE_BLOCK_BYTES", block_bytes)
    u8, i16, i32 = np.uint8, np.int16, np.int32
    long_trip, long_dh = _with_long_trip(inst, 6, 28_000), _with_long_deadhead(inst, 5, 3, 220)
    for case, types in ((inst, [u8, u8, u8, u8]), (long_trip, [i32, u8, u8, u8]),
                        (long_dh, [i16, i16, u8, u8])):
        scen = sample_scenarios(case, 7, seed=11, cv=0.3)
        assert _types(scen) == types
        for s in range(7):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=11, spawn_key=(s,)))
            for name, means in (("dur", [t.mean_dur for t in case.trips]),
                                ("travel", case.dh_time), ("out_t", case.out_time),
                                ("in_t", case.in_time)):
                assert np.array_equal(getattr(scen, name)[s],
                                      _lognormal_rounded(rng, means, 0.3)), (s, name)
        if case is long_trip:
            assert scen.dur[:4].max() <= 32767 < scen.dur[4].max()
        if case is long_dh:
            assert scen.travel[:3].max() <= 255 < scen.travel[3].max()
            assert scen.dur.max() <= 106


def test_sampler_refuses_times_beyond_int32():
    inst = Instance([Trip(1, 1, (0, 0), (0, 0), 0, 2**40, 0)], [Depot(1, (0, 0), 1)],
                    np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)),
                    np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)), [])
    with pytest.raises(ValidationError, match="2\\*\\*31"):
        sample_scenarios(inst, 2, seed=0)


def _tables(S=2, I=3, K=2, dtype=np.int64):
    return dict(dur=np.full((S, I), 5, dtype=dtype), travel=np.zeros((S, I, I), dtype=dtype),
                out_t=np.ones((S, K, I), dtype=dtype), in_t=np.ones((S, I, K), dtype=dtype))


@pytest.mark.parametrize("name", scenarios.SCENARIO_TABLES)
def test_scenario_set_refuses_float_large_and_negative_tables(name):
    tables = _tables()
    scen = ScenarioSet(**tables)
    assert _types(scen) == [np.uint8] * 4
    for bad, match in ((tables[name].astype(float), "dtype float64"),
                       (tables[name].astype(bool), "dtype bool"),
                       (tables[name] + 2**31, "times of 2\\*\\*31 or more"),
                       (tables[name] - 10, "negative times")):
        with pytest.raises(ValidationError, match=f"scenario table {name} has {match}"):
            ScenarioSet(**{**tables, name: bad})
    # the largest int32 value and unsigned tables are accepted; a deadhead of
    # 2**31 - 1 makes the legs pass it, so dur (at most 5) becomes int64
    edge = ScenarioSet(**{**tables, name: (tables[name] * 0 + 2**31 - 1).astype(np.uint64)})
    assert getattr(edge, name).dtype == np.int32 and (getattr(edge, name) == 2**31 - 1).all()
    assert edge.dur.dtype == (np.int64 if name == "travel" else
                              np.int32 if name == "dur" else np.uint8)


def test_load_scenarios_names_a_file_that_lacks_a_table(tmp_path):
    inst = generate_instance(GenParams(n_trips=6, n_depots=2, trips_per_route=3, seed=1))
    scen = sample_scenarios(inst, 3, seed=2)
    path = tmp_path / "scen.npz"
    np.savez(path, dur=scen.dur, travel=scen.travel, in_t=scen.in_t, rng_seed=np.array([2]))
    with pytest.raises(ValidationError,
                       match=re.escape(f"{path} lacks the scenario tables ['out_t']") + "$"):
        load_scenarios(path)


@pytest.mark.parametrize("content", ["text", "one array", "broken zip"])
def test_load_scenarios_names_a_file_that_is_not_an_npz(tmp_path, content):
    path = tmp_path / "scen.npz"
    if content == "text":
        path.write_text("dur,travel\n1,2\n")
    elif content == "one array":
        with open(path, "wb") as fh:
            np.save(fh, np.arange(3))
    else:
        path.write_bytes(b"PK\x03\x04 not a zip archive")
    with pytest.raises(ValidationError, match="^" + re.escape(f"{path} is not a scenario file")):
        load_scenarios(path)


def test_int64_and_int32_scenario_files_load_narrowed():
    inst = generate_instance(GenParams(n_trips=10, n_depots=2, trips_per_route=5, seed=17))
    scen = sample_scenarios(inst, 6, seed=4)
    # the layouts of files written when the tables were int64, then int32,
    # then int16
    assert _types(scen) == [np.int16, np.uint8, np.uint8, np.uint8]
    for dtype in (np.int64, np.int32, np.int16):
        buf = io.BytesIO()
        np.savez_compressed(buf, **{n: getattr(scen, n).astype(dtype)
                                    for n in scenarios.SCENARIO_TABLES},
                            rng_seed=np.array([scen.rng_seed]))
        buf.seek(0)
        loaded = load_scenarios(buf)
        for name in scenarios.SCENARIO_TABLES:
            a, b = getattr(scen, name), getattr(loaded, name)
            assert b.dtype == a.dtype and np.array_equal(a, b), (dtype, name)
        assert loaded.rng_seed == 4


def _legs_exact(scen) -> bool:
    """Whether every leg ``dur + travel``, summed in the tables' own types,
    equals its int64 sum."""
    legs = scen.dur[:, :, None] + scen.travel
    return np.array_equal(legs, scen.dur.astype(np.int64)[:, :, None] + scen.travel)


def _check_table_types(top, dtype):
    """Set each table's largest value to ``top``: the table takes ``dtype``,
    dur the type of its largest leg, and restriction, percentiles and a file
    round trip keep the values and the types."""
    inst = generate_instance(GenParams(n_trips=6, n_depots=2, trips_per_route=3, seed=1))
    base = sample_scenarios(inst, 5, seed=2)
    tables = {n: getattr(base, n) for n in scenarios.SCENARIO_TABLES}
    assert _types(base) == [np.int16, np.uint8, np.uint8, np.uint8]
    travel_top = int(base.travel.max())
    for name in scenarios.SCENARIO_TABLES:
        edited = tables[name].astype(np.int64)
        edited.reshape(5, -1)[:, -1] = top
        given = {**tables, name: edited}
        scen = ScenarioSet(**given)
        want = _fits(top + travel_top) if name == "dur" else dtype
        assert getattr(scen, name).dtype == want, name
        assert _types(scen) == _rule_types(*given.values()), name
        assert np.array_equal(getattr(scen, name), edited), name
        assert _legs_exact(scen), name
        buf = io.BytesIO()
        save_scenarios(scen, buf)
        buf.seek(0)
        loaded = load_scenarios(buf)
        assert _types(loaded) == _types(scen), name
        assert np.array_equal(getattr(loaded, name), edited), name
    scen = ScenarioSet(**{**tables, "dur": np.full(base.dur.shape, top),
                          "travel": np.full(base.travel.shape, top)})
    assert scen.dur.dtype == _fits(2 * top) and scen.travel.dtype == dtype and _legs_exact(scen)
    dur, travel = percentile_times(scen, 50)
    assert (dur.dtype, travel.dtype) == (scen.dur.dtype, dtype)
    assert (dur == top).all() and (travel == top).all()
    _, sub = restrict(inst, scen, [2, 4, 5])
    assert _types(sub) == _types(scen) and (sub.dur == top).all() and _legs_exact(sub)
    # a restriction that drops every wide entry takes the types of what it keeps
    wide_first = np.where(np.arange(6) == 0, top, base.dur.astype(np.int64))
    _, kept = restrict(inst, ScenarioSet(**{**tables, "dur": wide_first}), [2, 3])
    assert _types(kept) == _rule_types(kept.dur, kept.travel, kept.out_t, kept.in_t)


@pytest.mark.parametrize("top, dtype", [(255, np.uint8), (256, np.int16)])
def test_tables_are_uint8_up_to_255_and_int16_above(top, dtype):
    _check_table_types(top, dtype)


@pytest.mark.parametrize("top, dtype", [(32767, np.int16), (32768, np.int32)])
def test_tables_are_int16_up_to_32767_and_int32_above(top, dtype):
    _check_table_types(top, dtype)


@pytest.mark.parametrize("dur_top, travel_top, dtype", [
    (200, 55, np.uint8), (200, 56, np.int16), (255, 0, np.uint8), (0, 256, np.int16),
    (32000, 767, np.int16), (32000, 768, np.int32), (32767, 0, np.int16),
    (2**31 - 2, 1, np.int32), (2**31 - 1, 1, np.int64), (2**31 - 1, 2**31 - 1, np.int64)])
def test_dur_holds_its_largest_value_plus_the_largest_deadhead(dur_top, travel_top, dtype):
    """A uint8 dur whose largest value plus the largest deadhead passes 255
    widens, and so on at each width: every leg summed in the tables' own
    types equals its int64 sum."""
    S, I = 3, 4
    dur = np.full((S, I), dur_top // 2, dtype=np.int64)
    travel = np.zeros((S, I, I), dtype=np.int64)
    dur[1, 2] = dur_top
    travel[2, 0, 3] = travel_top           # the largest of each in different cells
    # each given in its own narrowest type, as the sampler and files give them
    scen = ScenarioSet(dur.astype(_fits(dur_top)), travel.astype(_fits(travel_top)),
                       np.ones((S, 1, I), dtype=np.uint8), np.ones((S, I, 1), dtype=np.uint8))
    assert scen.dur.dtype == dtype and scen.travel.dtype == _fits(travel_top)
    assert _legs_exact(scen)
    assert np.array_equal(scen.dur, dur) and np.array_equal(scen.travel, travel)


def test_two_trips_at_20000_minutes_sum_without_wrapping():
    """Every time 20,000: an int16 leg would wrap to -25,536."""
    scen = ScenarioSet(*(np.full(shape, 20_000) for shape in
                         ((2, 2), (2, 2, 2), (2, 1, 2), (2, 2, 1))))
    assert _types(scen) == [np.int32, np.int16, np.int16, np.int16]
    assert ((scen.dur[:, :, None] + scen.travel) == 40_000).all()


def test_vector_distance_equals_the_scalar_one():
    off = np.arange(-200, 201)
    dx, dy = np.meshgrid(off, off, indexing="ij")
    vec = np.rint(np.hypot(dx.astype(float), dy.astype(float))).astype(np.int64)
    scalar = np.array([[int(round(math.hypot(x, y))) for y in off.tolist()] for x in off.tolist()])
    assert np.array_equal(vec, scalar)


@pytest.mark.parametrize("seed", [0, 5])
def test_generated_tables_are_the_scalar_distances(seed):
    p = GenParams(n_trips=23, n_depots=3, trips_per_route=6, seed=seed)
    inst = generate_instance(p)
    for a, ti in enumerate(inst.trips):
        for b, tj in enumerate(inst.trips):
            d = 0 if a == b else _dist(ti.end_loc, tj.start_loc)
            assert inst.dh_time[a, b] == d and inst.cost[a, b] == d, (a, b)
        for k, dep in enumerate(inst.depots):
            assert inst.out_time[k, a] == _dist(dep.loc, ti.start_loc)
            assert inst.out_cost[k, a] == _dist(dep.loc, ti.start_loc) + p.deploy_cost
            assert inst.in_time[a, k] == inst.in_cost[a, k] == _dist(ti.end_loc, dep.loc)
    for name in ("dh_time", "out_time", "in_time", "cost", "out_cost", "in_cost"):
        assert getattr(inst, name).dtype == np.int64, name


def test_successors_and_predecessors_are_the_sorted_compatible_pairs():
    inst = generate_instance(GenParams(n_trips=30, n_depots=2, seed=3))
    for i in range(1, inst.n_trips + 1):
        assert inst.succ[i] == sorted(j for (a, j) in inst.compat if a == i)
        assert inst.pred[i] == sorted(a for (a, j) in inst.compat if j == i)
