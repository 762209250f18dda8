"""Cut construction: golden traces, minimality, extensions, certificates."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import PROPERTY, random_cases, random_instance, random_scenarios, random_schedule

from ccvsp import bnc, cuts, gallery
from ccvsp.bnc import BnCConfig, cut_generation_routine
from ccvsp.core import Bus, Schedule, ServiceParams
from ccvsp.cuts import (
    CUT_KINDS,
    STRONG_NO_GOOD,
    ValidInequality,
    build_cmis,
    cmis_cut,
    dual_certificate,
    extend_cmis,
    is_infeasible_set,
    mis_cut,
    mis_deletion_filter,
    no_good_cut,
    operational_compat,
    pairs_to_paths,
    select_delay_core,
    strong_no_good_cut,
    valid_inequalities,
)
from ccvsp.subproblem import TRIP_LEVEL, Requirement, evaluate_scenarios, greedy_evaluate


@pytest.fixture(scope="module")
def chain():
    inst, params, sched, scen = gallery.delay_chain()
    g = greedy_evaluate(inst, params, sched, scen, 0)
    return inst, params, sched, scen, g


def test_delay_core_on_chain(chain):
    inst, params, sched, scen, g = chain
    core = select_delay_core(inst, params, sched, g, TRIP_LEVEL)
    assert core == {4, 6}


def test_golden_backtracking_trace(chain):
    inst, params, sched, scen, g = chain
    ctx = build_cmis(inst, params, sched, scen, 0, g, TRIP_LEVEL)
    assert [t for (_, t) in ctx.trace] == [96, 73, 59, 0]
    assert [i for (i, _) in ctx.trace] == [6, 5, 4, 3]
    assert ctx.pairs == {(3, 4), (4, 5), (5, 6)}


def test_chain_cut_shape(chain):
    inst, params, sched, scen, g = chain
    ctx = build_cmis(inst, params, sched, scen, 0, g, TRIP_LEVEL)
    cut = cmis_cut(ctx)
    assert cut.rhs_const == 3
    assert cut.pairs == ((3, 4), (4, 5), (5, 6))
    # the generating schedule violates it at z=0 and satisfies it at z=1
    assert cut.violated_by(sched, 0.0)
    assert not cut.violated_by(sched, 1.0)


def test_chain_is_infeasible_and_minimal(chain):
    inst, params, sched, scen, g = chain
    ctx = build_cmis(inst, params, sched, scen, 0, g, TRIP_LEVEL)
    assert is_infeasible_set(inst, params, scen, 0, ctx.pairs)
    assert mis_deletion_filter(inst, params, scen, 0, ctx.pairs) == ctx.pairs
    # dropping any single pair breaks the property
    for p in ctx.pairs:
        rest = set(ctx.pairs) - {p}
        assert not is_infeasible_set(inst, params, scen, 0, rest)


def test_empty_set_is_not_infeasible(chain):
    inst, params, _, scen, _ = chain
    assert not is_infeasible_set(inst, params, scen, 0, set())


def test_single_pair_explanation():
    # predecessor alone forces the delay: one-pair subsequence
    inst, params, sched, scen = gallery.delay_chain()
    dur = scen.dur.copy()
    dur[0, 4] = 40  # leg 5 -> 6 now 40: trip 6 late even if 5 starts at 72
    scen2 = type(scen)(dur, scen.travel, scen.out_t, scen.in_t)
    g = greedy_evaluate(inst, params, sched, scen2, 0)
    assert 6 in g.delayed
    ctx = build_cmis(inst, params, sched, scen2, 0, g, TRIP_LEVEL)
    sub = {p for p in ctx.pairs if p[1] == 6}
    assert sub == {(5, 6)}


def test_operational_compat_boundary(chain):
    inst, params, _, scen, _ = chain
    cs = operational_compat(inst, params, scen, 0)
    # (1,2): 7-1+18-0 = 24 <= 24+3 -> inside (closed inequality)
    assert (1, 2) in cs
    # (3,4): 39-1+21 = 59 > 55+3 -> forces a delay
    assert (3, 4) not in cs


def test_incompat_sequenced_pair_delays_successor():
    rng = np.random.default_rng(2)
    hits = 0
    for _ in range(30):
        inst = random_instance(rng)
        params = ServiceParams.for_instance(inst, lb=1, ub=2, delta_trip=0.9,
                                            delta_route=0.5, epsilon=0.3)
        scen = random_scenarios(rng, inst, 2)
        sched = random_schedule(rng, inst)
        for s in range(2):
            cs = operational_compat(inst, params, scen, s)
            g = greedy_evaluate(inst, params, sched, scen, s)
            for bus in sched.buses:
                for j, i in zip(bus.trips, bus.trips[1:]):
                    if (j, i) not in cs and j not in g.delayed \
                            and g.y_star[j - 1] == inst.trips[j - 1].start - params.lb:
                        assert i in g.delayed
                        hits += 1
    assert hits > 0


def test_chain_inequality_vacuous_and_dropped(chain):
    # the chain scenario has exactly one late pair and one allowed delay,
    # so its fleet-wide inequality can never bind
    inst, params, _, scen, _ = chain
    vis = valid_inequalities(inst, params, scen)
    assert [v for v in vis if v.scope is None] == []


def test_valid_inequality_theta_values():
    rng = np.random.default_rng(40)
    found = False
    for _ in range(20):
        inst = random_instance(rng, n_trips=7, n_routes=2)
        params = ServiceParams.for_instance(inst, lb=1, ub=1, delta_trip=0.9,
                                            delta_route=0.8, epsilon=0.3)
        scen = random_scenarios(rng, inst, 2, spread=14)
        for vi in valid_inequalities(inst, params, scen):
            if vi.scope is None:
                assert vi.theta1 == inst.n_trips - params.f_trip
            else:
                members = inst.routes[vi.scope - 1]
                assert vi.theta1 == len(members) - params.f_route[vi.scope - 1]
                assert {j for (_, j) in vi.pairs} <= set(members)
            assert vi.theta0 == len({j for (_, j) in vi.pairs})
            assert vi.theta1 < vi.theta0
            found = True
    assert found


def test_valid_inequality_never_cuts_feasible_point():
    # route of three trips, half on time required: two delays are allowed,
    # so two sequenced late pairs must not force the indicator
    rng = np.random.default_rng(707)
    from conftest import enumerate_schedules

    inst = random_instance(rng, n_trips=5, n_depots=1, n_routes=1)
    params = ServiceParams.for_instance(inst, lb=1, ub=1, delta_trip=0.5,
                                        delta_route=0.5, epsilon=0.4)
    scen = random_scenarios(rng, inst, 3, spread=14)
    vis = valid_inequalities(inst, params, scen)
    for sched in enumerate_schedules(inst):
        for vi in vis:
            z = greedy_evaluate(inst, params, sched, scen, vi.s).z_star
            assert vi.satisfied_by(sched, z), (vi, sched)


def per_scenario_valid_inequalities(inst, params, scen):
    """The inequalities built one scenario at a time from operational_compat."""
    out = []
    for s in range(scen.count):
        c_s = operational_compat(inst, params, scen, s)
        late = {(i, j) for (i, j) in inst.compat if (i, j) not in c_s}
        if late:
            i_s = len({j for (_, j) in late})
            allowed = inst.n_trips - params.f_trip
            if allowed < i_s:
                out.append(ValidInequality(s, frozenset(late), i_s, allowed, None))
        for r, members in enumerate(inst.routes, start=1):
            route_late = {(i, j) for (i, j) in late if j in set(members)}
            if route_late:
                i_rs = len({j for (_, j) in route_late})
                allowed = len(members) - params.f_route[r - 1]
                if allowed < i_rs:
                    out.append(ValidInequality(s, frozenset(route_late), i_rs, allowed, r))
    return out


@PROPERTY
@given(random_cases())
def test_valid_inequalities_match_per_scenario_construction(case):
    inst, params, scen, _ = case
    assert valid_inequalities(inst, params, scen) == \
        per_scenario_valid_inequalities(inst, params, scen)


@PROPERTY
@given(random_cases(), st.data())
def test_is_infeasible_set_matches_greedy_on_paths(case, data):
    # any subset of a schedule's sequenced pairs is path-shaped and planning
    # compatible; run alone, its paths are buses whose heads start at s - lb
    inst, params, scen, sched = case
    pairs = sched.sequenced_pairs()
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    chosen = [p for p, k in zip(pairs, keep) if k]
    paths = Schedule(tuple(Bus(1, tuple(path)) for path in pairs_to_paths(chosen)))
    cons = [None, TRIP_LEVEL] + [Requirement(r) for r in range(1, len(inst.routes) + 1)]
    for s in range(scen.count):
        violated = greedy_evaluate(inst, params, paths, scen, s).violated
        for con in cons:
            expected = bool(violated) if con is None else con in violated
            assert is_infeasible_set(inst, params, scen, s, chosen, con) == expected, (s, con)


@PROPERTY
@given(random_cases(), st.integers(0, 2**32 - 1))
def test_generated_cuts_are_valid_on_random_schedules(case, seed):
    # every family's cuts for the case's schedule, with all indicators at 0:
    # each cuts that schedule off at z_s = 0, none cuts off a schedule that
    # meets scenario s, and no schedule violates one at z_s = 1
    inst, params, scen, sched = case
    rng = np.random.default_rng(seed)
    others = [sched] + [random_schedule(rng, inst) for _ in range(30)]
    broken = [evaluate_scenarios(inst, params, other, scen)[0] for other in others]
    for family in CUT_KINDS:
        for cut in cut_generation_routine(inst, params, scen, BnCConfig(cut_family=family),
                                          sched, np.zeros(scen.count), set()):
            assert cut.violated_by(sched, 0.0), cut
            for other, b in zip(others, broken):
                assert not cut.violated_by(other, 1.0), (cut, other)
                assert b[cut.s] or not cut.violated_by(other, 0.0), (cut, other)


def test_valid_inequalities_empty_when_all_compatible():
    inst, params, _, scen = gallery.delay_chain()
    calm = type(scen)(np.minimum(scen.dur, 5), scen.travel, scen.out_t, scen.in_t)
    # all legs tiny: operational compat covers all planning pairs
    assert valid_inequalities(inst, params, calm) == []


def test_strong_no_good_on_grid():
    inst = gallery.two_depot_grid()
    params = gallery.grid_service_params(inst)
    scen = gallery.grid_scenarios()
    left = gallery.grid_schedule_left()
    g = greedy_evaluate(inst, params, left, scen, 0)
    cut = strong_no_good_cut(left, 0, g)
    assert cut.rhs_const == 6
    assert cut.pairs == ((1, 3), (3, 4), (4, 2), (5, 7), (6, 5), (8, 6))
    # any depot reassignment of the same sequences is still cut off
    flipped = Schedule((Bus(2, (1, 3, 4, 2)), Bus(1, (8, 6, 5, 7))))
    assert cut.violated_by(flipped, 0.0)
    plain = no_good_cut(left, 0, g)
    assert plain.violated_by(left, 0.0)
    assert not plain.violated_by(flipped, 0.0)


def test_no_good_requires_violation():
    inst = gallery.two_depot_grid()
    params = gallery.grid_service_params(inst)
    scen = gallery.grid_scenarios()
    right = gallery.grid_schedule_right()
    with pytest.raises(ValueError):
        no_good_cut(right, 0, greedy_evaluate(inst, params, right, scen, 0))


def test_every_builder_requires_violation():
    inst = gallery.two_depot_grid()
    params = gallery.grid_service_params(inst)
    scen = gallery.grid_scenarios()
    right = gallery.grid_schedule_right()
    g = greedy_evaluate(inst, params, right, scen, 0)
    assert not g.violated
    with pytest.raises(ValueError):
        strong_no_good_cut(right, 0, g)
    with pytest.raises(ValueError):
        mis_cut(inst, params, right, scen, 0, g)
    with pytest.raises(ValueError):
        select_delay_core(inst, params, right, g, TRIP_LEVEL)


@pytest.mark.parametrize("family", CUT_KINDS)
def test_cut_round_evaluates_each_scenario_once(family, monkeypatch):
    # greedy evaluations are counted through every binding the cut round and
    # the builders could call; the left grid schedule breaks both scenarios
    inst = gallery.two_depot_grid()
    params = gallery.grid_service_params(inst)
    scen = gallery.grid_scenarios()
    left = gallery.grid_schedule_left()
    calls = []

    def counted(*args):
        calls.append(args[-1])
        return greedy_evaluate(*args)

    monkeypatch.setattr(bnc, "greedy_evaluate", counted)
    monkeypatch.setattr(cuts, "greedy_evaluate", counted)
    cfg, pool = BnCConfig(cut_family=family), set()
    # a fresh pool: every scenario is cut
    got = cut_generation_routine(inst, params, scen, cfg, left, np.zeros(2), pool)
    assert sorted(calls) == sorted({c.s for c in got}) == [0, 1]
    # the same round again: the family's cuts are all in the pool, so the
    # strong no-good backstop fires, except for that family itself
    calls.clear()
    again = cut_generation_routine(inst, params, scen, cfg, left, np.zeros(2), pool)
    assert sorted(calls) == [0, 1]
    if family == STRONG_NO_GOOD:
        assert again == []
    else:
        assert sorted(c.s for c in again) == [0, 1]
        assert {c.kind for c in again} == {STRONG_NO_GOOD}


def test_degenerate_strong_no_good_forces_z():
    # all single-trip buses on time, then shrink the service level to violate
    inst, params, _, scen = gallery.delay_chain()
    singles = Schedule(tuple(Bus(1, (i,)) for i in range(1, 7)))
    dur = scen.dur.copy()
    dur[0] = 200  # every trip overruns wildly, but singles have no pairs
    late = type(scen)(dur, scen.travel, scen.out_t, scen.in_t)
    g = greedy_evaluate(inst, params, singles, late, 0)
    assert g.z_star == 0  # single-trip buses always start on time
    # two two-trip buses in that storm drop below f_trip = 5 on-time trips
    two = Schedule((Bus(1, (1, 2)), Bus(1, (3, 4)), Bus(1, (5,)), Bus(1, (6,))))
    g2 = greedy_evaluate(inst, params, two, late, 0)
    assert g2.z_star == 1
    cut = strong_no_good_cut(two, 0, g2)
    assert cut.rhs_const == 2 and cut.pairs == ((1, 2), (3, 4))


def test_extension_on_chain_with_alternative_head():
    # add trip 0-like feeder: a trip compatible with 4 whose earliest finish
    # still pushes 4 past its window
    inst, params, sched, scen = gallery.delay_chain()
    g = greedy_evaluate(inst, params, sched, scen, 0)
    ctx = build_cmis(inst, params, sched, scen, 0, g, TRIP_LEVEL)
    ext = extend_cmis(inst, params, scen, 0, ctx)
    # trips 1 and 2 appear nowhere in the subsequence; check them as heads:
    # (1,4): 6 + 18 = 24 < 59 no; (2,4): 23 + 15 = 38 < 59 no -> no extras
    assert ext.extra == frozenset()

    # now make trip 1's scenario duration huge so (1,4) explains the delay
    dur = scen.dur.copy()
    dur[0, 0] = 53  # 6 + 53 = 59 >= 59 pushes trip 4 to its threshold
    scen2 = type(scen)(dur, scen.travel, scen.out_t, scen.in_t)
    g2 = greedy_evaluate(inst, params, sched, scen2, 0)
    ctx2 = build_cmis(inst, params, sched, scen2, 0, g2, TRIP_LEVEL)
    if (1, 4) in inst.compat and ctx2.pairs == ctx.pairs:
        ext2 = extend_cmis(inst, params, scen2, 0, ctx2)
        assert (1, 4) in ext2.extra
        cut = cmis_cut(ext2)
        assert cut.rhs_const == len(ctx2.pairs)  # rhs unchanged by extension


def test_extension_keeps_rhs(chain):
    inst, params, sched, scen, g = chain
    ctx = build_cmis(inst, params, sched, scen, 0, g, TRIP_LEVEL)
    ext = extend_cmis(inst, params, scen, 0, ctx)
    assert cmis_cut(ext).rhs_const == cmis_cut(ctx).rhs_const


def test_dual_certificate_on_chain(chain):
    from fractions import Fraction

    inst, params, sched, scen, g = chain
    ctx = build_cmis(inst, params, sched, scen, 0, g, TRIP_LEVEL)
    rep = dual_certificate(inst, params, sched, scen, 0, ctx)
    assert rep.ok, rep.failures
    assert rep.objective == 1
    # weights are reciprocal path starts, which equal the backtracking targets
    assert rep.alpha == {(3, 4): Fraction(1, 59), (4, 5): Fraction(1, 73),
                         (5, 6): Fraction(1, 96)}
    assert rep.cut.key() == cmis_cut(ctx).key()


def test_dual_certificate_single_pair():
    inst, params, sched, scen = gallery.delay_chain()
    dur = scen.dur.copy()
    dur[0, 4] = 40
    scen2 = type(scen)(dur, scen.travel, scen.out_t, scen.in_t)
    g = greedy_evaluate(inst, params, sched, scen2, 0)
    core = select_delay_core(inst, params, sched, g, TRIP_LEVEL)
    ctx = build_cmis(inst, params, sched, scen2, 0, g, TRIP_LEVEL)
    rep = dual_certificate(inst, params, sched, scen2, 0, ctx)
    assert rep.ok, rep.failures
    assert rep.objective == 1


def test_pairs_to_paths_rejects_junctions():
    with pytest.raises(ValueError):
        pairs_to_paths({(1, 2), (3, 2)})
    with pytest.raises(ValueError):
        pairs_to_paths({(1, 2), (2, 3), (3, 1)})


@pytest.mark.parametrize("seed", range(4))
def test_random_cmis_are_minimal_infeasible_sets(seed):
    rng = np.random.default_rng(200 + seed)
    checked = 0
    while checked < 40:
        inst = random_instance(rng, n_trips=int(rng.integers(5, 9)))
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
                assert is_infeasible_set(inst, params, scen, s, ctx.pairs, con)
                assert is_infeasible_set(inst, params, scen, s, ctx.pairs)
                assert mis_deletion_filter(inst, params, scen, s, ctx.pairs, con) == ctx.pairs
                checked += 1


@pytest.mark.parametrize("seed", range(3))
def test_random_dual_certificates(seed):
    rng = np.random.default_rng(300 + seed)
    checked = 0
    while checked < 25:
        inst = random_instance(rng, n_trips=int(rng.integers(5, 9)))
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
            assert rep.ok, rep.failures
            assert rep.objective == 1
            checked += 1
