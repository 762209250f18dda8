"""Shared helpers: small random instances, random schedules, brute-force oracles."""

import itertools

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from ccvsp.core import Bus, Depot, Instance, Schedule, ServiceParams, Trip, cc_threshold, schedule_cost
from ccvsp.lagrangian import restrict
from ccvsp.milp import MilpModel
from ccvsp.scenarios import ScenarioSet
from ccvsp.subproblem import greedy_evaluate

# property tests draw the same examples on every run and keep no example store
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def unsolved_copy(model):
    """The same columns and rows in a model that has never been solved."""
    fresh = MilpModel()
    for args in zip(model.lb, model.ub, model.obj, model.is_int):
        fresh.add_var(*args)
    for row in model.rows:
        fresh.add_constr(*row)
    return fresh


def random_instance(rng, n_trips=6, n_depots=2, n_routes=2, span=30, horizon=400,
                    deploy_cost=20):
    """Small random instance with integer times; starts stay well above lb."""
    trips = []
    for i in range(1, n_trips + 1):
        r = (i - 1) % n_routes
        start = int(rng.integers(50, horizon))
        dur = int(rng.integers(5, span))
        express = int(rng.integers(0, max(1, dur // 10) + 1))
        loc = (int(rng.integers(0, 20)), int(rng.integers(0, 20)))
        loc2 = (int(rng.integers(0, 20)), int(rng.integers(0, 20)))
        trips.append(Trip(i, r + 1, loc, loc2, start, dur, express))
    trips.sort(key=lambda t: t.start)
    trips = [Trip(i, t.route_id, t.start_loc, t.end_loc, t.start, t.mean_dur, t.max_express)
             for i, t in enumerate(trips, start=1)]
    I, K = n_trips, n_depots
    dh = rng.integers(0, 12, size=(I, I)).astype(np.int64)
    np.fill_diagonal(dh, 0)
    cost = rng.integers(0, 15, size=(I, I)).astype(np.int64)
    out_t = rng.integers(0, 10, size=(K, I)).astype(np.int64)
    in_t = rng.integers(0, 10, size=(I, K)).astype(np.int64)
    out_c = (rng.integers(0, 10, size=(K, I)) + deploy_cost).astype(np.int64)
    in_c = rng.integers(0, 10, size=(I, K)).astype(np.int64)
    compat = {(i.id, j.id) for i in trips for j in trips
              if i.id != j.id and i.start + i.mean_dur + dh[i.id - 1, j.id - 1] <= j.start}
    depots = [Depot(k, (0, 0), capacity=max(1, (I + 1) // K)) for k in range(1, K + 1)]
    return Instance(trips, depots, dh, out_t, in_t, cost, out_c, in_c, compat)


def random_scenarios(rng, inst, n_scenarios, spread=6):
    """Scenario times jittered upward from the means (never negative)."""
    I, K = inst.n_trips, inst.n_depots
    S = n_scenarios
    base_d = np.array([t.mean_dur for t in inst.trips], dtype=np.int64)
    dur = base_d + rng.integers(0, spread, size=(S, I))
    travel = inst.dh_time + rng.integers(0, spread, size=(S, I, I))
    out_t = inst.out_time + rng.integers(0, 2, size=(S, K, I))
    in_t = inst.in_time + rng.integers(0, 2, size=(S, I, K))
    return ScenarioSet(dur.astype(np.int64), travel.astype(np.int64),
                       out_t.astype(np.int64), in_t.astype(np.int64))


def random_schedule(rng, inst, allow_capacity_violation=False):
    """Random feasible schedule: greedy chain assembly over shuffled trips."""
    order = sorted(range(1, inst.n_trips + 1), key=lambda i: (inst.trips[i - 1].start, i))
    buses: list[list[int]] = []
    for i in order:
        options = [b for b in buses if (b[-1], i) in inst.compat]
        if options and rng.random() < 0.7:
            options[int(rng.integers(0, len(options)))].append(i)
        else:
            buses.append([i])
    counts = {k: 0 for k in range(1, inst.n_depots + 1)}
    out = []
    for b in buses:
        ks = sorted(counts, key=lambda k: (counts[k], k))
        k = ks[int(rng.integers(0, len(ks)))] if allow_capacity_violation else next(
            k for k in ks if counts[k] < inst.depot(k).capacity)
        counts[k] += 1
        out.append(Bus(k, tuple(b)))
    return Schedule(tuple(out))


def enumerate_schedules(inst):
    """All feasible schedules (sequences x depot assignments) of a tiny instance."""
    n = inst.n_trips
    order = sorted(range(1, n + 1), key=lambda i: (inst.trips[i - 1].start, i))

    partitions = []

    def extend(idx, chains):
        if idx == len(order):
            partitions.append([tuple(c) for c in chains])
            return
        i = order[idx]
        for c in chains:
            if (c[-1], i) in inst.compat:
                c.append(i)
                extend(idx + 1, chains)
                c.pop()
        chains.append([i])
        extend(idx + 1, chains)
        chains.pop()

    extend(0, [])
    K = inst.n_depots
    caps = [inst.depot(k).capacity for k in range(1, K + 1)]
    for chains in partitions:
        for assign in itertools.product(range(1, K + 1), repeat=len(chains)):
            used = [0] * K
            ok = True
            for k in assign:
                used[k - 1] += 1
                if used[k - 1] > caps[k - 1]:
                    ok = False
                    break
            if ok:
                yield Schedule(tuple(Bus(k, c) for k, c in zip(assign, chains)))


def brute_force_cc_optimum(inst, params, scen):
    """Exhaustive SAA optimum: cheapest schedule violating at most floor(S*eps)."""
    budget = cc_threshold(scen.count, params.epsilon)
    best = None
    for sched in enumerate_schedules(inst):
        bad = sum(greedy_evaluate(inst, params, sched, scen, s).z_star
                  for s in range(scen.count))
        if bad <= budget:
            c = schedule_cost(inst, sched)
            if best is None or c < best:
                best = c
    return best


def joint_optimum(inst, params, scen, groups):
    """Brute force the linked two-group model: the cheapest pair of group
    schedules whose indicators (the first group's dominating the second's)
    each stay within the budget; None when no pair does."""
    budget = cc_threshold(scen.count, params.epsilon)
    opts = []
    for sub_inst, sub_scen in (restrict(inst, scen, g) for g in groups):
        pp = params.scaled_to(sub_inst)
        opts.append([
            (schedule_cost(sub_inst, sched),
             np.array([greedy_evaluate(sub_inst, pp, sched, sub_scen, s).z_star
                       for s in range(scen.count)]))
            for sched in enumerate_schedules(sub_inst)])
    best = None
    for c1, v1 in opts[0]:
        for c2, v2 in opts[1]:
            z1 = np.maximum(v1, v2)
            if z1.sum() <= budget and v2.sum() <= budget:
                c = c1 + c2
                best = c if best is None else min(best, c)
    return best


@st.composite
def random_cases(draw):
    """(inst, params, scen, sched) from the helpers above, on a drawn seed and
    sizes; tight windows and high service rates make late pairs and broken
    scenarios common. Some cases drop every compatible pair, so code that
    indexes by pairs meets empty arrays."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_trips = draw(st.integers(3, 9))
    inst = random_instance(rng, n_trips=n_trips, n_routes=draw(st.integers(1, min(3, n_trips))),
                           horizon=draw(st.integers(80, 400)))
    if draw(st.integers(0, 4)) == 4:
        inst = Instance(inst.trips, inst.depots, inst.dh_time, inst.out_time,
                        inst.in_time, inst.cost, inst.out_cost, inst.in_cost, compat=[])
    params = ServiceParams.for_instance(
        inst, lb=draw(st.integers(0, 3)), ub=draw(st.integers(0, 5)),
        delta_trip=draw(st.sampled_from([0.6, 0.8, 0.9, 1.0])),
        delta_route=draw(st.sampled_from([0.5, 0.8, 1.0])), epsilon=0.2)
    scen = random_scenarios(rng, inst, draw(st.integers(1, 6)),
                            spread=draw(st.integers(1, 30)))
    return inst, params, scen, random_schedule(rng, inst)
