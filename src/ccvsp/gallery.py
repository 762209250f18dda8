"""Hand-built reference instances used by the test suite and the demos.

``two_depot_grid()`` is an 8-trip, 2-depot instance on a 10x7 grid with
Manhattan deadheads; both of its reference schedules cost exactly 20. Times
are stored doubled so that the one half-integer start time and the
half-minute scenario bumps stay integral; costs are unscaled. The two bundled
scenarios reproduce known delayed-trip sets for the two reference schedules.

``delay_chain()`` is a single-bus chain of six trips whose scenario forces
trips 4 and 6 late; it is the worked example for the infeasible-subsequence
construction and the dual certificate.
"""

from __future__ import annotations

import numpy as np

from .core import Bus, Depot, Instance, Schedule, ServiceParams, Trip, build_compat
from .scenarios import ScenarioSet


def _manhattan(a, b) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def two_depot_grid() -> Instance:
    """8 trips on 4 routes, 2 depots; both reference schedules cost 20."""
    # (route, start_loc, end_loc, 2*s, 2*mean_dur); trip 5 starts at 15.5 min
    spec = [
        (1, (2, 1), (2, 6), 10, 10),
        (1, (2, 6), (2, 1), 46, 10),
        (2, (4, 6), (8, 6), 24, 8),
        (2, (8, 6), (4, 6), 32, 8),
        (3, (3, 2), (3, 5), 31, 6),
        (3, (3, 5), (3, 2), 24, 6),
        (4, (4, 4), (9, 4), 46, 10),
        (4, (9, 4), (4, 4), 4, 10),
    ]
    trips = [Trip(i, r, sl, el, s, d, 0) for i, (r, sl, el, s, d) in enumerate(spec, start=1)]
    depots = [Depot(1, (1, 2), 2), Depot(2, (8, 3), 2)]
    I, K = 8, 2
    dh_time = np.zeros((I, I), dtype=np.int64)
    cost = np.zeros((I, I), dtype=np.int64)
    for a, ti in enumerate(trips):
        for b, tj in enumerate(trips):
            if a != b:
                d = _manhattan(ti.end_loc, tj.start_loc)
                dh_time[a, b] = 2 * d
                cost[a, b] = d
    out_time = np.zeros((K, I), dtype=np.int64)
    in_time = np.zeros((I, K), dtype=np.int64)
    out_cost = np.zeros((K, I), dtype=np.int64)
    in_cost = np.zeros((I, K), dtype=np.int64)
    for k, dep in enumerate(depots):
        for a, t in enumerate(trips):
            out_time[k, a] = 2 * _manhattan(dep.loc, t.start_loc)
            in_time[a, k] = 2 * _manhattan(t.end_loc, dep.loc)
            out_cost[k, a] = _manhattan(dep.loc, t.start_loc) + 2  # deployment cost 2
            in_cost[a, k] = _manhattan(t.end_loc, dep.loc)
    return Instance(trips, depots, dh_time, out_time, in_time,
                    cost, out_cost, in_cost, build_compat(trips, dh_time),
                    meta={"name": "two-depot-grid", "time_scale": 2})


def grid_schedule_left() -> Schedule:
    """Buses (1,3,4,2) from depot 1 and (8,6,5,7) from depot 2."""
    return Schedule((Bus(1, (1, 3, 4, 2)), Bus(2, (8, 6, 5, 7))))


def grid_schedule_right() -> Schedule:
    """Buses (1,6,5,2) from depot 1 and (8,3,4,7) from depot 2."""
    return Schedule((Bus(1, (1, 6, 5, 2)), Bus(2, (8, 3, 4, 7))))


def grid_scenarios() -> ScenarioSet:
    """Two equally likely scenarios with localized half-minute slowdowns.

    Known delayed sets: left schedule {3,4} and {2,4}; right schedule {6} and
    {4}. Scenario 2 additionally slows the (4,2) deadhead, which only the left
    schedule uses.
    """
    inst = two_depot_grid()
    dur = np.tile([t.mean_dur for t in inst.trips], (2, 1))
    dur[0, [0, 1]] += 1            # scenario 1: trips 1 and 2 run long
    dur[1, [2, 3, 6, 7]] += 1      # scenario 2: trips 3, 4, 7, 8 run long
    travel = np.tile(inst.dh_time, (2, 1, 1))
    travel[1, 3, 1] += 1           # scenario 2: deadhead 4 -> 2 runs long
    return ScenarioSet(dur, travel, np.tile(inst.out_time, (2, 1, 1)),
                       np.tile(inst.in_time, (2, 1, 1)), rng_seed=0)


def grid_service_params(inst: Instance | None = None) -> ServiceParams:
    """Exact on-time windows, 7-of-8 trips and 1-of-2 per route on time."""
    inst = inst or two_depot_grid()
    return ServiceParams.for_instance(inst, lb=0, ub=0, delta_trip=0.875,
                                      delta_route=0.5, epsilon=0.5)


def delay_chain() -> tuple[Instance, ServiceParams, Schedule, ScenarioSet]:
    """Single-bus chain of 6 trips whose lone scenario delays trips 4 and 6.

    On-time windows are [6,10], [23,27], [38,42], [54,58], [72,76], [91,95];
    scenario leg times along the chain are 18, 15, 21, 14, 23, so the earliest
    starts come out as 6, 24, 39, 60, 74, 97.
    """
    starts = [7, 24, 39, 55, 73, 92]
    mean_d = [17, 15, 16, 14, 19, 10]
    scen_d = [18, 15, 21, 14, 23, 10]
    trips = [Trip(i, 1, (0, 0), (0, 0), s, d, 0)
             for i, (s, d) in enumerate(zip(starts, mean_d), start=1)]
    I = 6
    zero_ii = np.zeros((I, I), dtype=np.int64)
    zero_ki = np.zeros((1, I), dtype=np.int64)
    zero_ik = np.zeros((I, 1), dtype=np.int64)
    inst = Instance(trips, [Depot(1, (0, 0), 6)],
                    zero_ii, zero_ki, zero_ik, zero_ii.copy(), zero_ki.copy(), zero_ik.copy(),
                    build_compat(trips, zero_ii), meta={"name": "delay-chain"})
    params = ServiceParams.for_instance(inst, lb=1, ub=3, delta_trip=0.84,
                                        delta_route=0.5, epsilon=0.5)
    sched = Schedule((Bus(1, (1, 2, 3, 4, 5, 6)),))
    scen = ScenarioSet(dur=np.array([scen_d]), travel=zero_ii[None], out_t=zero_ki[None],
                       in_t=zero_ik[None])
    return inst, params, sched, scen
