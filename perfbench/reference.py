"""Computations made apart from the program, used to check its outputs.

Nothing here calls the solver, the evaluator or the derived service counts of
``ccvsp``; it reads only the raw instance tables, the sampled scenario arrays
and the schedules the program returns.

- ``replay``: earliest-start replay of a schedule, vectorised over scenarios.
- ``check_schedule``: structural checks (coverage, compatibility, depots).
- ``schedule_cost``: cost recomputed from the instance tables.
- ``highs_optimum``: the scenario reformulation solved by HiGHS.
- ``fingerprint``: a digest of a model's inputs, the key of stored optima.
"""

from __future__ import annotations

import hashlib
import math
import time
from collections import Counter

import numpy as np


def floor_share(n: int, rate: float) -> int:
    """floor(n * rate), robust to binary noise such as 10 * 0.3."""
    return int(math.floor(n * rate + 1e-9))


def requirement_counts(inst, rates) -> tuple[int, list[int]]:
    """(trips that must be on time, per-route minimum) from the service rates."""
    delta_trip, delta_route = rates
    return (floor_share(inst.n_trips, delta_trip),
            [floor_share(len(members), delta_route) for members in inst.routes])


def replay(inst, window, rates, sched, dur, travel) -> np.ndarray:
    """Violated flag per scenario for ``sched`` under the given travel times.

    ``window`` is (lb, ub), ``rates`` is (delta_trip, delta_route); ``dur`` is
    (S, I) and ``travel`` (S, I, I). A bus's first trip starts at s_i - lb and
    every later trip at max(s_i - lb, arrival of the previous trip with its
    full expressing allowance used); a trip is on time when it starts no later
    than s_i + ub.
    """
    lb, ub = window
    start = np.array([t.start for t in inst.trips], dtype=np.int64)
    express = np.array([t.max_express for t in inst.trips], dtype=np.int64)
    n_scen = dur.shape[0]
    on_time = np.ones((n_scen, inst.n_trips), dtype=bool)
    for bus in sched.buses:
        prev = bus.trips[0] - 1
        y = np.full(n_scen, start[prev] - lb, dtype=np.int64)
        for trip in bus.trips[1:]:
            cur = trip - 1
            arrival = y + dur[:, prev] + travel[:, prev, cur] - express[prev]
            y = np.maximum(start[cur] - lb, arrival)
            on_time[:, cur] = y <= start[cur] + ub
            prev = cur
    need_trip, need_route = requirement_counts(inst, rates)
    ok = on_time.sum(axis=1) >= need_trip
    for members, need in zip(inst.routes, need_route):
        ok &= on_time[:, [i - 1 for i in members]].sum(axis=1) >= need
    return ~ok


def violated_count(inst, window, rates, sched, scen) -> int:
    return int(replay(inst, window, rates, sched, scen.dur, scen.travel).sum())


def check_schedule(inst, sched) -> list[str]:
    """Structural faults of a schedule; an empty list means it is sound.

    Each trip must be served exactly once, consecutive trips must be
    compatible under mean times (s_i + d_i + t_ij <= s_j), every bus must
    belong to an existing depot and no depot may host more buses than its
    capacity.
    """
    faults = []
    n = inst.n_trips
    counts = Counter(i for bus in sched.buses for i in bus.trips)
    outside = sorted(i for i in counts if not 1 <= i <= n)
    if outside:
        faults.append(f"trips outside 1..I: {outside}")
    missing = [i for i in range(1, n + 1) if counts[i] == 0]
    twice = [i for i in range(1, n + 1) if counts[i] > 1]
    if missing:
        faults.append(f"trips not served: {missing}")
    if twice:
        faults.append(f"trips served more than once: {twice}")
    per_depot = {}
    for bus in sched.buses:
        if not bus.trips:
            faults.append("empty bus")
            continue
        if not 1 <= bus.depot <= inst.n_depots:
            faults.append(f"unknown depot {bus.depot}")
            continue
        per_depot[bus.depot] = per_depot.get(bus.depot, 0) + 1
        for i, j in zip(bus.trips, bus.trips[1:]):
            if not (1 <= i <= n and 1 <= j <= n):
                continue
            ti, tj = inst.trips[i - 1], inst.trips[j - 1]
            if ti.start + ti.mean_dur + int(inst.dh_time[i - 1, j - 1]) > tj.start:
                faults.append(f"pair ({i},{j}) is not compatible under mean times")
    for k, used in per_depot.items():
        if used > inst.depots[k - 1].capacity:
            faults.append(f"depot {k} hosts {used} buses, capacity "
                          f"{inst.depots[k - 1].capacity}")
    return faults


def schedule_cost(inst, sched) -> int:
    """Pull-out, deadhead and pull-in cost summed from the instance tables."""
    total = 0
    for bus in sched.buses:
        k = bus.depot - 1
        total += int(inst.out_cost[k, bus.trips[0] - 1])
        total += sum(int(inst.cost[i - 1, j - 1]) for i, j in zip(bus.trips, bus.trips[1:]))
        total += int(inst.in_cost[bus.trips[-1] - 1, k])
    return total


def fingerprint(inst, scen, window, rates, epsilon) -> str:
    """SHA-256 over every input the scenario reformulation reads."""
    h = hashlib.sha256()
    h.update(repr((window, rates, epsilon)).encode())
    h.update(repr([(t.route_id, t.start, t.mean_dur, t.max_express) for t in inst.trips]).encode())
    h.update(repr([d.capacity for d in inst.depots]).encode())
    h.update(repr(sorted(inst.compat)).encode())
    for arr in (inst.dh_time, inst.cost, inst.out_cost, inst.in_cost, scen.dur, scen.travel):
        h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    return h.hexdigest()


def highs_optimum(inst, scen, window, rates, epsilon, time_limit=600.0) -> dict:
    """Optimum of the scenario reformulation, solved by HiGHS.

    Variables: a unit flow per depot over pull-out, deadhead and pull-in
    arcs; per scenario s and trip i a start time y, an on-time flag v; per
    scenario an indicator z that releases its requirements. Big-M rows tie
    start times to the sequenced pairs and on-time flags to start times; at
    most floor(S * epsilon) indicators may be one. Returns the optimum, the
    dual bound, HiGHS's status and the solve time.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    lb, ub = window
    n, n_dep, n_scen = inst.n_trips, inst.n_depots, scen.dur.shape[0]
    pairs = sorted(inst.compat)
    start = np.array([t.start for t in inst.trips], dtype=float)
    express = np.array([t.max_express for t in inst.trips], dtype=float)
    need_trip, need_route = requirement_counts(inst, rates)

    cost, lo, hi, integral = [], [], [], []

    def new_var(c, low, high, is_int):
        cost.append(c)
        lo.append(low)
        hi.append(high)
        integral.append(1 if is_int else 0)
        return len(cost) - 1

    pull_out = {(k, i): new_var(float(inst.out_cost[k, i]), 0, 1, True)
                for k in range(n_dep) for i in range(n)}
    pull_in = {(k, i): new_var(float(inst.in_cost[i, k]), 0, 1, True)
               for k in range(n_dep) for i in range(n)}
    arc = {(k, i, j): new_var(float(inst.cost[i - 1, j - 1]), 0, 1, True)
           for k in range(n_dep) for (i, j) in pairs}
    legs = scen.dur[:, :, None] + scen.travel          # (S, I, I)
    # no earliest start exceeds the latest s_i - lb plus every trip's longest leg
    longest = np.zeros(n_scen)
    for i in range(1, n + 1):
        succ = [j - 1 for (a, j) in pairs if a == i]
        if succ:
            longest += legs[:, i - 1, succ].max(axis=1)
    horizon = [float(start.max() - lb + longest[s]) for s in range(n_scen)]
    y = {(s, i): new_var(0.0, start[i] - lb, horizon[s], False)
         for s in range(n_scen) for i in range(n)}
    v = {(s, i): new_var(0.0, 0, 1, True) for s in range(n_scen) for i in range(n)}
    z = [new_var(0.0, 0, 1, True) for _ in range(n_scen)]

    rows, cols, vals, row_lo, row_hi = [], [], [], [], []

    def add_row(terms, low, high):
        r = len(row_lo)
        for col, val in terms:
            rows.append(r)
            cols.append(col)
            vals.append(val)
        row_lo.append(low)
        row_hi.append(high)

    for j in range(1, n + 1):                            # every trip reached once
        terms = [(pull_out[(k, j - 1)], 1.0) for k in range(n_dep)]
        terms += [(arc[(k, i, jj)], 1.0) for k in range(n_dep) for (i, jj) in pairs if jj == j]
        add_row(terms, 1.0, 1.0)
    for k in range(n_dep):                               # flow balance per depot
        for t in range(1, n + 1):
            terms = [(pull_out[(k, t - 1)], 1.0), (pull_in[(k, t - 1)], -1.0)]
            terms += [(arc[(k, i, j)], 1.0) for (i, j) in pairs if j == t]
            terms += [(arc[(k, i, j)], -1.0) for (i, j) in pairs if i == t]
            add_row(terms, 0.0, 0.0)
        add_row([(pull_out[(k, i)], 1.0) for i in range(n)], -np.inf,
                float(inst.depots[k].capacity))
    for s in range(n_scen):
        for (i, j) in pairs:
            # y_j >= y_i + leg_ij - e_i whenever some bus runs i then j
            leg = float(legs[s, i - 1, j - 1]) - express[i - 1]
            big_m = max(0.0, horizon[s] + leg - (start[j - 1] - lb))
            terms = [(y[(s, j - 1)], 1.0), (y[(s, i - 1)], -1.0)]
            terms += [(arc[(k, i, j)], -big_m) for k in range(n_dep)]
            add_row(terms, leg - big_m, np.inf)
        for i in range(n):
            # v = 1 only if y <= s + ub
            slack = max(0.0, horizon[s] - start[i] - ub)
            add_row([(y[(s, i)], 1.0), (v[(s, i)], slack)], -np.inf, start[i] + ub + slack)
        add_row([(v[(s, i)], 1.0) for i in range(n)] + [(z[s], float(need_trip))],
                float(need_trip), np.inf)
        for members, need in zip(inst.routes, need_route):
            add_row([(v[(s, i - 1)], 1.0) for i in members] + [(z[s], float(need))],
                    float(need), np.inf)
    add_row([(zs, 1.0) for zs in z], -np.inf, float(floor_share(n_scen, epsilon)))

    matrix = coo_matrix((vals, (rows, cols)), shape=(len(row_lo), len(cost))).tocsr()
    t0 = time.perf_counter()
    res = milp(np.array(cost), constraints=LinearConstraint(matrix, row_lo, row_hi),
               integrality=np.array(integral), bounds=Bounds(lo, hi),
               options={"mip_rel_gap": 1e-9, "time_limit": time_limit})
    elapsed = time.perf_counter() - t0
    return {"status": int(res.status), "message": str(res.message),
            "optimum": float(res.fun) if res.x is not None else None,
            "dual_bound": float(getattr(res, "mip_dual_bound", math.nan)),
            "highs_s": round(elapsed, 3)}
