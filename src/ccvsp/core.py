"""Domain types for the chance-constrained multi-depot vehicle scheduling problem.

Trips, depots, instances, service-level parameters and bus schedules, plus the
arc encoding used by the flow-based optimization models. All times and costs
are integers; functions here are pure and the types are immutable after
construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

TripId = int
DepotId = int
Point = tuple[int, int]
Pair = tuple[int, int]
# Arc nodes: trips are positive ids 1..I, depot nodes are -k for depot k.
# A pull-out arc is (-k, i, k), a pull-in arc is (i, -k, k), and a trip-to-trip
# arc is (i, j, k) for the bus's depot k.
Arc = tuple[int, int, int]


class ValidationError(ValueError):
    """An instance, schedule or parameter set breaks one of its invariants."""


def floor_frac(n: int, rate: float) -> int:
    """floor(n * rate) computed robustly against binary-float noise (e.g. 10*0.3)."""
    return int(math.floor(n * rate + 1e-9))


@dataclass(frozen=True)
class Trip:
    """A timetabled trip: scheduled start, mean duration and expressing allowance."""

    id: TripId
    route_id: int
    start_loc: Point
    end_loc: Point
    start: int          # scheduled start time, minutes
    mean_dur: int       # mean duration, minutes
    max_express: int    # maximum duration reduction a driver may apply


@dataclass(frozen=True)
class Depot:
    id: DepotId
    loc: Point
    capacity: int       # maximum number of buses stationed here


@dataclass(frozen=True)
class Bus:
    """One deployed bus: its depot and the ordered trips it serves."""

    depot: DepotId
    trips: tuple[TripId, ...]


class ChainIndex(NamedTuple):
    """A schedule's sequenced pairs as 0-based trip indexes, in bus order."""

    prev: np.ndarray    # first trip of each pair
    nxt: np.ndarray     # second trip of each pair
    chains: tuple[tuple[int, tuple[int, ...]], ...]   # per non-empty chain: (first, later)

    @classmethod
    def of(cls, chains: Iterable[Sequence[TripId]]) -> "ChainIndex":
        """The index of trip sequences (ids), each run as its own bus."""
        chains = [c for c in chains if c]
        pairs = [p for c in chains for p in zip(c, c[1:])]
        return cls(np.array([i - 1 for i, _ in pairs], dtype=np.intp),
                   np.array([j - 1 for _, j in pairs], dtype=np.intp),
                   tuple((c[0] - 1, tuple(i - 1 for i in c[1:])) for c in chains))


@dataclass(frozen=True)
class Schedule:
    """A candidate vehicle schedule as a list of buses."""

    buses: tuple[Bus, ...]

    def trip_ids(self) -> list[TripId]:
        return [i for bus in self.buses for i in bus.trips]

    def sequenced_pairs(self) -> list[Pair]:
        """All consecutive (i, j) trip pairs, over all buses."""
        out = []
        for bus in self.buses:
            out.extend(zip(bus.trips, bus.trips[1:]))
        return out

    @cached_property
    def chain_index(self) -> ChainIndex:
        """The sequenced pairs as index arrays, built once per schedule."""
        return ChainIndex.of(b.trips for b in self.buses)


class Instance:
    """A static problem instance: trips, depots, routes, times, costs, compatibility.

    Time and cost tables are dense integer arrays indexed by ``id - 1``; entries
    outside the compatibility set are present but unused by the models.
    """

    def __init__(
        self,
        trips: Sequence[Trip],
        depots: Sequence[Depot],
        routes: Sequence[Sequence[TripId]],
        dh_time: np.ndarray,
        out_time: np.ndarray,
        in_time: np.ndarray,
        cost: np.ndarray,
        out_cost: np.ndarray,
        in_cost: np.ndarray,
        compat: Iterable[Pair],
        meta: dict | None = None,
    ):
        self.trips = tuple(trips)
        self.depots = tuple(depots)
        self.routes = tuple(tuple(r) for r in routes)
        self.dh_time = np.asarray(dh_time, dtype=np.int64)
        self.out_time = np.asarray(out_time, dtype=np.int64)
        self.in_time = np.asarray(in_time, dtype=np.int64)
        self.cost = np.asarray(cost, dtype=np.int64)
        self.out_cost = np.asarray(out_cost, dtype=np.int64)
        self.in_cost = np.asarray(in_cost, dtype=np.int64)
        self.compat = frozenset((int(i), int(j)) for i, j in compat)
        self.meta = dict(meta or {})
        self._validate()
        self.route_of = {i: t.route_id for i, t in zip(self._ids, self.trips)}
        self.starts = [t.start for t in self.trips]
        self.max_express = np.array([t.max_express for t in self.trips], dtype=np.int64)
        self.succ = {i: [] for i in self._ids}
        self.pred = {j: [] for j in self._ids}
        # one pass in sorted order leaves every list sorted
        for i, j in sorted(self.compat):
            self.succ[i].append(j)
            self.pred[j].append(i)

    @property
    def n_trips(self) -> int:
        return len(self.trips)

    @property
    def n_depots(self) -> int:
        return len(self.depots)

    @property
    def _ids(self) -> range:
        return range(1, len(self.trips) + 1)

    def trip(self, i: TripId) -> Trip:
        return self.trips[i - 1]

    def depot(self, k: DepotId) -> Depot:
        return self.depots[k - 1]

    def _validate(self) -> None:
        I, K = len(self.trips), len(self.depots)
        if I == 0 and K == 0 and not self.routes:
            return
        for pos, t in enumerate(self.trips, start=1):
            if t.id != pos:
                raise ValidationError(f"trip ids must be 1..{I} in order, got {t.id} at position {pos}")
            if t.mean_dur <= 0:
                raise ValidationError(f"trip {t.id}: mean duration must be positive")
            if not 0 <= t.max_express <= t.mean_dur:
                raise ValidationError(f"trip {t.id}: max_express must lie in [0, mean_dur]")
            if t.start < 0:
                raise ValidationError(f"trip {t.id}: scheduled start must be non-negative")
            if not 1 <= t.route_id <= len(self.routes):
                raise ValidationError(f"trip {t.id}: route {t.route_id} does not exist")
        for pos, d in enumerate(self.depots, start=1):
            if d.id != pos:
                raise ValidationError(f"depot ids must be 1..{K} in order, got {d.id}")
            if d.capacity < 1:
                raise ValidationError(f"depot {d.id}: capacity must be at least 1")
        seen: dict[int, int] = {}
        for r, members in enumerate(self.routes, start=1):
            for i in members:
                if i in seen:
                    raise ValidationError(f"trip {i} appears in routes {seen[i]} and {r}")
                seen[i] = r
                if self.trips[i - 1].route_id != r:
                    raise ValidationError(f"trip {i} listed in route {r} but tagged route {self.trips[i - 1].route_id}")
        if len(seen) != I:
            missing = sorted(set(range(1, I + 1)) - set(seen))
            raise ValidationError(f"routes do not partition the trips; missing {missing}")
        for name, table, shape in [
            ("dh_time", self.dh_time, (I, I)),
            ("out_time", self.out_time, (K, I)),
            ("in_time", self.in_time, (I, K)),
            ("cost", self.cost, (I, I)),
            ("out_cost", self.out_cost, (K, I)),
            ("in_cost", self.in_cost, (I, K)),
        ]:
            if table.shape != shape:
                raise ValidationError(f"{name} has shape {table.shape}, expected {shape}")
            if (table < 0).any():
                bad = np.argwhere(table < 0)[0]
                raise ValidationError(f"{name}[{bad[0] + 1},{bad[1] + 1}] is negative")
        bad = self.compat - build_compat(self.trips, self.dh_time)
        if bad:
            i, j = min(bad)
            if i == j or not (1 <= i <= I and 1 <= j <= I):
                raise ValidationError(f"compatibility pair ({i},{j}) is not a valid ordered trip pair")
            raise ValidationError(
                f"compatibility pair ({i},{j}) violates s_i + d_i + t_ij <= s_j under mean times")

    # -- derived data -------------------------------------------------------

    def arc_count(self) -> int:
        """Total arcs in the flow network: |C| + 2 K I."""
        return len(self.compat) + 2 * self.n_depots * self.n_trips


def build_compat(trips: Sequence[Trip], dh_time: np.ndarray,
                 dur: np.ndarray | None = None) -> set[Pair]:
    """Ordered pairs (i, j) with s_i + d_i + t_ij <= s_j: planning-compatible
    under the per-trip durations ``dur`` (default: the means) and the
    deadheads ``dh_time``."""
    start = np.array([t.start for t in trips], dtype=np.int64)
    if dur is None:
        dur = [t.mean_dur for t in trips]
    ready = start + np.asarray(dur).astype(np.int64)
    ok = ready[:, None] + np.asarray(dh_time).astype(np.int64) <= start[None, :]
    np.fill_diagonal(ok, False)
    a, b = np.nonzero(ok)
    return set(zip((a + 1).tolist(), (b + 1).tolist()))


@dataclass(frozen=True)
class ServiceParams:
    """On-time window, service-level rates and their derived trip counts.

    ``f_trip = floor(I * delta_trip)`` trips must start on time overall and
    ``f_route[r] = floor(I_r * delta_route)`` per route; a trip is on time when
    it starts within ``[s - lb, s + ub]``.
    """

    lb: int
    ub: int
    delta_trip: float
    delta_route: float
    epsilon: float
    f_trip: int
    f_route: tuple[int, ...]

    @classmethod
    def for_instance(cls, inst: Instance, lb: int, ub: int, delta_trip: float,
                     delta_route: float, epsilon: float) -> "ServiceParams":
        if lb < 0 or ub < 0:
            raise ValidationError("lb and ub must be non-negative")
        if not 0 < delta_trip <= 1 or not 0 < delta_route <= 1:
            raise ValidationError("delta_trip and delta_route must lie in (0, 1]")
        if not 0 < epsilon < 1:
            raise ValidationError("epsilon must lie in (0, 1)")
        f_trip = floor_frac(inst.n_trips, delta_trip)
        f_route = tuple(floor_frac(len(r), delta_route) for r in inst.routes)
        return cls(lb, ub, delta_trip, delta_route, epsilon, f_trip, f_route)

    def scaled_to(self, inst: Instance) -> "ServiceParams":
        """Same rates re-derived for another instance (used for trip groups)."""
        return ServiceParams.for_instance(inst, self.lb, self.ub, self.delta_trip,
                                          self.delta_route, self.epsilon)


def cc_threshold(n_scenarios: int, epsilon: float) -> int:
    """Maximum number of scenarios allowed to violate the requirements: floor(S*eps)."""
    return floor_frac(n_scenarios, epsilon)


# -- schedules ---------------------------------------------------------------

def validate_schedule(inst: Instance, sched: Schedule) -> None:
    """Check coverage, pairwise compatibility and depot capacity."""
    ids = sched.trip_ids()
    if len(ids) != len(set(ids)):
        dup = sorted({i for i in ids if ids.count(i) > 1})
        raise ValidationError(f"trips {dup} appear in more than one position")
    if set(ids) != set(range(1, inst.n_trips + 1)):
        missing = sorted(set(range(1, inst.n_trips + 1)) - set(ids))
        raise ValidationError(f"schedule does not cover trips {missing}")
    for bus in sched.buses:
        if not 1 <= bus.depot <= inst.n_depots:
            raise ValidationError(f"bus references unknown depot {bus.depot}")
        for i, j in zip(bus.trips, bus.trips[1:]):
            if (i, j) not in inst.compat:
                raise ValidationError(f"consecutive pair ({i},{j}) is not planning compatible")
    for k in range(1, inst.n_depots + 1):
        used = sum(1 for b in sched.buses if b.depot == k)
        if used > inst.depot(k).capacity:
            raise ValidationError(f"depot {k} hosts {used} buses, capacity {inst.depot(k).capacity}")


def schedule_cost(inst: Instance, sched: Schedule) -> int:
    """Total deadhead plus deployment cost of a schedule."""
    total = 0
    for bus in sched.buses:
        if not bus.trips:
            continue
        k = bus.depot - 1
        total += int(inst.out_cost[k, bus.trips[0] - 1])
        for i, j in zip(bus.trips, bus.trips[1:]):
            if (i, j) not in inst.compat:
                raise ValidationError(f"pair ({i},{j}) is not planning compatible")
            total += int(inst.cost[i - 1, j - 1])
        total += int(inst.in_cost[bus.trips[-1] - 1, k])
    return total


def schedule_to_arcs(sched: Schedule) -> set[Arc]:
    """Natural arc encoding of a schedule (depot nodes encoded as -k)."""
    arcs: set[Arc] = set()
    for bus in sched.buses:
        if not bus.trips:
            continue
        k = bus.depot
        arcs.add((-k, bus.trips[0], k))
        for i, j in zip(bus.trips, bus.trips[1:]):
            arcs.add((i, j, k))
        arcs.add((bus.trips[-1], -k, k))
    return arcs


def schedule_from_arcs(inst: Instance, arcs: Iterable[Arc]) -> Schedule:
    """Rebuild the bus sequences from a unit-flow arc set (inverse of the
    encoding), checked with ``validate_schedule``."""
    arcs = set(arcs)
    nxt: dict[int, tuple[int, int]] = {}
    starts: list[tuple[int, int]] = []
    covered: dict[int, int] = {}
    for (u, v, k) in arcs:
        if u < 0:
            if u != -k:
                raise ValidationError(f"pull-out arc ({u},{v},{k}) names depot {-u} but commodity {k}")
            starts.append((v, k))
        else:
            if u in nxt:
                raise ValidationError(f"node {u} has two outgoing arcs")
            nxt[u] = (v, k)
        if v > 0:
            if v in covered:
                raise ValidationError(f"trip {v} is covered twice")
            covered[v] = k
    buses = []
    for first, k in sorted(starts):
        seq = [first]
        while True:
            if seq[-1] not in nxt:
                raise ValidationError(f"trip {seq[-1]} has no outgoing arc")
            v, k2 = nxt.pop(seq[-1])
            if k2 != k:
                raise ValidationError(f"depot changes along the bus at trip {seq[-1]}")
            if v < 0:
                if v != -k:
                    raise ValidationError(f"bus from depot {k} pulls in at depot {-v}")
                break
            seq.append(v)
        buses.append(Bus(k, tuple(seq)))
    if nxt:
        raise ValidationError(f"arcs left over that belong to no bus: {sorted(nxt)}")
    if set(covered) != set(range(1, inst.n_trips + 1)):
        missing = sorted(set(range(1, inst.n_trips + 1)) - set(covered))
        raise ValidationError(f"arcs do not cover trips {missing}")
    sched = Schedule(tuple(buses))
    validate_schedule(inst, sched)
    return sched


# -- serialization -----------------------------------------------------------

def _integer(value, where: str) -> int:
    """``value`` as an int when it is a JSON integer (or an integral float)
    that fits 64 bits; a ValidationError naming ``where`` for anything else."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, int) and not isinstance(value, bool) and -2**63 <= value < 2**63:
        return value
    raise ValidationError(f"{where}: {value!r} is not a 64-bit integer")


def _integers(value, n: int, where: str) -> tuple[int, ...]:
    """``value`` as ``n`` ints when it is a JSON list of ``n`` integers; a
    ValidationError naming ``where`` otherwise."""
    if not isinstance(value, list) or len(value) != n:
        raise ValidationError(f"{where}: {value!r} is not a list of {n} integers")
    return tuple(_integer(v, where) for v in value)


def _sparse(table: np.ndarray) -> list[list[int]]:
    return [[int(a) + 1, int(b) + 1, int(table[a, b])] for a, b in np.argwhere(table != 0)]


def instance_to_json(inst: Instance) -> dict:
    return {
        "trips": [
            {"id": t.id, "route": t.route_id, "start_loc": list(t.start_loc),
             "end_loc": list(t.end_loc), "s": t.start, "mean_d": t.mean_dur, "e": t.max_express}
            for t in inst.trips
        ],
        "depots": [{"id": d.id, "loc": list(d.loc), "b": d.capacity} for d in inst.depots],
        "costs": {
            "pairs": _sparse(inst.cost),
            "pull_out": _sparse(inst.out_cost),
            "pull_in": _sparse(inst.in_cost),
        },
        "times": {
            "pairs": _sparse(inst.dh_time),
            "pull_out": _sparse(inst.out_time),
            "pull_in": _sparse(inst.in_time),
        },
        "compat": [[i, j] for i, j in sorted(inst.compat)],
        "meta": inst.meta,
    }


def instance_from_json(doc: dict) -> Instance:
    """The instance an ``instance_to_json`` document describes. Ids, times,
    costs and locations must be JSON integers, and each sparse entry
    [row id, column id, value] must name a cell of its table; a
    ValidationError names the table and the entry that does not."""
    try:
        trips = [Trip(*(_integer(t[k], f"trips[{n}].{k}") for k in ("id", "route")),
                      *(_integers(t[k], 2, f"trips[{n}].{k}") for k in ("start_loc", "end_loc")),
                      *(_integer(t[k], f"trips[{n}].{k}") for k in ("s", "mean_d", "e")))
                 for n, t in enumerate(doc["trips"])]
        depots = [Depot(_integer(d["id"], f"depots[{n}].id"),
                        _integers(d["loc"], 2, f"depots[{n}].loc"),
                        _integer(d["b"], f"depots[{n}].b"))
                  for n, d in enumerate(doc["depots"])]
        I, K = len(trips), len(depots)

        def fill(group: str, name: str, shape: tuple[int, int]) -> np.ndarray:
            table = np.zeros(shape, dtype=np.int64)
            for n, entry in enumerate(doc.get(group, {}).get(name, [])):
                where = f"{group}.{name}[{n}]"
                a, b, v = _integers(entry, 3, where)
                if not (1 <= a <= shape[0] and 1 <= b <= shape[1]):
                    raise ValidationError(f"{where}: {entry} lies outside the "
                                          f"{shape[0]} x {shape[1]} table (ids from 1)")
                table[a - 1, b - 1] = v
            return table

        tables = dict(dh_time=fill("times", "pairs", (I, I)),
                      out_time=fill("times", "pull_out", (K, I)),
                      in_time=fill("times", "pull_in", (I, K)),
                      cost=fill("costs", "pairs", (I, I)),
                      out_cost=fill("costs", "pull_out", (K, I)),
                      in_cost=fill("costs", "pull_in", (I, K)))
        compat = [_integers(p, 2, f"compat[{n}]") for n, p in enumerate(doc.get("compat", []))]
        meta = doc.get("meta", {})
        if not isinstance(meta, dict):
            raise ValidationError(f"meta: {meta!r} is not an object")
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValidationError(f"malformed instance document: {exc!r}") from exc
    routes: dict[int, list[int]] = {}
    for t in trips:
        routes.setdefault(t.route_id, []).append(t.id)
    route_list = [routes.get(r, []) for r in range(1, max(routes, default=0) + 1)]
    return Instance(trips, depots, route_list, **tables, compat=compat, meta=meta)


def load_instance(path: str | Path) -> Instance:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:      # not JSON, or not UTF-8 text
            raise ValidationError(f"cannot parse {path}: {exc}") from exc
    return instance_from_json(doc)


def save_instance(inst: Instance, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_json(inst), fh)


def schedule_from_json(doc) -> Schedule:
    """The schedule a ``dataclasses.asdict(schedule)`` document describes: an
    object whose ``buses`` each hold an integer ``depot`` and a list of
    integer ``trips``; a ValidationError names the part that does not."""
    buses = doc.get("buses") if isinstance(doc, dict) else None
    if not isinstance(buses, list):
        raise ValidationError("the schedule is not an object with a list of buses")
    for n, b in enumerate(buses):
        if not isinstance(b, dict) or not isinstance(b.get("trips"), list):
            raise ValidationError(f"buses[{n}] is not an object with a list of trips")
    return Schedule(tuple(Bus(_integer(b.get("depot"), f"buses[{n}].depot"),
                              tuple(_integer(i, f"buses[{n}].trips") for i in b["trips"]))
                          for n, b in enumerate(buses)))
