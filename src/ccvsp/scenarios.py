"""Random instance generation and travel-time scenario sampling.

Instances follow the classic grid-based construction for multi-depot bus
scheduling benchmarks, extended with routes (trip groups sharing endpoints)
and expressing allowances. Stochastic travel times are lognormal around the
deterministic means with a fixed coefficient of variation, rounded to integer
minutes.
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass

import numpy as np

from .core import (
    Depot,
    Instance,
    Trip,
    ValidationError,
    build_compat,
)


SCENARIO_TABLES = ("dur", "travel", "out_t", "in_t")
INT32_MAX = int(np.iinfo(np.int32).max)
# the widths a table may take, narrowest first; int64 only for a duration
# table whose legs pass 2**31 - 1
TABLE_TYPES = (np.uint8, np.int16, np.int32, np.int64)


def _narrowest(top: int) -> type:
    """The first of ``TABLE_TYPES`` that holds the value ``top``."""
    return next(t for t in TABLE_TYPES if top <= np.iinfo(t).max)


def _narrow_table(name: str, table, extra: int = 0) -> np.ndarray:
    """``table`` in the narrowest of uint8, int16, int32 and int64 that holds
    its largest value plus ``extra``; ValidationError unless its values are
    integers in [0, 2**31). For ``dur``, ``extra`` is the largest deadhead,
    so a leg ``dur + travel`` never wraps in the tables' own types."""
    arr = np.asarray(table)
    if arr.dtype.kind not in "iu":
        raise ValidationError(f"scenario table {name} has dtype {arr.dtype}, "
                              f"not integer minutes")
    top = 0
    if arr.size:
        if arr.min() < 0:
            raise ValidationError(f"scenario table {name} has negative times")
        # a Python int: a uint8 or int16 scalar plus ``extra`` would wrap
        top = int(arr.max())
        if top > INT32_MAX:
            raise ValidationError(f"scenario table {name} has times of 2**31 or more")
    return arr.astype(_narrowest(top + extra), copy=False)


@dataclass(frozen=True)
class ScenarioSet:
    """Sampled travel-time realizations, each scenario with probability 1/S.

    ``dur[s, i-1]`` is trip i's duration, ``travel[s, i-1, j-1]`` the deadhead
    time between trips (meaningful on compatible pairs), ``out_t``/``in_t`` the
    depot deadheads. Any integer table with values in [0, 2**31) is accepted
    and converted: ``travel``, ``out_t`` and ``in_t`` each to the narrowest of
    uint8, int16 and int32 that holds their values, and ``dur`` to the
    narrowest type that holds its largest value plus the largest deadhead
    (int64 only when that passes 2**31 - 1). So ``dur[:, :, None] + travel``
    never wraps in the tables' own types. Every other sum or difference of
    table values must be taken in int64: uint8 - 1 wraps to 255 silently.
    """

    dur: np.ndarray          # (S, I)
    travel: np.ndarray       # (S, I, I)
    out_t: np.ndarray        # (S, K, I)
    in_t: np.ndarray         # (S, I, K)
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("travel", "out_t", "in_t"):
            object.__setattr__(self, name, _narrow_table(name, getattr(self, name)))
        object.__setattr__(self, "dur", _narrow_table("dur", self.dur,
                                                      int(self.travel.max(initial=0))))
        if self.count < 1:
            raise ValidationError("a scenario set needs at least one scenario")

    @property
    def count(self) -> int:
        return self.dur.shape[0]

    def check_instance(self, inst: Instance) -> None:
        """Raise ValidationError unless every table is shaped for ``inst``."""
        S, I, K = self.count, inst.n_trips, inst.n_depots
        for name, shape in (("dur", (S, I)), ("travel", (S, I, I)),
                            ("out_t", (S, K, I)), ("in_t", (S, I, K))):
            got = getattr(self, name).shape
            if got != shape:
                raise ValidationError(
                    f"scenario table {name} has shape {got}, but an instance with "
                    f"{I} trips and {K} depots needs {shape}")


# generator constants, recorded in instance meta: the share of round trips,
# the windows over which each route's first departure is uniform, and the
# coefficient of variation of every sampled time (sample_scenarios' default)
LONG_TRIP_FRAC = 0.4
PEAK_WINDOWS = ((360, 600), (840, 1080))
LOGNORMAL_CV = 0.2


@dataclass(frozen=True)
class GenParams:
    """Knobs for the random instance generator; all recorded in instance meta."""

    n_trips: int
    n_depots: int
    trips_per_route: int = 10
    grid_width: int = 60
    grid_height: int = 60
    # successive departures follow at the running time plus this buffer range
    headway_buffer: tuple[int, int] = (2, 12)
    deploy_cost: int = 1000
    seed: int = 0

    def validate(self) -> None:
        if self.n_trips < 1 or self.n_depots < 1 or self.trips_per_route < 1:
            raise ValidationError("n_trips, n_depots and trips_per_route must be positive")
        if self.grid_width < 1 or self.grid_height < 1:
            raise ValidationError("grid must be non-degenerate")
        if self.headway_buffer[0] < 0 or self.headway_buffer[1] < self.headway_buffer[0]:
            raise ValidationError("headway_buffer must be a non-negative range")


def _dist(a, b) -> int:
    return int(round(math.hypot(a[0] - b[0], a[1] - b[1])))


def _dists(a, b) -> np.ndarray:
    """``_dist`` from every point of ``a`` (rows) to every point of ``b`` (columns)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.rint(np.hypot(a[:, None, 0] - b[None, :, 0],
                            a[:, None, 1] - b[None, :, 1])).astype(np.int64)


def generate_instance(p: GenParams) -> Instance:
    """Generate a random instance; deterministic for a fixed seed."""
    p.validate()
    rng = np.random.default_rng(p.seed)
    I, K = p.n_trips, p.n_depots
    n_routes = math.ceil(I / p.trips_per_route)

    route_locs = [
        (tuple(rng.integers(0, (p.grid_width, p.grid_height), endpoint=True)),
         tuple(rng.integers(0, (p.grid_width, p.grid_height), endpoint=True)))
        for _ in range(n_routes)
    ]
    route_locs = [((int(a[0]), int(a[1])), (int(b[0]), int(b[1]))) for a, b in route_locs]

    trips: list[Trip] = []
    routes: list[list[int]] = [[] for _ in range(n_routes)]
    # route cadence state: the next departure follows the previous trip's
    # running time plus a small buffer, so same-route chains are tight
    next_start = [0] * n_routes
    for r in range(n_routes):
        lo, hi = PEAK_WINDOWS[r % len(PEAK_WINDOWS)]
        next_start[r] = int(rng.integers(lo, hi, endpoint=True))
    for i in range(1, I + 1):
        r = (i - 1) // p.trips_per_route
        l1, l2 = route_locs[r]
        oneway = max(1, _dist(l1, l2))
        is_long = rng.random() < LONG_TRIP_FRAC
        start = next_start[r]
        if is_long:
            # round trip: out to the other endpoint and back
            a = l1 if rng.random() < 0.5 else l2
            dur = 2 * oneway + int(rng.integers(0, max(1, oneway // 4), endpoint=True))
            s_loc = e_loc = a
        else:
            # one-directional; alternate orientation within the route
            if len(routes[r]) % 2 == 0:
                s_loc, e_loc = l1, l2
            else:
                s_loc, e_loc = l2, l1
            dur = oneway + int(rng.integers(0, max(1, oneway // 4), endpoint=True))
        if dur < 10:
            express = 0
        else:
            express = int(rng.integers(math.ceil(0.05 * dur), math.floor(0.10 * dur), endpoint=True))
        trips.append(Trip(i, r + 1, s_loc, e_loc, start, dur, express))
        routes[r].append(i)
        buffer = int(rng.integers(p.headway_buffer[0], p.headway_buffer[1], endpoint=True))
        next_start[r] = start + dur + buffer

    depots = []
    cap = math.ceil(I / K)
    for k in range(1, K + 1):
        loc = (int(rng.integers(0, p.grid_width, endpoint=True)),
               int(rng.integers(0, p.grid_height, endpoint=True)))
        depots.append(Depot(k, loc, cap))

    starts = [t.start_loc for t in trips]
    ends = [t.end_loc for t in trips]
    dh_time = _dists(ends, starts)
    np.fill_diagonal(dh_time, 0)
    out_time = _dists([d.loc for d in depots], starts)
    in_time = _dists(ends, [d.loc for d in depots])

    compat = build_compat(trips, dh_time)
    meta = {
        "seed": p.seed,
        "generator_params": {
            "n_trips": I, "n_depots": K, "trips_per_route": p.trips_per_route,
            "grid": [p.grid_width, p.grid_height], "long_trip_frac": LONG_TRIP_FRAC,
            "peak_windows": [list(w) for w in PEAK_WINDOWS],
            "headway_buffer": list(p.headway_buffer),
            "lognormal_cv": LOGNORMAL_CV, "deploy_cost": p.deploy_cost,
            "metric": "euclidean-rounded",
        },
    }
    # pull-outs carry the deployment cost
    return Instance(trips, depots, routes, dh_time, out_time, in_time,
                    dh_time.copy(), out_time + p.deploy_cost, in_time.copy(), compat, meta)


def _lognormal_params(means: np.ndarray, cv: float) -> tuple[np.ndarray, float]:
    """(mu, sigma) of the lognormals with the given positive means and sd = cv * mean."""
    # sigma^2 = ln(1 + cv^2), mu = ln(mean) - sigma^2/2 gives the requested moments
    sigma2 = math.log(1.0 + cv * cv)
    return np.log(means) - sigma2 / 2.0, math.sqrt(sigma2)


def _transform_normals(mu: np.ndarray, sigma: float, z: np.ndarray) -> np.ndarray:
    """The lognormal transform rint(exp(mu + sigma * z)) clipped at 0, made in place
    in the float array of normals ``z``."""
    np.multiply(z, sigma, out=z)
    np.add(z, mu, out=z)
    np.exp(z, out=z)
    np.rint(z, out=z)
    return np.maximum(z, 0, out=z)


def _lognormal_rounded(rng: np.random.Generator, means: np.ndarray, cv: float) -> np.ndarray:
    """Integer samples with the given means and sd = cv * mean; zero means stay zero."""
    means = np.asarray(means, dtype=float)
    out = np.zeros(means.shape, dtype=np.int64)
    pos = means > 0
    mu, sigma = _lognormal_params(means[pos], cv)
    out[pos] = _transform_normals(mu, sigma, rng.standard_normal(mu.size))
    return out


# bytes of the float normals of one block of the sampler, its one temporary:
# the transform runs in place and writes into the uint8, int16 or int32 tables
SAMPLE_BLOCK_BYTES = 2 << 20


def sample_scenarios(inst: Instance, n_scenarios: int, seed: int,
                     cv: float | None = None) -> ScenarioSet:
    """Sample S scenarios of all travel times; deterministic for a fixed seed.

    Each scenario draws from an independent substream keyed by (seed, s), so
    results do not depend on evaluation order. One ``standard_normal`` call
    per scenario covers the positive-mean entries of the duration, deadhead,
    pull-out and pull-in tables, in that order; each table equals, bit for
    bit, what one ``_lognormal_rounded`` call per table on that substream
    gives. The transform runs on blocks of scenarios whose normals take about
    ``SAMPLE_BLOCK_BYTES``, written straight into uint8 tables; a table is
    widened to int16 or int32 once a block's values for it pass 255 or
    32767, and ``ScenarioSet`` then widens ``dur`` by its leg rule. ``cv``
    defaults to the generator's ``lognormal_cv`` recorded in the instance
    meta.
    """
    if n_scenarios < 1:
        raise ValidationError("need at least one scenario")
    if cv is None:
        cv = float(inst.meta.get("generator_params", {}).get("lognormal_cv", LOGNORMAL_CV))
    S = n_scenarios
    means = (np.array([t.mean_dur for t in inst.trips], dtype=float),
             inst.dh_time.astype(float), inst.out_time.astype(float),
             inst.in_time.astype(float))
    tables = [np.zeros((S, *m.shape), dtype=np.uint8) for m in means]
    # each table's positive entries, as flat indexes, and their spans in one draw
    flat = [np.flatnonzero(m > 0) for m in means]
    sizes = [f.size for f in flat]
    ends = np.cumsum(sizes)
    mu, sigma = _lognormal_params(np.concatenate([m.ravel()[f] for m, f in zip(means, flat)]), cv)
    P = mu.size
    block = max(1, SAMPLE_BLOCK_BYTES // (8 * max(P, 1)))
    z = np.empty((min(block, S), P))
    for b0 in range(0, S, block):
        zb = z[:min(block, S - b0)]
        for r, row in enumerate(zb):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(b0 + r,)))
            rng.standard_normal(out=row)
        vals = _transform_normals(mu, sigma, zb)
        for t, (idx, hi, n) in enumerate(zip(flat, ends, sizes)):
            if not n:
                continue
            part = vals[:, hi - n:hi]
            top = part.max()
            if top > INT32_MAX:
                raise ValidationError("sampled times reach 2**31 minutes; the means are too large")
            if top > np.iinfo(tables[t].dtype).max:
                tables[t] = tables[t].astype(_narrowest(top))
            tables[t][b0:b0 + len(zb)].reshape(len(zb), -1)[:, idx] = part
    return ScenarioSet(*tables, rng_seed=seed)


def percentile_times(inst: Instance, scen: ScenarioSet, q: float):
    """Per-entry empirical q-th percentile (nearest-rank) across scenarios.

    Returns the (dur, travel) tables, each shaped like one scenario.
    """
    if not 0 < q <= 100:
        raise ValidationError("percentile must lie in (0, 100]")
    S = scen.count
    rank = max(1, math.ceil(q / 100.0 * S - 1e-9))  # nearest-rank, 1-based
    return np.sort(scen.dur, axis=0)[rank - 1], np.sort(scen.travel, axis=0)[rank - 1]


def save_scenarios(scen: ScenarioSet, path) -> None:
    """Compact binary serialization (npz)."""
    np.savez_compressed(path, dur=scen.dur, travel=scen.travel, out_t=scen.out_t,
                        in_t=scen.in_t, rng_seed=np.array([scen.rng_seed]))


def load_scenarios(path) -> ScenarioSet:
    """The scenario set ``save_scenarios`` wrote to ``path``; a
    ValidationError naming the file when it is not such a file."""
    try:
        data = np.load(path)
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ValidationError(f"{path} is not a scenario file: {exc}") from exc
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ValidationError(f"{path} is not a scenario file: it holds one array, not an npz")
    with data:
        missing = [n for n in (*SCENARIO_TABLES, "rng_seed") if n not in data.files]
        if missing:
            raise ValidationError(f"{path} lacks the scenario tables {missing}")
        try:
            return ScenarioSet(**{n: data[n] for n in SCENARIO_TABLES},
                               rng_seed=int(data["rng_seed"][0]))
        except (ValueError, IndexError) as exc:
            raise ValidationError(f"{path}: {exc}") from exc
