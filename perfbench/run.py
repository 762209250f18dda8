"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload bnc-exact --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/`` there.
A run repeats whole passes over the workload's inputs until the passes have
taken ``--seconds``, setting the inputs up ``setups`` times at even intervals
in between (reporting the median set-up time), then checks every output.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics from a tracer installed around ``ccvsp``'s public
functions, and writes the spans to
``.bench_out/spans-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
WATCHDOG_S = 170
# Times are scaled to a machine on which ``calibrate()`` takes this long: its
# time on the 2-core 2.0 GHz Xeon the README's figures come from, when the
# machine is not slowed by other tenants.
CAL_REF_S = 0.0115
END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "schedule_cost": "cost"}


def blas_info() -> dict:
    """OpenBLAS build and thread count of the numpy in use, when it reports them."""
    import ctypes

    import numpy as np

    info = {"numpy": np.__version__}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and config is not None:
                    config.restype = ctypes.c_char_p
                    info["blas"] = config().decode()
                    info["blas_threads"] = int(threads())
                    return info
    return info


class Watchdog(Exception):
    pass


def _alarm(signum, frame):
    raise Watchdog(f"run exceeded {WATCHDOG_S} s")


class Call(NamedTuple):
    outcome: object
    wall_s: float
    cpu_s: float
    cal_s: float            # calibration time around the call: the machine's speed then

    def scaled(self, seconds: float) -> float:
        return seconds * CAL_REF_S / self.cal_s


def calibrate() -> float:
    """Seconds a fixed loop of interpreter and small numpy work takes now.

    The loop uses nothing of ``ccvsp``, so a change to the program cannot move
    it; it moves with the speed the shared machine gives this process.
    """
    import numpy as np

    t0 = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(60000):
        d[i % 977] = d.get(i % 977, 0) + 3 * i
    a = np.arange(2000.0)
    for _ in range(200):
        a = np.sqrt(a * a + 1.0)
    return time.perf_counter() - t0


def timed_pass(workload, cases, begin) -> list[Call]:
    """One call per input, each between two calibrations."""
    calls = []
    before = calibrate()
    for case in cases:
        begin()
        w0, c0 = time.perf_counter(), time.process_time()
        outcome = workload.call(case)
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        after = calibrate()
        calls.append(Call(outcome, wall, cpu, (before + after) / 2))
        before = after
    return calls


def timed_setup(workload, seed: int) -> tuple[list, Call]:
    before = calibrate()
    t0 = time.perf_counter()
    cases = workload.setup(seed)
    wall = time.perf_counter() - t0
    return cases, Call(None, wall, 0.0, (before + calibrate()) / 2)


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads as wl

    workload = wl.WORKLOADS[workload_name]
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    def marker(kind, index):
        """Opens a new traced operation in window (kind, index) when called."""
        return (lambda: tracer.begin_op(kind, index)) if tracer else (lambda: None)

    # Set-ups are spread over the run, between passes, so that they sample the
    # same stretch of the machine's load as the passes do.
    setups: list[Call] = []
    passes: list[list[Call]] = []
    cases = None
    pass_time = 0.0
    while len(setups) < workload.setups or pass_time < seconds:
        if (len(setups) < workload.setups
                and pass_time >= len(setups) * seconds / workload.setups):
            cases = None                                   # free the previous inputs first
            marker("setup", len(setups))()
            cases, setup = timed_setup(workload, seed)
            setups.append(setup)
            continue
        passes.append(timed_pass(workload, cases, marker("pass", len(passes))))
        pass_time += sum(c.wall_s for c in passes[-1])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer:
        tracer.uninstall()

    # Every set-up makes the same inputs, so each outcome is checked against
    # the inputs of the last one.
    optima = wl.load_optima()
    attempted = failed = 0
    correct = True
    fault_names: set[str] = set()
    for calls in passes:
        for case, call in zip(cases, calls):
            attempted += 1
            problems = wl.check_outcome(case, call.outcome, optima)
            if problems:
                failed += 1
                fault_names.update(problems)
                if not set(problems) <= wl.KNOWN_FAULTS:
                    correct = False
                    print(f"check failed on {call.outcome.kind} {case.key}: {problems}",
                          file=sys.stderr)

    def per_pass(field: str) -> float:
        """Sum over the inputs of the median scaled time of their calls."""
        return sum(statistics.median(p[i].scaled(getattr(p[i], field)) for p in passes)
                   for i in range(len(cases)))

    solve_s = per_pass("wall_s")
    reconcile = {}
    if tracer:
        metrics = tracer.per_layer()
        metrics["trace.solve_s"] = solve_s
        from tracer import PER_LAYER_UNITS as units

        traced = tracer.window_totals()[("pass", 0)]
        first = [(case, call.outcome) for case, call in zip(cases, passes[0])]
        for name, want in wl.expected_counts(first).items():
            reconcile[name] = {"expected": want, "traced": traced.get(name, 0)}
            if traced.get(name, 0) != want:
                correct = False
                print(f"perfbench: traced {name} {traced.get(name, 0)} != {want} "
                      "from the returned results", file=sys.stderr)
        out_dir = Path.cwd() / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{workload_name}-seed{seed}.jsonl")
    else:
        metrics = {
            "setup_s": statistics.median(c.scaled(c.wall_s) for c in setups),
            "solve_s": solve_s,
            "cpu_s": per_pass("cpu_s"),
            "peak_rss_mb": peak_rss_mb,
            "schedule_cost": statistics.median(wl.pass_cost([c.outcome for c in calls])
                                               for calls in passes),
        }
        units = END_TO_END_UNITS
    info = {"info": {"workload": workload_name, "seed": seed, "trace": int(trace),
                     "seconds": seconds, "passes": len(passes), "setups": len(setups),
                     "pass_wall_s": [round(sum(c.wall_s for c in p), 4) for p in passes],
                     "setup_wall_s": [round(c.wall_s, 4) for c in setups],
                     "cal_s": [round(c.cal_s, 5) for p in passes for c in p],
                     "failed_checks": sorted(fault_names), "reconcile": reconcile,
                     "python": platform.python_version(), **blas_info()}}
    print(json.dumps(info))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ccvsp" / "__init__.py").is_file():
        print(f"perfbench: no ccvsp sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(WATCHDOG_S)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Watchdog as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
