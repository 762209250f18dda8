"""Run workloads over several seeds, keep each run's output, print the spreads.

    python3 perfbench/runset.py --out .bench_out/runs/base --seeds 1-10
    python3 perfbench/runset.py --out .bench_out/runs/base --workloads oos-eval --trace 1

Run from the repository root. Runs are made one after another, each in its
own process, with the run length ``run_seconds`` from ``BENCHMARK.json``. To
summarise a directory that already holds runs, call ``summarize`` on it or
compare it with ``compare.py``. The summary gives, per workload and end-to-end metric,
the median, the quartiles and their distance as a share of the median
against the metric's bound; the share of failed operations; and, where traced
runs exist, the tracing overhead (traced over untraced median pass time).
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

from results import failed_share, load_spec, metric_values, quartiles, read_runs, spread


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(directory, spec) -> bool:
    """Print the spreads; False when an end-to-end spread exceeds its bound."""
    runs = read_runs(directory)
    steady = True
    for wl in [w["name"] for w in spec["workloads"]]:
        untraced = [r for r in runs if r["workload"] == wl and r["trace"] == 0]
        if not untraced:
            continue
        fail, att = failed_share(untraced, wl)
        correct = all(r["result"]["correct"] for r in untraced)
        print(f"{wl}: {len(untraced)} runs, correct={correct}, failed {fail}/{att}")
        for m in spec["end_to_end"]:
            values = [v for _, v in metric_values(runs, wl, 0, m["name"])]
            q1, med, q3 = quartiles(values)
            sp = spread(values)
            flag = ""
            if sp > m["bound"]:
                flag, steady = "  ABOVE BOUND", False
            elif sp > m["bound"] / 3:
                flag = "  above a third of the bound"
            print(f"  {m['name']:<14} median {med:.6g} {m['unit']}  "
                  f"q1 {q1:.6g}  q3 {q3:.6g}  spread {sp:.4f} (bound {m['bound']}){flag}")
        traced = [v for _, v in metric_values(runs, wl, 1, "trace.solve_s")]
        if traced:
            base = quartiles([v for _, v in metric_values(runs, wl, 0, "solve_s")])[1]
            over = quartiles(traced)[1] / base - 1.0
            print(f"  tracing overhead {100 * over:+.2f} % of solve_s "
                  f"({len(traced)} traced runs)")
    return steady


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="directory for the run outputs")
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for wl in args.workloads:
        for seed in parse_seeds(args.seeds):
            cmd = [*spec["command"], "--workload", wl, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            path = out / f"{wl}-seed{seed}-trace{args.trace}.txt"
            path.write_text(proc.stdout)
            if proc.returncode != 0 or proc.stderr.strip():
                (out / f"{wl}-seed{seed}-trace{args.trace}.err").write_text(proc.stderr)
            print(f"{wl} seed {seed} trace {args.trace}: exit {proc.returncode}; "
                  f"{proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ''}",
                  flush=True)
    return 0 if summarize(out, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
