"""Compare two sets of benchmark runs, such as a parent commit and a change.

    python3 perfbench/compare.py .bench_out/runs/parent .bench_out/runs/change

Each directory holds the result files ``runset.py`` writes. Both sets must
have been run with the same run length, and a workload gets no verdicts when
any of its runs on either side failed an output check (``correct`` false).
Per workload and end-to-end metric it prints each side's median and
quartiles, the share of pairs each side wins (runs paired by seed; ties count
for neither) and a verdict for the second side against the first:

- ``unresolved``: either side's quartile distance is wider than the bound,
  and not every run of the second side beats every run of the first;
- ``worse``: the second median is worse than the first by more than the bound;
- ``improved``: the second side wins at least nine tenths of the pairs and
  its median is better by more than the first side's quartile distance;
- ``within bound`` otherwise.

Traced runs, when both sides have them, are listed per layer metric with each
side's median; layer metrics carry no bound and get no verdict.
"""

from __future__ import annotations

import sys

from results import failed_share, load_spec, metric_values, quartiles, read_runs, spread


def better(a: float, b: float, direction: str) -> bool:
    return a < b if direction == "lower" else a > b


def verdict(base: list[float], change: list[float], wins_change: float,
            direction: str, bound: float) -> str:
    q1, med_a, q3 = quartiles(base)
    med_b = quartiles(change)[1]
    sign = 1.0 if direction == "lower" else -1.0
    worsening = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    all_better = all(better(b, a, direction) for b in change for a in base)
    if max(spread(base), spread(change)) > bound and not all_better:
        return "unresolved"
    if worsening > bound:
        return "worse"
    if wins_change >= 0.9 and -sign * (med_b - med_a) > (q3 - q1):
        return "improved"
    return "within bound"


def pair_wins(base: list[tuple[int, float]], change: list[tuple[int, float]],
              direction: str) -> tuple[float, float, int]:
    """Share of seed-matched pairs won by each side, and the number of pairs."""
    b = dict(base)
    pairs = [(b[seed], v) for seed, v in change if seed in b]
    if not pairs:
        return 0.0, 0.0, 0
    won_a = sum(better(x, y, direction) for x, y in pairs)
    won_b = sum(better(y, x, direction) for x, y in pairs)
    return won_a / len(pairs), won_b / len(pairs), len(pairs)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    side_a, side_b = read_runs(argv[0]), read_runs(argv[1])
    lengths = {r["info"].get("seconds") for r in side_a + side_b}
    if len(lengths) > 1:
        print(f"compare: the runs differ in run length {sorted(map(str, lengths))}; "
              "compare only sets run with the same --seconds", file=sys.stderr)
        return 2
    for wl in [w["name"] for w in spec["workloads"]]:
        fa, aa = failed_share(side_a, wl)
        fb, ab = failed_share(side_b, wl)
        if not aa and not ab:
            continue
        print(f"{wl}: failed {fa}/{aa} vs {fb}/{ab}")
        wrong = [label for label, side in (("A", side_a), ("B", side_b))
                 if any(not r["result"]["correct"] for r in side if r["workload"] == wl)]
        if wrong:
            print(f"  outputs wrong in runs of side {' and '.join(wrong)}: no verdicts")
            continue
        for m in spec["end_to_end"]:
            a = metric_values(side_a, wl, 0, m["name"])
            b = metric_values(side_b, wl, 0, m["name"])
            if not a or not b:
                continue
            qa, qb = quartiles([v for _, v in a]), quartiles([v for _, v in b])
            win_a, win_b, n = pair_wins(a, b, m["better"])
            v = verdict([x for _, x in a], [x for _, x in b], win_b, m["better"], m["bound"])
            print(f"  {m['name']:<14} A {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                  f"B {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] {m['unit']}  "
                  f"wins A {win_a:.0%} B {win_b:.0%} of {n}  -> {v}")
        for m in spec["per_layer"]:
            a = [x for _, x in metric_values(side_a, wl, 1, m["name"])]
            b = [x for _, x in metric_values(side_b, wl, 1, m["name"])]
            if a and b:
                print(f"  {m['name']:<26} A {quartiles(a)[1]:.6g}  B {quartiles(b)[1]:.6g} "
                      f"{m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
