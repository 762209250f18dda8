"""Reading result files and the statistics the summaries print.

A result file is the standard output of one ``run.py`` run: an ``info`` line
naming the workload, seed and trace mode, and the result object as its last
line.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_spec() -> dict:
    with open(BENCHMARK) as fh:
        return json.load(fh)


def read_run(path: Path) -> dict | None:
    """{'workload', 'seed', 'trace', 'result'} of one run, or None if it gave no result."""
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    info = next((json.loads(ln)["info"] for ln in lines if ln.startswith('{"info"')), None)
    if info is None or not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if "metrics" not in result:
        return None
    return {"workload": info["workload"], "seed": info["seed"], "trace": info["trace"],
            "info": info, "result": result}


def read_runs(directory) -> list[dict]:
    runs = [read_run(p) for p in sorted(Path(directory).glob("*.txt"))]
    return [r for r in runs if r is not None]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def metric_values(runs: list[dict], workload: str, trace: int, name: str) -> list[tuple[int, float]]:
    return [(r["seed"], r["result"]["metrics"][name]["value"]) for r in runs
            if r["workload"] == workload and r["trace"] == trace
            and name in r["result"]["metrics"]]


def failed_share(runs: list[dict], workload: str) -> tuple[int, int]:
    att = sum(r["result"]["attempted"] for r in runs if r["workload"] == workload)
    fail = sum(r["result"]["failed"] for r in runs if r["workload"] == workload)
    return fail, att
