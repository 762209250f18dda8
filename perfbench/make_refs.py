"""Solve every benchmark solver input with HiGHS and store the optima.

    python3 perfbench/make_refs.py

Run from the repository root. Writes ``perfbench/highs_optima.json``: per
input key, the HiGHS optimum and dual bound, the solve time and a fingerprint
of the inputs. The benchmark uses a stored optimum only while the fingerprint
matches, and otherwise solves the model again during its checks.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(Path.cwd() / "src"), str(HERE)]

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402


def main() -> int:
    optima = {}
    for name in ("bnc-exact", "lagr-decomp"):
        for case in wl.WORKLOADS[name].setup(seed=0):
            entry = ref.highs_optimum(case.inst, case.train, case.window, case.rates,
                                      case.epsilon)
            if entry["status"] != 0 or entry["optimum"] is None:
                print(f"{case.key}: HiGHS did not prove optimality: {entry['message']}",
                      file=sys.stderr)
                return 1
            entry["fingerprint"] = ref.fingerprint(case.inst, case.train, case.window,
                                                   case.rates, case.epsilon)
            optima[case.key] = entry
            print(f"{case.key}: optimum {entry['optimum']} in {entry['highs_s']} s", flush=True)
    with open(wl.OPTIMA_FILE, "w") as fh:
        json.dump(optima, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
