"""The benchmark's workloads: set-up, one timed pass, and the output checks.

Each workload builds its inputs from the run's seed, hands ``ccvsp`` only
those inputs, and checks every output against ``reference``. Solver inputs
(instances and training scenarios) are fixed: solve time varies many-fold
between generated instances and several generated instances are not closed by
the solver today (see README), so drawing them from the seed would make a
run's time depend on the seed more than on the code. The seed draws the order
of the solves and, on ``oos-eval``, the evaluation scenarios.

A workload's ``setup`` returns its inputs and ``call`` makes one timed call on
one of them; a pass calls it once per input. ``check_outcome`` turns each
``Outcome`` into the names of the checks it failed. A failure listed in ``KNOWN_FAULTS`` marks the
operation failed; any other failure marks the output wrong.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ccvsp import baselines, bnc, core, lagrangian, scenarios

import reference as ref

HERE = Path(__file__).resolve().parent
OPTIMA_FILE = HERE / "highs_optima.json"
# Faults of the program that fail the same operations on every run; each is
# counted as a failed operation, not as wrong output (see README).
DUAL_BOUND_FAULT = "lagrangian dual bound below an attained Lagrangian value"
BOUND_FAULT = "branch-and-cut bound above the objective"
KNOWN_FAULTS = {DUAL_BOUND_FAULT, BOUND_FAULT}
REL_TOL = 1e-6


@dataclass
class Outcome:
    kind: str          # "solve", "lagrangian" or "oos"
    output: object


@dataclass
class Case:
    """One solver input with everything the pass and the checks need."""

    key: str
    inst: object
    params: object
    train: object
    window: tuple
    rates: tuple
    epsilon: float
    held_out: object = None
    det: object = None


def derived_seed(seed: int, *tags: int) -> int:
    """A sampling seed for the given run seed and input, stable across runs."""
    return int(np.random.SeedSequence([seed % 2**32, *tags]).generate_state(1)[0])


def rotated(items: list, seed: int) -> list:
    k = seed % len(items)
    return items[k:] + items[:k]


def service(inst, window, rates, epsilon):
    return core.ServiceParams.for_instance(inst, lb=window[0], ub=window[1],
                                           delta_trip=rates[0], delta_route=rates[1],
                                           epsilon=epsilon)


# -- stored HiGHS optima ----------------------------------------------------

def load_optima() -> dict:
    if not OPTIMA_FILE.exists():
        return {}
    with open(OPTIMA_FILE) as fh:
        return json.load(fh)


def highs_optimum(case: Case, optima: dict) -> float:
    """Stored optimum when its fingerprint matches the inputs; else solve now."""
    fp = ref.fingerprint(case.inst, case.train, case.window, case.rates, case.epsilon)
    entry = optima.get(case.key)
    if entry is None or entry["fingerprint"] != fp:
        print(f"perfbench: no stored HiGHS optimum for {case.key} with these inputs; "
              "solving it now (make_refs.py stores it)", file=sys.stderr)
        entry = ref.highs_optimum(case.inst, case.train, case.window, case.rates, case.epsilon)
        if entry["optimum"] is None or entry["status"] != 0:
            raise RuntimeError(f"HiGHS did not solve {case.key}: {entry['message']}")
        entry["fingerprint"] = fp
        optima[case.key] = entry
    return float(entry["optimum"])


# -- shared checks ------------------------------------------------------------

def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def check_report(case: Case, sched, report, failed: list[str]) -> None:
    """Out-of-sample report against an independent replay and cost."""
    for scen, pct, label in ((case.held_out, report.eval_sat_pct, "held-out"),
                             (case.train, report.train_sat_pct, "training")):
        n = scen.count
        good = n - ref.violated_count(case.inst, case.window, case.rates, sched, scen)
        if pct is None or abs(pct * n / 100.0 - good) > 1e-6:
            failed.append(f"{label} satisfied count {pct} % of {n} != replay {good}")
    if report.objective != ref.schedule_cost(case.inst, sched):
        failed.append("report objective != recomputed cost")


def check_outcome(case: Case, out: Outcome, optima: dict) -> list[str]:
    failed: list[str] = []
    budget = ref.floor_share(case.train.count, case.epsilon)
    res = out.output
    if out.kind == "oos":
        sched, report = res
        check_report(case, sched, report, failed)
        return failed
    if res.schedule is None:
        return ["no schedule returned"]
    failed += ref.check_schedule(case.inst, res.schedule)
    cost = ref.schedule_cost(case.inst, res.schedule)
    if not close(res.objective, cost):
        failed.append(f"objective {res.objective} != recomputed cost {cost}")
    bad = ref.violated_count(case.inst, case.window, case.rates, res.schedule, case.train)
    if out.kind == "solve":
        if res.status != "Optimal":
            failed.append(f"status {res.status}")
        opt = highs_optimum(case, optima)
        if not close(res.objective, opt):
            failed.append(f"objective {res.objective} != HiGHS optimum {opt}")
        if bad > budget:
            failed.append(f"{bad} violated training scenarios, budget {budget}")
        if res.train_violations != bad:
            failed.append(f"reported violations {res.train_violations} != replay {bad}")
        if res.bound > res.objective + REL_TOL * max(1.0, abs(res.objective)):
            failed.append(BOUND_FAULT)
    else:
        if res.violations != bad:
            failed.append(f"reported violations {res.violations} != replay {bad}")
        if res.feasible != (bad <= budget):
            failed.append(f"feasible={res.feasible} with {bad} violations, budget {budget}")
        if res.feasible:
            opt = highs_optimum(case, optima)
            if res.objective < opt - REL_TOL * max(1.0, abs(opt)):
                failed.append(f"feasible incumbent {res.objective} below optimum {opt}")
        if res.primal_bound > res.dual_bound + 1e-9 * max(1.0, abs(res.dual_bound)):
            failed.append(DUAL_BOUND_FAULT)
    return failed


# -- workloads ---------------------------------------------------------------

class BncExact:
    """``solve_bnc`` with the default config over a ladder of fixed instances."""

    name = "bnc-exact"
    setups = 15                 # set-up runs per run; its median is setup_s
    # (trips, training scenarios, instance seed, scenario seed); every rung is
    # proved optimal by the solver today. I=40, S=100 (seed 1) is left out: one
    # 20-30 s solve per run cannot give a steady median (see README).
    RUNGS = [(20, 50, 1, 2), (24, 50, 2, 3), (30, 80, 2, 3), (20, 300, 1, 2)]
    WINDOW, RATES, EPSILON = (1, 5), (0.9, 0.8), 0.05

    def setup(self, seed: int) -> list[Case]:
        cases = []
        for n, n_scen, gen_seed, scen_seed in self.RUNGS:
            inst = scenarios.generate_instance(
                scenarios.GenParams(n_trips=n, n_depots=2, seed=gen_seed))
            train = scenarios.sample_scenarios(inst, n_scen, seed=scen_seed)
            cases.append(Case(f"bnc/I{n}-S{n_scen}-g{gen_seed}-s{scen_seed}", inst,
                              service(inst, self.WINDOW, self.RATES, self.EPSILON),
                              train, self.WINDOW, self.RATES, self.EPSILON))
        return rotated(cases, seed)

    def call(self, case: Case) -> Outcome:
        return Outcome("solve", bnc.solve_bnc(case.inst, case.params, case.train,
                                              bnc.BnCConfig()))


class OosEval:
    """Out-of-sample replay of the det-mean and det-p75 schedules."""

    name = "oos-eval"
    setups = 5
    N_TRIPS, GEN_SEED, TRAIN, TRAIN_SEED, EVAL = 50, 7, 200, 8, 3000
    WINDOW, RATES, EPSILON = (1, 5), (0.9, 0.8), 0.05

    def setup(self, seed: int) -> list[Case]:
        inst = scenarios.generate_instance(
            scenarios.GenParams(n_trips=self.N_TRIPS, n_depots=2, seed=self.GEN_SEED))
        train = scenarios.sample_scenarios(inst, self.TRAIN, seed=self.TRAIN_SEED)
        evals = scenarios.sample_scenarios(inst, self.EVAL, seed=derived_seed(seed, 0))
        params = service(inst, self.WINDOW, self.RATES, self.EPSILON)
        cases = []
        for label, times in (("det-mean", baselines.MEAN),
                             ("det-p75", baselines.percentile(75))):
            det = baselines.solve_deterministic(inst, times, train)
            cases.append(Case(f"oos/{label}", inst, params, train,
                              self.WINDOW, self.RATES, self.EPSILON, evals, det))
        return rotated(cases, seed)

    def call(self, case: Case) -> Outcome:
        report = baselines.evaluate_out_of_sample(case.inst, case.params, case.det,
                                                  case.held_out, case.key,
                                                  train_scen=case.train)
        return Outcome("oos", (case.det, report))


class LagrDecomp:
    """``solve_lagrangian`` on fixed tight instances built like demo 04."""

    name = "lagr-decomp"
    setups = 9
    SEEDS = [22, 24, 25]
    N_TRIPS, N_SCEN, SCEN_SEED, M_GR = 24, 20, 303, 12
    WINDOW, RATES, EPSILON = (1, 4), (1.0, 1.0), 0.1

    def setup(self, seed: int) -> list[Case]:
        cases = []
        for gen_seed in self.SEEDS:
            inst = scenarios.generate_instance(scenarios.GenParams(
                n_trips=self.N_TRIPS, n_depots=2, trips_per_route=12, grid_width=80,
                grid_height=80, headway_buffer=(0, 4), seed=gen_seed))
            train = scenarios.sample_scenarios(inst, self.N_SCEN, seed=self.SCEN_SEED)
            det = baselines.solve_deterministic(inst, baselines.percentile(75), train)
            cases.append(Case(f"lagr/I{self.N_TRIPS}-g{gen_seed}-s{self.SCEN_SEED}", inst,
                              service(inst, self.WINDOW, self.RATES, self.EPSILON),
                              train, self.WINDOW, self.RATES, self.EPSILON, det=det))
        return rotated(cases, seed)

    def call(self, case: Case) -> Outcome:
        return Outcome("lagrangian", lagrangian.solve_lagrangian(
            case.inst, case.params, case.train, bnc.BnCConfig(), m_gr=self.M_GR,
            det_sched=case.det, max_iters=30, rel_tol=1e-6))


WORKLOADS = {w.name: w for w in (BncExact(), OosEval(), LagrDecomp())}


def pass_cost(outcomes: list[Outcome]) -> float:
    """Sum of the costs of the schedules the pass's calls returned: solve
    objectives, or the objectives of the out-of-sample reports."""
    return float(sum(o.output[1].objective if o.kind == "oos" else o.output.objective
                     for o in outcomes))


def expected_counts(outcomes: list[tuple[Case, Outcome]]) -> dict[str, int]:
    """Layer counts one pass must show, from the results the calls returned."""
    solves = [o.output for _, o in outcomes if o.kind == "solve"]
    lagr = [o.output for _, o in outcomes if o.kind == "lagrangian"]
    expected = {}
    if solves:
        expected["milp.bnb_nodes"] = sum(r.nodes for r in solves)
        expected["bnc.cuts_added"] = sum(sum(r.cuts_added.values()) for r in solves)
    if lagr:
        expected["lagrangian.iterations"] = sum(r.iterations for r in lagr)
        expected["lagrangian.group_solves"] = sum(r.iterations * r.n_groups for r in lagr)
    if not solves and not lagr:
        # replays are the only evaluator calls when nothing is solved
        expected["subproblem.evals"] = sum(c.held_out.count + c.train.count
                                           for c, _ in outcomes)
    return expected
