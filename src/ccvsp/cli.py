"""Command-line front end: generate, sample, solve, evaluate, compare.

Exit codes: 0 success, 2 problem proven infeasible, 1 any other error
(including usage).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

from .baselines import (
    MEAN,
    NoSchedule,
    evaluate_out_of_sample,
    percentile,
    read_report,
    report_table,
    solve_deterministic,
)
from .bnc import BnCConfig, solve_bnc
from .core import (
    ServiceParams,
    ValidationError,
    load_instance,
    save_instance,
    schedule_cost,
    schedule_from_json,
)
from .cuts import CUT_KINDS, ECMIS
from .lagrangian import solve_lagrangian
from .scenarios import (
    LOGNORMAL_CV,
    GenParams,
    generate_instance,
    load_scenarios,
    sample_scenarios,
    save_scenarios,
)

EXIT_OK, EXIT_ERROR, EXIT_INFEASIBLE = 0, 1, 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_ERROR)


def _service_args(p: _Parser):
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--delta-trip", type=float, default=0.9)
    p.add_argument("--delta-route", type=float, default=0.8)
    p.add_argument("--lb", type=int, default=1)
    p.add_argument("--ub", type=int, default=5)


def _method(text: str) -> str:
    """A solve method: bnc, lagr, det-mean, or det-p<Q> written det-p{Q:g}."""
    if text in ("bnc", "lagr", "det-mean"):
        return text
    try:
        if text.startswith("det-p"):
            return f"det-p{float(text[5:]):g}"
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"{text!r} is not bnc, lagr, det-mean or det-p<Q>")


def build_parser() -> _Parser:
    parser = _Parser(prog="ccvsp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    g = sub.add_parser("generate", help="generate a random instance")
    g.add_argument("--trips", type=int, required=True)
    g.add_argument("--depots", type=int, required=True)
    g.add_argument("--route-size", type=int, default=10)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--grid", type=int, default=60)
    g.add_argument("--deploy-cost", type=int, default=1000)
    g.add_argument("-o", "--output", required=True)

    s = sub.add_parser("sample", help="sample travel-time scenarios")
    s.add_argument("--instance", required=True)
    s.add_argument("--scenarios", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--cv", type=float, default=LOGNORMAL_CV)
    s.add_argument("-o", "--output", required=True)

    so = sub.add_parser("solve", help="solve by exact, heuristic or baseline methods")
    so.add_argument("--instance", required=True)
    so.add_argument("--scenarios-file", required=True)
    so.add_argument("--method", type=_method, default="bnc",
                    help="bnc, lagr, det-mean or det-p<Q>, a plan at the Q-th percentile")
    so.add_argument("--cuts", choices=CUT_KINDS, default=ECMIS)
    so.add_argument("--vi", choices=["on", "off"], default="on")
    so.add_argument("--zc", choices=["on", "off"], default="on")
    so.add_argument("--time-limit", type=float, default=None)
    so.add_argument("--group-size", type=int, default=20)
    _service_args(so)
    so.add_argument("-o", "--output", required=True)

    e = sub.add_parser("evaluate", help="out-of-sample reliability of a solved schedule")
    e.add_argument("--instance", required=True)
    e.add_argument("--schedule", required=True, help="result JSON from solve")
    e.add_argument("--eval-scenarios", type=int, default=2000)
    e.add_argument("--seed", type=int, default=1)
    e.add_argument("--train-scenarios-file", default=None)
    _service_args(e)
    e.add_argument("-o", "--output", required=True)

    c = sub.add_parser("compare", help="aggregate evaluation reports into one table")
    c.add_argument("reports", nargs="+")
    c.add_argument("-o", "--output", required=True)
    return parser


def _load_params(inst, args) -> ServiceParams:
    return ServiceParams.for_instance(inst, args.lb, args.ub, args.delta_trip,
                                      args.delta_route, args.epsilon)


def cmd_generate(args) -> int:
    inst = generate_instance(GenParams(
        n_trips=args.trips, n_depots=args.depots, trips_per_route=args.route_size,
        grid_width=args.grid, grid_height=args.grid, deploy_cost=args.deploy_cost,
        seed=args.seed))
    save_instance(inst, args.output)
    print(f"wrote {args.output}: {inst.n_trips} trips, {inst.n_depots} depots, "
          f"{len(inst.compat)} compatible pairs")
    return EXIT_OK


def cmd_sample(args) -> int:
    inst = load_instance(args.instance)
    scen = sample_scenarios(inst, args.scenarios, args.seed, cv=args.cv)
    save_scenarios(scen, args.output)
    print(f"wrote {args.output}: {scen.count} scenarios")
    return EXIT_OK


def _finite_or_null(value):
    """The value with every non-finite float (inf, -inf, nan) replaced by None,
    through dicts, lists and tuples, so that it serializes as strict JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    scen = load_scenarios(args.scenarios_file)
    scen.check_instance(inst)
    params = _load_params(inst, args)
    cfg = BnCConfig(cut_family=args.cuts, use_vi=args.vi == "on", relax_z=args.zc == "on")
    method = args.method
    t0 = time.monotonic()
    if method.startswith("det-"):
        table = MEAN if method == "det-mean" else percentile(float(method[5:]))
        try:
            sched = solve_deterministic(inst, table, scen, time_limit=args.time_limit)
        except NoSchedule as stop:
            status, objective, schedule = stop.status, None, None
        else:
            status, objective, schedule = ("Optimal", schedule_cost(inst, sched),
                                           dataclasses.asdict(sched))
        doc = {"status": status, "method": method, "objective": objective,
               "schedule": schedule, "time_s": time.monotonic() - t0}
    else:
        if method == "bnc":
            res = solve_bnc(inst, params, scen, cfg, time_limit=args.time_limit)
        else:
            res = solve_lagrangian(inst, params, scen, cfg, m_gr=args.group_size,
                                   time_limit=args.time_limit)
        doc = dataclasses.asdict(res) | {"method": method}
    doc = _finite_or_null(doc)
    Path(args.output).write_text(json.dumps(doc, indent=1, allow_nan=False))
    if doc["status"] == "Infeasible":
        return EXIT_INFEASIBLE
    print(f"{method}: objective {json.dumps(doc['objective'])}")
    return EXIT_OK


def _read_result(path):
    """The result document of ``solve`` at ``path`` and its schedule; a
    ValidationError naming the file when it is not one or holds no schedule."""
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:          # not JSON, or not UTF-8 text
        raise ValidationError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{path} is not a result object")
    if doc.get("schedule") is None:
        raise ValidationError(f"{path} holds no schedule (status {doc.get('status')})")
    time_s = doc.get("time_s")
    if time_s is not None and (isinstance(time_s, bool) or not isinstance(time_s, (int, float))):
        raise ValidationError(f"{path}: time_s {time_s!r} is not a number")
    # nan fails this test, and so does an int past the largest float
    if not 0 <= (time_s or 0) <= sys.float_info.max:
        raise ValidationError(f"{path}: time_s {time_s!r} is not a finite number "
                              "of seconds at least 0")
    # the label becomes one field of a report row
    method = doc.get("method", "unknown")
    if not isinstance(method, str) or any(c in method for c in ",\r\n"):
        raise ValidationError(f"{path}: method {method!r} is not a label without commas "
                              "or line breaks")
    try:
        return doc, schedule_from_json(doc["schedule"])
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def cmd_evaluate(args) -> int:
    inst = load_instance(args.instance)
    params = _load_params(inst, args)
    doc, sched = _read_result(args.schedule)
    # check only what a schedule of another instance breaks; planning
    # compatibility and depot capacity are the solvers' concern
    if sorted(sched.trip_ids()) != list(range(1, inst.n_trips + 1)) or \
            any(not 1 <= b.depot <= inst.n_depots for b in sched.buses):
        raise ValidationError(f"{args.schedule} does not fit {args.instance}: it must serve "
                              f"each of trips 1..{inst.n_trips} once from depots 1..{inst.n_depots}")
    eval_scen = sample_scenarios(inst, args.eval_scenarios, args.seed)
    train = load_scenarios(args.train_scenarios_file) if args.train_scenarios_file else None
    rep = evaluate_out_of_sample(inst, params, sched, eval_scen,
                                 method=doc.get("method", "unknown"),
                                 train_scen=train, time_s=doc.get("time_s") or 0.0)
    table = report_table([(args.instance, inst.n_trips, inst.n_depots, eval_scen.count, rep)])
    Path(args.output).write_text(table + "\n")
    print(f"{rep.method}: {rep.eval_sat_pct:.2f}% of scenarios satisfied")
    return EXIT_OK


def cmd_compare(args) -> int:
    rows = [row for path in args.reports for row in read_report(path)]
    Path(args.output).write_text(report_table(rows) + "\n")
    print(f"wrote {args.output}: {len(rows)} rows")
    return EXIT_OK


COMMANDS = {
    "generate": cmd_generate,
    "sample": cmd_sample,
    "solve": cmd_solve,
    "evaluate": cmd_evaluate,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
