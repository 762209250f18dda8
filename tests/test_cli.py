"""Baselines, evaluation and the command-line pipeline."""

import dataclasses
import json
import math
import re
import time

import numpy as np
import pytest

from ccvsp import gallery
from ccvsp.baselines import MEAN, evaluate_out_of_sample, percentile, report_table, solve_deterministic
from ccvsp.cli import main
from ccvsp.core import (
    Bus,
    Schedule,
    ServiceParams,
    ValidationError,
    build_compat,
    load_instance,
    schedule_cost,
    schedule_from_json,
    validate_schedule,
)
from ccvsp.milp import MilpSolution
from ccvsp.scenarios import GenParams, generate_instance, percentile_times, sample_scenarios


def test_mean_baseline_on_grid_costs_twenty():
    inst = gallery.two_depot_grid()
    sched = solve_deterministic(inst, MEAN)
    assert schedule_cost(inst, sched) == 20


def test_percentile_100_compat_subset_of_mean():
    inst = generate_instance(GenParams(n_trips=20, n_depots=2, seed=2))
    scen = sample_scenarios(inst, 30, seed=5)
    d100, t100, *_ = percentile_times(scen, 100)
    mean_d = np.array([t.mean_dur for t in inst.trips])
    hi = build_compat(inst.trips, np.maximum(t100, inst.dh_time), np.maximum(d100, mean_d))
    assert hi <= inst.compat


def test_deterministic_matches_enumeration():
    import sys

    sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
    from conftest import enumerate_schedules, random_instance

    rng = np.random.default_rng(31)
    inst = random_instance(rng, n_trips=6)
    sched = solve_deterministic(inst, MEAN)
    best = min(schedule_cost(inst, s) for s in enumerate_schedules(inst))
    assert schedule_cost(inst, sched) == best


def test_single_trip_buses_always_satisfy():
    inst, params, _, scen = gallery.delay_chain()
    singles = Schedule(tuple(Bus(1, (i,)) for i in range(1, 7)))
    rep = evaluate_out_of_sample(inst, params, singles, scen, method="singles", time_s=0.0)
    assert rep.eval_sat_pct == 100.0
    # the report's time is the solve time it is given, not the replay's
    assert rep.time_s == 0.0


def test_training_feasible_schedule_meets_rate():
    inst = gallery.two_depot_grid()
    params = gallery.grid_service_params(inst)
    scen = gallery.grid_scenarios()
    right = gallery.grid_schedule_right()
    rep = evaluate_out_of_sample(inst, params, right, scen, method="cc",
                                 train_scen=scen)
    assert rep.train_sat_pct >= 100.0 * (1 - params.epsilon)


def test_compare_table_diffs():
    inst = gallery.two_depot_grid()
    params = gallery.grid_service_params(inst)
    scen = gallery.grid_scenarios()
    right = gallery.grid_schedule_right()
    r1 = evaluate_out_of_sample(inst, params, right, scen, method="det-mean")
    r2 = evaluate_out_of_sample(inst, params, right, scen, method="cc")
    table = report_table([("g", inst.n_trips, inst.n_depots, 2, r1),
                          ("g", inst.n_trips, inst.n_depots, 2, r2)])
    lines = table.splitlines()
    assert lines[0].startswith("method,instance,I,K,S,objective")
    assert lines[2].split(",")[6] == "0.000"  # same objective -> zero diff


def test_cli_round_trip(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    scen_path = tmp_path / "scen.npz"
    out_path = tmp_path / "result.json"
    rep_path = tmp_path / "report.csv"
    assert main(["generate", "--trips", "10", "--depots", "2", "--route-size", "5",
                 "--seed", "3", "-o", str(inst_path)]) == 0
    assert main(["sample", "--instance", str(inst_path), "--scenarios", "8",
                 "--seed", "4", "-o", str(scen_path)]) == 0
    assert main(["solve", "--instance", str(inst_path), "--scenarios-file",
                 str(scen_path), "--method", "bnc", "--cuts", "ecmis",
                 "--epsilon", "0.25", "--delta-trip", "0.8", "--delta-route", "0.6",
                 "-o", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert doc["status"] == "Optimal"
    assert main(["evaluate", "--instance", str(inst_path), "--schedule", str(out_path),
                 "--eval-scenarios", "50", "--seed", "9",
                 "--epsilon", "0.25", "--delta-trip", "0.8", "--delta-route", "0.6",
                 "-o", str(rep_path)]) == 0
    text = rep_path.read_text()
    assert text.startswith("method,instance,I,K,S,")
    cmp_path = tmp_path / "table.csv"
    assert main(["compare", str(rep_path), "-o", str(cmp_path)]) == 0


def test_cli_unknown_flag_exits_one(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["generate", "--bogus", "1"])
    assert err.value.code == 1


def test_cli_deterministic_methods(tmp_path):
    inst_path = tmp_path / "inst.json"
    scen_path = tmp_path / "scen.npz"
    main(["generate", "--trips", "8", "--depots", "2", "--route-size", "4",
          "--seed", "1", "-o", str(inst_path)])
    main(["sample", "--instance", str(inst_path), "--scenarios", "6", "--seed", "2",
          "-o", str(scen_path)])
    for method in ("det-mean", "det-p75"):
        out = tmp_path / f"{method}.json"
        assert main(["solve", "--instance", str(inst_path), "--scenarios-file",
                     str(scen_path), "--method", method, "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["objective"] > 0


def test_cli_master_over_the_cap_exits_one(tmp_path, capsys, monkeypatch):
    from ccvsp import bnc, milp
    from ccvsp.scenarios import load_scenarios

    inst_path = tmp_path / "inst.json"
    scen_path = tmp_path / "scen.npz"
    assert main(["generate", "--trips", "8", "--depots", "2", "--route-size", "4",
                 "--seed", "1", "-o", str(inst_path)]) == 0
    assert main(["sample", "--instance", str(inst_path), "--scenarios", "6", "--seed", "2",
                 "-o", str(scen_path)]) == 0
    capsys.readouterr()
    inst = load_instance(inst_path)
    params = ServiceParams.for_instance(inst, lb=1, ub=5, delta_trip=0.9,   # CLI defaults
                                        delta_route=0.8, epsilon=0.05)
    model = bnc.MasterModel(inst, params, load_scenarios(scen_path), bnc.BnCConfig()).model
    n, m = model.n_vars, model.n_rows
    need = 8 * m * (n + 2 * m) + 4 * 8 * m * m    # the root LP's dense arrays
    monkeypatch.setattr(milp, "_BYTES_CAP", need - 1)
    assert main(["solve", "--instance", str(inst_path), "--scenarios-file", str(scen_path),
                 "--method", "bnc", "-o", str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: the LP of {n} columns and {m} rows needs {need} bytes of dense "
                   f"arrays, over the cap of {need - 1} bytes\n"), err
    assert not (tmp_path / "out.json").exists()


def test_cli_median_baseline_stays_in_planning_set(tmp_path):
    # at the median, pair (5,8) is compatible under the shorter table but not
    # under the means; the schedule must still pass the instance's checks
    inst_path = tmp_path / "inst.json"
    scen_path = tmp_path / "scen.npz"
    out = tmp_path / "p50.json"
    assert main(["generate", "--trips", "10", "--depots", "2", "--route-size", "5",
                 "--seed", "17", "-o", str(inst_path)]) == 0
    assert main(["sample", "--instance", str(inst_path), "--scenarios", "8", "--seed", "1",
                 "-o", str(scen_path)]) == 0
    assert main(["solve", "--instance", str(inst_path), "--scenarios-file", str(scen_path),
                 "--method", "det-p50", "-o", str(out)]) == 0
    validate_schedule(load_instance(inst_path),
                      schedule_from_json(json.loads(out.read_text())["schedule"]))
    assert main(["evaluate", "--instance", str(inst_path), "--schedule", str(out),
                 "--eval-scenarios", "20", "-o", str(tmp_path / "p50.csv")]) == 0


@pytest.mark.parametrize("seed", [17, 19, 21, 23])
def test_low_percentile_baselines_stay_in_planning_set(seed):
    # on these seeds a q = 25 or q = 50 table finds pairs compatible that the
    # means do not, and the cheapest plan used to sequence one of them
    inst = generate_instance(GenParams(n_trips=12, n_depots=2, trips_per_route=6, seed=seed))
    scen = sample_scenarios(inst, 10, seed=seed + 100)
    for q in (25, 50):
        sched = solve_deterministic(inst, percentile(q), scen)
        validate_schedule(inst, sched)
        assert schedule_cost(inst, sched) > 0


def test_deterministic_time_limit_stop_names_the_limit(monkeypatch):
    from ccvsp import baselines

    monkeypatch.setattr(baselines, "bnb_solve", lambda *a, **kw: MilpSolution("IterLimit"))
    with pytest.raises(ValidationError, match="within the time limit") as err:
        solve_deterministic(gallery.two_depot_grid(), MEAN, time_limit=1.0)
    assert "capacity" not in str(err.value)


def test_deterministic_time_limit_counts_the_model_build(monkeypatch):
    """A build that takes longer than the whole limit leaves no time to search."""
    from ccvsp import baselines

    flow_model = baselines.FlowModel

    def slow(*args):
        time.sleep(0.3)
        return flow_model(*args)

    monkeypatch.setattr(baselines, "FlowModel", slow)
    with pytest.raises(baselines.NoSchedule) as err:
        solve_deterministic(gallery.two_depot_grid(), MEAN, time_limit=0.2)
    assert err.value.status == "IterLimit"


@pytest.mark.parametrize("method", ["bnc", "lagr", "det-mean", "det-p75"])
def test_nan_time_limit_is_refused(tmp_path, capsys, method):
    """nan is no number of seconds: every solver refuses it, and the CLI
    exits 1 with one error line."""
    from ccvsp.bnc import BnCConfig, solve_bnc
    from ccvsp.core import save_instance
    from ccvsp.lagrangian import solve_lagrangian
    from ccvsp.scenarios import save_scenarios

    inst, scen = gallery.two_depot_grid(), gallery.grid_scenarios()
    params = gallery.grid_service_params(inst)
    solve = {
        "bnc": lambda: solve_bnc(inst, params, scen, BnCConfig(), time_limit=math.nan),
        "lagr": lambda: solve_lagrangian(inst, params, scen, BnCConfig(), m_gr=4,
                                         time_limit=math.nan),
        "det-mean": lambda: solve_deterministic(inst, MEAN, time_limit=math.nan),
        "det-p75": lambda: solve_deterministic(inst, percentile(75), scen, time_limit=math.nan),
    }[method]
    message = "time limit is nan, not a number of seconds"
    with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
        solve()
    save_instance(inst, tmp_path / "inst.json")
    save_scenarios(scen, tmp_path / "scen.npz")
    capsys.readouterr()
    assert main(["solve", "--instance", str(tmp_path / "inst.json"), "--scenarios-file",
                 str(tmp_path / "scen.npz"), "--method", method, "--time-limit", "nan",
                 "-o", str(tmp_path / "out.json")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out.json").exists()


def test_pipeline_determinism(tmp_path):
    docs = []
    for run in range(2):
        inst_path = tmp_path / f"i{run}.json"
        scen_path = tmp_path / f"s{run}.npz"
        out = tmp_path / f"r{run}.json"
        main(["generate", "--trips", "8", "--depots", "2", "--route-size", "4",
              "--seed", "7", "-o", str(inst_path)])
        main(["sample", "--instance", str(inst_path), "--scenarios", "5",
              "--seed", "8", "-o", str(scen_path)])
        main(["solve", "--instance", str(inst_path), "--scenarios-file", str(scen_path),
              "--method", "bnc", "--epsilon", "0.3", "--delta-trip", "0.8",
              "--delta-route", "0.6", "-o", str(out)])
        doc = json.loads(out.read_text())
        doc.pop("time_s")
        docs.append(doc)
    assert docs[0] == docs[1]


def test_cli_solve_infeasible_exits_two(tmp_path):
    import numpy as np

    from ccvsp.core import Depot, Instance, Trip, instance_to_json, save_instance
    from ccvsp.scenarios import ScenarioSet, save_scenarios

    trips = [Trip(1, 1, (0, 0), (5, 0), 100, 10, 0),
             Trip(2, 1, (0, 0), (5, 0), 100, 10, 0)]  # same start: cannot chain
    inst = Instance(trips, [Depot(1, (0, 0), 1)],
                    np.zeros((2, 2), dtype=np.int64), np.zeros((1, 2), dtype=np.int64),
                    np.zeros((2, 1), dtype=np.int64), np.zeros((2, 2), dtype=np.int64),
                    np.zeros((1, 2), dtype=np.int64), np.zeros((2, 1), dtype=np.int64),
                    compat=[])
    inst_path = tmp_path / "tight.json"
    scen_path = tmp_path / "scen.npz"
    save_instance(inst, inst_path)
    save_scenarios(ScenarioSet(np.full((2, 2), 10, dtype=np.int64),
                               np.zeros((2, 2, 2), dtype=np.int64),
                               np.zeros((2, 1, 2), dtype=np.int64),
                               np.zeros((2, 2, 1), dtype=np.int64)), scen_path)
    code = main(["solve", "--instance", str(inst_path), "--scenarios-file",
                 str(scen_path), "--method", "bnc", "--epsilon", "0.4",
                 "--delta-trip", "0.9", "--delta-route", "0.5",
                 "-o", str(tmp_path / "r.json")])
    assert code == 2


def test_lagr_single_group_infeasible_exits_two(tmp_path):
    import numpy as np

    from ccvsp.bnc import BnCConfig
    from ccvsp.core import Depot, Instance, Trip, save_instance
    from ccvsp.lagrangian import solve_lagrangian
    from ccvsp.scenarios import ScenarioSet, save_scenarios

    def zeros(*shape):
        return np.zeros(shape, dtype=np.int64)

    # one bus must chain both trips; trip 1 overruns in one of eight scenarios
    # and makes trip 2 late, which a budget of zero cannot absorb
    trips = [Trip(1, 1, (0, 0), (0, 0), 100, 10, 0), Trip(2, 1, (0, 0), (0, 0), 115, 10, 0)]
    inst = Instance(trips, [Depot(1, (0, 0), 1)], zeros(2, 2), zeros(1, 2),
                    zeros(2, 1), zeros(2, 2), zeros(1, 2), zeros(2, 1), compat=[(1, 2)])
    dur = np.full((8, 2), 10, dtype=np.int64)
    dur[7, 0] = 30
    scen = ScenarioSet(dur, zeros(8, 2, 2), zeros(8, 1, 2), zeros(8, 2, 1))
    params = ServiceParams.for_instance(inst, lb=1, ub=5, delta_trip=1.0, delta_route=1.0,
                                        epsilon=0.1)
    res = solve_lagrangian(inst, params, scen, BnCConfig(), m_gr=20)
    assert (res.status, res.n_groups, res.schedule) == ("Infeasible", 1, None)
    save_instance(inst, tmp_path / "chain.json")
    save_scenarios(scen, tmp_path / "chain.npz")
    assert main(["solve", "--instance", str(tmp_path / "chain.json"), "--scenarios-file",
                 str(tmp_path / "chain.npz"), "--method", "lagr", "--epsilon", "0.1",
                 "--delta-trip", "1", "--delta-route", "1", "-o", str(tmp_path / "r.json")]) == 2


def test_cli_lagr_time_limit_stop_exits_zero(tmp_path):
    inst_path = tmp_path / "inst.json"
    scen_path = tmp_path / "scen.npz"
    out = tmp_path / "lagr.json"
    assert main(["generate", "--trips", "24", "--depots", "2", "--seed", "1",
                 "-o", str(inst_path)]) == 0
    assert main(["sample", "--instance", str(inst_path), "--scenarios", "20",
                 "--seed", "2", "-o", str(scen_path)]) == 0
    # a stop on the time limit proves nothing: no schedule, but not infeasible
    assert main(["solve", "--instance", str(inst_path), "--scenarios-file", str(scen_path),
                 "--method", "lagr", "--group-size", "12", "--time-limit", "0.001",
                 "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "IterLimit"
    assert doc["schedule"] is None


def test_cli_det_time_limit_stop_exits_zero(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    scen_path = tmp_path / "scen.npz"
    out = tmp_path / "det.json"
    assert main(["generate", "--trips", "24", "--depots", "2", "--seed", "1",
                 "-o", str(inst_path)]) == 0
    assert main(["sample", "--instance", str(inst_path), "--scenarios", "20",
                 "--seed", "2", "-o", str(scen_path)]) == 0
    capsys.readouterr()
    # a stop on the time limit proves nothing: no schedule, but not infeasible
    assert main(["solve", "--instance", str(inst_path), "--scenarios-file", str(scen_path),
                 "--method", "det-mean", "--time-limit", "1e-6", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert (doc["status"], doc["objective"], doc["schedule"]) == ("IterLimit", None, None)
    assert capsys.readouterr().out == "det-mean: objective null\n"


def test_cli_det_infeasible_exits_two(tmp_path):
    from ccvsp.core import Depot, Instance, Trip, save_instance
    from ccvsp.scenarios import ScenarioSet, save_scenarios

    def zeros(*shape):
        return np.zeros(shape, dtype=np.int64)

    # three trips that overlap need three buses; the two depots hold one each
    trips = [Trip(i, 1, (0, 0), (5, 0), 100 + i, 10, 0) for i in (1, 2, 3)]
    inst = Instance(trips, [Depot(1, (0, 0), 1), Depot(2, (0, 0), 1)],
                    zeros(3, 3), zeros(2, 3), zeros(3, 2), zeros(3, 3), zeros(2, 3),
                    zeros(3, 2), compat=[])
    save_instance(inst, tmp_path / "overlap.json")
    save_scenarios(ScenarioSet(np.full((2, 3), 10, dtype=np.int64), zeros(2, 3, 3),
                               zeros(2, 2, 3), zeros(2, 3, 2)), tmp_path / "overlap.npz")
    for method in ("det-mean", "det-p75"):
        out = tmp_path / f"{method}.json"
        assert main(["solve", "--instance", str(tmp_path / "overlap.json"), "--scenarios-file",
                     str(tmp_path / "overlap.npz"), "--method", method, "-o", str(out)]) == 2
        doc = json.loads(out.read_text())
        assert (doc["status"], doc["objective"], doc["schedule"]) == ("Infeasible", None, None)


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def test_cli_solve_writes_non_finite_numbers_as_null(tmp_path):
    inst_path = tmp_path / "inst.json"
    scen_path = tmp_path / "scen.npz"
    assert main(["generate", "--trips", "24", "--depots", "2", "--seed", "1",
                 "-o", str(inst_path)]) == 0
    assert main(["sample", "--instance", str(inst_path), "--scenarios", "20",
                 "--seed", "2", "-o", str(scen_path)]) == 0
    common = ["solve", "--instance", str(inst_path), "--scenarios-file", str(scen_path)]
    lagr = common + ["--method", "lagr", "--group-size", "12"]
    # a Lagrangian stop before any group solve has no objective and no bounds
    assert main(lagr + ["--time-limit", "1e-6", "-o", str(tmp_path / "stop.json")]) == 0
    doc = _strict_json((tmp_path / "stop.json").read_text())
    assert doc["objective"] is None
    assert doc["primal_bound"] is None and doc["dual_bound"] is None
    # the full run stops only once the bundle bounds the dual at its best value
    assert main(lagr + ["-o", str(tmp_path / "lagr.json")]) == 0
    doc = _strict_json((tmp_path / "lagr.json").read_text())
    assert (doc["status"], doc["iterations"]) == ("Converged", 2)
    primal = doc["primal_bound"]
    assert doc["dual_bound"] is not None
    assert doc["dual_bound"] >= primal - 1e-9 * max(1.0, abs(primal))
    assert doc["objective"] == schedule_cost(load_instance(inst_path),
                                             schedule_from_json(doc["schedule"]))
    # a branch-and-cut stop before any incumbent has no objective and no gap
    assert main(common + ["--method", "bnc", "--time-limit", "1e-9",
                          "-o", str(tmp_path / "bnc.json")]) == 0
    doc = _strict_json((tmp_path / "bnc.json").read_text())
    assert doc["schedule"] is None
    assert doc["objective"] is None and doc["gap"] is None


def test_cli_lagr_result_file_is_the_result_as_data(tmp_path):
    """Every key but ``log`` holds what the hand-listed document of earlier
    versions held; ``log`` holds one object per iteration with the fields of
    ``LagrIterate``."""
    from ccvsp.bnc import BnCConfig
    from ccvsp.lagrangian import solve_lagrangian
    from ccvsp.scenarios import load_scenarios

    inst_path = tmp_path / "inst.json"
    scen_path = tmp_path / "scen.npz"
    out = tmp_path / "lagr.json"
    assert main(["generate", "--trips", "24", "--depots", "2", "--seed", "1",
                 "-o", str(inst_path)]) == 0
    assert main(["sample", "--instance", str(inst_path), "--scenarios", "20",
                 "--seed", "2", "-o", str(scen_path)]) == 0
    assert main(["solve", "--instance", str(inst_path), "--scenarios-file", str(scen_path),
                 "--method", "lagr", "--group-size", "12", "-o", str(out)]) == 0
    doc = _strict_json(out.read_text())
    inst = load_instance(inst_path)
    params = ServiceParams.for_instance(inst, lb=1, ub=5, delta_trip=0.9, delta_route=0.8,
                                        epsilon=0.05)
    res = solve_lagrangian(inst, params, load_scenarios(scen_path), BnCConfig(), m_gr=12)
    earlier = {"status": res.status, "method": "lagr", "objective": res.objective,
               "violations": res.violations, "feasible": res.feasible,
               "primal_bound": res.primal_bound, "dual_bound": res.dual_bound,
               "iterations": res.iterations, "n_groups": res.n_groups,
               "schedule": {"buses": [{"depot": b.depot, "trips": list(b.trips)}
                                      for b in res.schedule.buses]},
               "time_s": res.time_s}
    assert set(doc) == set(earlier) | {"log"}
    assert {k: doc[k] for k in earlier if k != "time_s"} == \
        {k: v for k, v in earlier.items() if k != "time_s"}
    assert type(doc["time_s"]) is float
    assert len(doc["log"]) == doc["iterations"] == 2
    assert doc["log"] == [
        {"iteration": e.iteration, "primal": e.primal, "dual": e.dual, "step": e.step,
         "t": e.t, "incumbent_violations": e.incumbent_violations,
         "incumbent_cost": e.incumbent_cost} for e in res.log]


def test_cli_solve_prints_the_objective_it_writes(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    scen_path = tmp_path / "scen.npz"
    assert main(["generate", "--trips", "24", "--depots", "2", "--seed", "1",
                 "-o", str(inst_path)]) == 0
    assert main(["sample", "--instance", str(inst_path), "--scenarios", "20",
                 "--seed", "2", "-o", str(scen_path)]) == 0
    capsys.readouterr()
    # a stop before any group solve has no objective: null on stdout as in the file
    assert main(["solve", "--instance", str(inst_path), "--scenarios-file", str(scen_path),
                 "--method", "lagr", "--group-size", "12", "--time-limit", "1e-6",
                 "-o", str(tmp_path / "stop.json")]) == 0
    assert capsys.readouterr().out == "lagr: objective null\n"
    assert _strict_json((tmp_path / "stop.json").read_text())["objective"] is None


def test_cli_solve_mismatched_scenarios_exits_one(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    small_path = tmp_path / "small.json"
    scen_path = tmp_path / "scen.npz"
    assert main(["generate", "--trips", "24", "--depots", "2", "--seed", "2",
                 "-o", str(inst_path)]) == 0
    assert main(["generate", "--trips", "12", "--depots", "2", "--seed", "2",
                 "-o", str(small_path)]) == 0
    assert main(["sample", "--instance", str(small_path), "--scenarios", "10",
                 "--seed", "3", "-o", str(scen_path)]) == 0
    capsys.readouterr()
    for method in ("bnc", "lagr", "det-mean", "det-p75"):
        assert main(["solve", "--instance", str(inst_path), "--scenarios-file",
                     str(scen_path), "--method", method,
                     "-o", str(tmp_path / "out.json")]) == 1
        err = capsys.readouterr().err
        assert "scenario table dur has shape (10, 12)" in err, err


def _solved_pair(tmp_path):
    """A small instance, its training scenarios and det-mean / det-p75 results."""
    inst_path = tmp_path / "inst.json"
    scen_path = tmp_path / "scen.npz"
    assert main(["generate", "--trips", "10", "--depots", "2", "--route-size", "5",
                 "--seed", "3", "-o", str(inst_path)]) == 0
    assert main(["sample", "--instance", str(inst_path), "--scenarios", "8",
                 "--seed", "4", "-o", str(scen_path)]) == 0
    results = {}
    for method in ("det-mean", "det-p75"):
        results[method] = tmp_path / f"{method}.json"
        assert main(["solve", "--instance", str(inst_path), "--scenarios-file",
                     str(scen_path), "--method", method, "-o", str(results[method])]) == 0
    return inst_path, scen_path, results


def test_cli_compare_matches_report_table(tmp_path):
    from ccvsp.scenarios import load_scenarios

    inst_path, scen_path, results = _solved_pair(tmp_path)
    reports = []
    for method, train in (("det-mean", None), ("det-p75", scen_path)):
        reports.append(tmp_path / f"{method}.csv")
        argv = ["evaluate", "--instance", str(inst_path), "--schedule", str(results[method]),
                "--eval-scenarios", "40", "--seed", "9", "-o", str(reports[-1])]
        assert main(argv + (["--train-scenarios-file", str(train)] if train else [])) == 0
    table_path = tmp_path / "table.csv"
    assert main(["compare", *map(str, reports), "-o", str(table_path)]) == 0

    inst = load_instance(inst_path)
    params = ServiceParams.for_instance(inst, lb=1, ub=5, delta_trip=0.9,   # CLI defaults
                                        delta_route=0.8, epsilon=0.05)
    ev = sample_scenarios(inst, 40, 9)
    rows = []
    for method, train in (("det-mean", None), ("det-p75", load_scenarios(scen_path))):
        doc = json.loads(results[method].read_text())
        rep = evaluate_out_of_sample(inst, params, schedule_from_json(doc["schedule"]), ev,
                                     method=method, train_scen=train, time_s=doc["time_s"])
        rows.append((str(inst_path), inst.n_trips, inst.n_depots, ev.count, rep))
    lines = table_path.read_text().splitlines()
    assert lines == report_table(rows).splitlines()
    mean_row, p75_row = (line.split(",") for line in lines[1:])
    assert mean_row[6] == "0.000" and mean_row[7] == ""   # det-mean, no training set
    assert p75_row[6] != "" and p75_row[7] != ""


def test_cli_percentile_plan_is_labelled_with_its_percentile(tmp_path):
    """``--method det-p50`` plans at the 50th percentile, so its result, its
    report row and the compare table all read det-p50."""
    inst_path, scen_path, _ = _solved_pair(tmp_path)
    result, report, table = (tmp_path / name for name in ("p50.json", "p50.csv", "table.csv"))
    assert main(["solve", "--instance", str(inst_path), "--scenarios-file", str(scen_path),
                 "--method", "det-p50", "-o", str(result)]) == 0
    assert json.loads(result.read_text())["method"] == "det-p50"
    assert main(["evaluate", "--instance", str(inst_path), "--schedule", str(result),
                 "--eval-scenarios", "10", "-o", str(report)]) == 0
    assert main(["compare", str(report), "-o", str(table)]) == 0
    for path in (report, table):
        assert [line.split(",")[0] for line in path.read_text().splitlines()[1:]] == ["det-p50"]


@pytest.mark.parametrize("method, exit_code", [
    ("det-p50.0", 0), ("det-p0", 1), ("det-p101", 1), ("det-pnan", 1), ("det-p", None),
    ("det-p75x", None), ("bnc2", None)])
def test_cli_percentile_method_is_normalised_or_refused(tmp_path, capsys, method, exit_code):
    """``det-p<Q>`` is written det-p{Q:g}; a Q outside (0, 100] exits 1 with one
    error line, and a method that is not bnc, lagr, det-mean or det-p<Q> is a
    usage error."""
    inst_path, scen_path, _ = _solved_pair(tmp_path)
    out = tmp_path / "out.json"
    argv = ["solve", "--instance", str(inst_path), "--scenarios-file", str(scen_path),
            "--method", method, "-o", str(out)]
    capsys.readouterr()
    if exit_code is None:
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1
        assert f"{method!r} is not bnc, lagr, det-mean or det-p<Q>" in capsys.readouterr().err
    elif exit_code:
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: percentile must lie in (0, 100]\n"
    else:
        assert main(argv) == 0
        assert json.loads(out.read_text())["method"] == "det-p50"


@pytest.mark.parametrize("edit, expected", [
    (lambda cols: cols[:4], "4 columns, expected 10"),
    (lambda cols: cols[:5] + ["cheap"] + cols[6:], "could not convert string to float"),
    (lambda cols: cols[:8] + ["180.00"] + cols[9:], "satisfaction percentage 180.0"),
], ids=["short-row", "text-objective", "pct-above-100"])
def test_cli_compare_rejects_malformed_rows(tmp_path, capsys, edit, expected):
    from ccvsp.baselines import COMPARE_HEADER

    good = "det-mean,inst.json,10,2,40,5530.0,,,81.73,0.12"
    bad = ",".join(edit(good.split(",")))
    path = tmp_path / "report.csv"
    path.write_text(f"{COMPARE_HEADER}\n{good}\n\n{bad}\n")
    capsys.readouterr()
    assert main(["compare", str(path), "-o", str(tmp_path / "table.csv")]) == 1
    err = capsys.readouterr().err
    assert f"{path}:4: " in err and expected in err, err
    assert not (tmp_path / "table.csv").exists()


@pytest.mark.parametrize("text", ["", "\n\n", "method,instance\n", "det-mean,inst.json,10,2,40,5530.0,,,81.73,0.12\n"],
                         ids=["empty", "blank-lines", "short-header", "no-header"])
def test_read_report_refuses_a_file_without_the_header(tmp_path, text):
    from ccvsp.baselines import read_report

    path = tmp_path / "report.csv"
    path.write_text(text)
    with pytest.raises(ValidationError, match=re.escape(f"{path} is not an evaluation report") + "$"):
        read_report(path)


@pytest.mark.parametrize("times, scen, message", [
    (percentile(75), None, "percentile baseline needs sampled scenarios"),
    (("median", None), None, "unknown time table ('median', None)"),
])
def test_solve_deterministic_refusals(times, scen, message):
    with pytest.raises(ValidationError, match=re.escape(message) + "$"):
        solve_deterministic(gallery.two_depot_grid(), times, scen)


def test_cli_evaluate_rejects_result_without_schedule(tmp_path, capsys):
    inst_path, _, results = _solved_pair(tmp_path)
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"status": "IterLimit", "method": "lagr", "schedule": None}))
    capsys.readouterr()
    assert main(["evaluate", "--instance", str(inst_path), "--schedule", str(empty),
                 "-o", str(tmp_path / "report.csv")]) == 1
    err = capsys.readouterr().err
    assert f"{empty} holds no schedule (status IterLimit)" in err, err


def test_cli_evaluate_rejects_schedule_of_another_instance(tmp_path, capsys):
    _, _, results = _solved_pair(tmp_path)
    small_path = tmp_path / "small.json"
    assert main(["generate", "--trips", "6", "--depots", "2", "--route-size", "3",
                 "--seed", "3", "-o", str(small_path)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--instance", str(small_path),
                 "--schedule", str(results["det-mean"]),
                 "-o", str(tmp_path / "report.csv")]) == 1
    err = capsys.readouterr().err
    assert f"does not fit {small_path}: it must serve each of trips 1..6 once from depots 1..2" \
        in err, err


def test_cli_evaluate_replays_schedule_over_depot_capacity(tmp_path):
    inst_path, _, _ = _solved_pair(tmp_path)
    inst = load_instance(inst_path)
    singles = Schedule(tuple(Bus(1, (i,)) for i in range(1, inst.n_trips + 1)))
    assert len(singles.buses) > inst.depot(1).capacity   # validate_schedule would refuse it
    result = tmp_path / "singles.json"
    result.write_text(json.dumps({"method": "singles", "schedule": dataclasses.asdict(singles)}))
    report = tmp_path / "report.csv"
    assert main(["evaluate", "--instance", str(inst_path), "--schedule", str(result),
                 "--eval-scenarios", "20", "-o", str(report)]) == 0
    assert report.read_text().splitlines()[1].split(",")[8] == "100.00"


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["costs"]["pairs"].__setitem__(0, [0, 1, 5]),
     "costs.pairs[0]: [0, 1, 5] lies outside the 10 x 10 table (ids from 1)"),
    (lambda d: d["times"]["pairs"].__setitem__(0, [1, 11, 5]),
     "times.pairs[0]: [1, 11, 5] lies outside the 10 x 10 table (ids from 1)"),
    (lambda d: d["costs"]["pull_out"].__setitem__(0, [3, 1, 5]),
     "costs.pull_out[0]: [3, 1, 5] lies outside the 2 x 10 table (ids from 1)"),
    (lambda d: d["times"]["pull_in"].__setitem__(0, [1, 3, 5]),
     "times.pull_in[0]: [1, 3, 5] lies outside the 10 x 2 table (ids from 1)"),
    (lambda d: d["costs"]["pairs"].__setitem__(0, [1, 2, 2.5]),
     "costs.pairs[0]: 2.5 is not a 64-bit integer"),
    (lambda d: d["trips"][0].update(mean_d=2.5), "trips[0].mean_d: 2.5 is not a 64-bit integer"),
    (lambda d: d["trips"][2].update(s="abc"), "trips[2].s: 'abc' is not a 64-bit integer"),
    (lambda d: d["depots"][1].update(b=True), "depots[1].b: True is not a 64-bit integer"),
    (lambda d: d["costs"]["pairs"].__setitem__(0, [1, 2, 2**63]),
     f"costs.pairs[0]: {2**63} is not a 64-bit integer"),
    (lambda d: d["compat"].__setitem__(0, [1]), "compat[0]: [1] is not a list of 2 integers"),
    (lambda d: d.update(meta=[1, 2]), "meta: [1, 2] is not an object"),
    (lambda d: d["trips"][3].update(route=11), "trip 4: route 11 lies outside 1..10"),
    (lambda d: d["trips"][3].update(route=10**6), "trip 4: route 1000000 lies outside 1..10"),
])
def test_cli_refuses_malformed_instance_entries(tmp_path, capsys, edit, message):
    """Every id, time and cost of an instance file is checked where it enters:
    the error names the table and the entry, and the CLI exits 1 with it."""
    from ccvsp.core import instance_from_json

    path = tmp_path / "inst.json"
    assert main(["generate", "--trips", "10", "--depots", "2", "--route-size", "5",
                 "--seed", "3", "-o", str(path)]) == 0
    doc = json.loads(path.read_text())
    edit(doc)
    with pytest.raises(ValidationError, match=re.escape(message) + "$"):
        instance_from_json(doc)
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["sample", "--instance", str(path), "--scenarios", "2",
                 "-o", str(tmp_path / "scen.npz")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("doc, message", [
    ({"schedule": {"bus": []}}, "the schedule is not an object with a list of buses"),
    ({"schedule": {"buses": [{"depot": 1}]}}, "buses[0] is not an object with a list of trips"),
    ({"schedule": {"buses": [{"depot": 1.5, "trips": [1]}]}},
     "buses[0].depot: 1.5 is not a 64-bit integer"),
    ({"schedule": [[1, 2]]}, "the schedule is not an object with a list of buses"),
    ({"schedule": {"buses": [{"depot": 1, "trips": [1]}]}, "time_s": "1.5"},
     "time_s '1.5' is not a number"),
    ([{"depot": 1, "trips": [1]}], None),
    ({"schedule": {"buses": [{"depot": 1, "trips": [1]}]}, "method": "a,b"},
     "method 'a,b' is not a label without commas or line breaks"),
    ({"schedule": {"buses": [{"depot": 1, "trips": [1]}]}, "method": "x\ny"},
     "method 'x\\ny' is not a label without commas or line breaks"),
    ({"schedule": {"buses": [{"depot": 1, "trips": [1]}]}, "method": 7},
     "method 7 is not a label without commas or line breaks"),
])
def test_cli_evaluate_names_a_malformed_result_file(tmp_path, capsys, doc, message):
    inst_path = tmp_path / "inst.json"
    assert main(["generate", "--trips", "10", "--depots", "2", "--route-size", "5",
                 "--seed", "3", "-o", str(inst_path)]) == 0
    result = tmp_path / "result.json"
    result.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["evaluate", "--instance", str(inst_path), "--schedule", str(result),
                 "--eval-scenarios", "4", "-o", str(tmp_path / "report.csv")]) == 1
    want = f"{result}: {message}" if message else f"{result} is not a result object"
    assert capsys.readouterr().err == f"error: {want}\n"
