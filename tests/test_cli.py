"""Baselines, evaluation and the command-line pipeline."""

import json

import numpy as np
import pytest

from ccvsp import gallery
from ccvsp.baselines import MEAN, compare_table, evaluate_out_of_sample, solve_deterministic
from ccvsp.cli import main
from ccvsp.core import Bus, Schedule, schedule_cost
from ccvsp.scenarios import GenParams, compat_for_times, generate_instance, percentile_times, sample_scenarios


def test_mean_baseline_on_grid_costs_twenty():
    inst = gallery.two_depot_grid()
    sched = solve_deterministic(inst, MEAN)
    assert schedule_cost(inst, sched) == 20


def test_percentile_100_compat_subset_of_mean():
    inst = generate_instance(GenParams(n_trips=20, n_depots=2, seed=2))
    scen = sample_scenarios(inst, 30, seed=5)
    d100, t100, *_ = percentile_times(inst, scen, 100)
    mean_d = np.array([t.mean_dur for t in inst.trips])
    hi = compat_for_times(inst, np.maximum(d100, mean_d), np.maximum(t100, inst.dh_time))
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
    rep = evaluate_out_of_sample(inst, params, singles, scen, method="singles")
    assert rep.eval_sat_pct == 100.0


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
    table = compare_table([("g", inst, 2, r1), ("g", inst, 2, r2)])
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
    inst = Instance(trips, [Depot(1, (0, 0), 1)], [[1, 2]],
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
    for method in ("bnc", "lagr", "det-p75"):
        assert main(["solve", "--instance", str(inst_path), "--scenarios-file",
                     str(scen_path), "--method", method,
                     "-o", str(tmp_path / "out.json")]) == 1
        err = capsys.readouterr().err
        assert "scenario table dur has shape (10, 12)" in err, err
