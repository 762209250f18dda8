"""Small reliability study: mean-times, 75th-percentile and chance-constrained.

For a few random instances, solves all three variants and replays each
schedule over independent evaluation scenarios. The chance-constrained
schedules should sit between the baselines: far more reliable than mean-times
planning at a fraction of the percentile padding's cost.
"""

import time

from ccvsp.baselines import (
    MEAN,
    evaluate_out_of_sample,
    percentile,
    report_table,
    solve_deterministic,
)
from ccvsp.bnc import BnCConfig, solve_bnc
from ccvsp.core import ServiceParams
from ccvsp.scenarios import GenParams, generate_instance, sample_scenarios

rows = []
for seed in range(3):
    inst = generate_instance(GenParams(n_trips=20, n_depots=2, trips_per_route=10,
                                       grid_width=80, grid_height=80,
                                       headway_buffer=(2, 10), seed=seed))
    scen = sample_scenarios(inst, 50, seed=seed + 100)
    ev = sample_scenarios(inst, 1000, seed=seed + 90000)
    params = ServiceParams.for_instance(inst, lb=1, ub=5, delta_trip=0.9,
                                        delta_route=0.8, epsilon=0.05)
    label = f"rand-{seed}"
    t0 = time.monotonic()
    mean_s = solve_deterministic(inst, MEAN)
    t1 = time.monotonic()
    p75_s = solve_deterministic(inst, percentile(75), scen)
    t2 = time.monotonic()
    cc = solve_bnc(inst, params, scen, BnCConfig(), initial_schedule=p75_s,
                   time_limit=90)
    for method, sched, t in [("det-mean", mean_s, t1 - t0), ("det-p75", p75_s, t2 - t1),
                             ("cc", cc.schedule, cc.time_s)]:
        rep = evaluate_out_of_sample(inst, params, sched, ev, method=method,
                                     train_scen=scen, time_s=t)
        rows.append((label, inst.n_trips, inst.n_depots, ev.count, rep))

print(report_table(rows))
