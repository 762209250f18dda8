"""Decompose a larger instance into trip groups and run the dual ascent.

Each group solves exactly; the recombined schedules are checked against the
full instance's requirements while the bundle method steers the scenario
penalties.
"""

from ccvsp.baselines import percentile, solve_deterministic
from ccvsp.bnc import BnCConfig, solve_bnc
from ccvsp.core import ServiceParams, cc_threshold
from ccvsp.lagrangian import partition_trips, solve_lagrangian
from ccvsp.scenarios import GenParams, generate_instance, sample_scenarios

inst = generate_instance(GenParams(n_trips=24, n_depots=2, trips_per_route=12,
                                   grid_width=80, grid_height=80,
                                   headway_buffer=(0, 4), seed=22))
scen = sample_scenarios(inst, 20, seed=303)
params = ServiceParams.for_instance(inst, lb=1, ub=4, delta_trip=1.0,
                                    delta_route=1.0, epsilon=0.1)
budget = cc_threshold(scen.count, params.epsilon)

det = solve_deterministic(inst, percentile(75), scen)
groups = partition_trips(det, m_gr=12)
print(f"{inst.n_trips} trips split into {len(groups)} groups of sizes "
      f"{[len(g) for g in groups]}; violation budget {budget}\n")

# the run stops once the bundle certifies the best Lagrangian value to within
# rel_tol; a tight one keeps the penalty ascent visible in the log: the groups
# initially sacrifice different scenarios (4 joint violations) until the
# penalties align them
res = solve_lagrangian(inst, params, scen, BnCConfig(), m_gr=12, det_sched=det,
                       max_iters=30, rel_tol=1e-6)
print(f"{'iter':>4} {'primal':>9} {'dual':>9} {'step':>7} {'t':>8} {'violations':>10} {'cost':>5}")
for e in res.log:
    print(f"{e.iteration:>4} {e.primal:>9.1f} {e.dual:>9.1f} {e.step:>7} {e.t:>8.4g} "
          f"{e.incumbent_violations if e.incumbent_violations is not None else '-':>10} "
          f"{e.incumbent_cost if e.incumbent_cost is not None else '-':>5}")
print(f"\nincumbent: cost {res.objective:.0f}, violations {res.violations} "
      f"(budget {budget}), feasible={res.feasible}")
print(f"bounds: primal {res.primal_bound:.1f}, dual {res.dual_bound:.1f}, "
      f"{res.iterations} iterations, {res.time_s:.1f}s")

# the exact search stops on its time limit here (at 120 s too, with the same
# incumbent), so 20 s is enough to show its incumbent for comparison
exact = solve_bnc(inst, params, scen, BnCConfig(), time_limit=20)
print(f"\nreference exact solve: {exact.status}, objective {exact.objective:.0f} "
      f"({exact.time_s:.1f}s)")
