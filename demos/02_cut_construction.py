"""Build an infeasible-subsequence cut step by step on the delay chain.

A single bus runs six trips; the scenario makes trips 4 and 6 late. The
backtracking walks from each late trip toward the bus head, keeping only the
predecessors needed to explain the delays, then tries alternative heads and
finally certifies the cut through the dual of a tightened LP.
"""

import dataclasses

from ccvsp import gallery
from ccvsp.cuts import build_cmis, cmis_cut, dual_certificate, extend_cmis, \
    is_infeasible_set, mis_deletion_filter
from ccvsp.subproblem import TRIP_LEVEL, greedy_evaluate

inst, params, sched, scen = gallery.delay_chain()
g = greedy_evaluate(inst, params, sched, scen, 0)

print("earliest starts:", g.y_star.tolist())
print("on-time windows:", [(t.start - params.lb, t.start + params.ub) for t in inst.trips])
print("delayed trips:", sorted(g.delayed), "violated:", [str(c) for c in g.violated], "\n")

ctx = build_cmis(inst, params, sched, scen, 0, g, TRIP_LEVEL)
print("delay core:", sorted(ctx.core))
print("backtracking trace (trip, start time still to explain):")
for trip, target in ctx.trace:
    print(f"  trip {trip}: {target}")
print("subsequence pairs:", sorted(ctx.pairs))

print("\nis an infeasible set:", is_infeasible_set(inst, params, scen, 0, ctx.pairs))
print("deletion filter returns it unchanged:",
      mis_deletion_filter(inst, params, scen, 0, ctx.pairs) == ctx.pairs)

ext = extend_cmis(inst, params, scen, 0, ctx)
print("alternative-head pairs:", sorted(ext.extra) or "none")
cut = cmis_cut(ext)
print("cut:", dataclasses.asdict(cut))

rep = dual_certificate(inst, params, sched, scen, 0, g, ctx)
print("\ndual certificate verified:", rep.ok)
print("pair weights:", {p: str(a) for p, a in sorted(rep.alpha.items())})
print("dual objective:", rep.objective)
