"""LP kernel and branch-and-bound checks."""

import copy
import itertools
import math
import re
import time

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ccvsp import milp
from ccvsp.milp import (
    EQUAL,
    FEAS_TOL,
    GREATER,
    INT_TOL,
    LESS,
    OPT_TOL,
    PIVOT_TOL,
    MilpModel,
    _dual_ratio,
    _entering,
    _most_fractional,
    _Simplex,
    bnb_solve,
    deadline_after,
    lp_solve,
)

from conftest import PROPERTY, unsolved_copy


def test_min_x_above_three():
    m = MilpModel()
    x = m.add_var(lb=0, ub=np.inf, obj=1.0)
    m.add_constr({x: 1.0}, GREATER, 3.0)
    sol = lp_solve(m)
    assert sol.status == "Optimal"
    assert sol.x[x] == pytest.approx(3.0, abs=1e-7)


@pytest.mark.parametrize("args, message", [
    (dict(lb=2.0, ub=1.0), "variable bounds cross: [2.0, 1.0]"),
    (dict(lb=0.0, ub=np.inf, is_int=True), "integer variables need finite bounds"),
    (dict(lb=-np.inf, ub=3.0, is_int=True), "integer variables need finite bounds"),
])
def test_add_var_refusals(args, message):
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        MilpModel().add_var(**args)


@pytest.mark.parametrize("sense", ["<", "=", "le", None])
def test_add_constr_refuses_an_unknown_sense(sense):
    m = MilpModel()
    x = m.add_var()
    with pytest.raises(ValueError, match=re.escape(f"unknown sense {sense!r}") + "$"):
        m.add_constr({x: 1.0}, sense, 1.0)
    assert m.n_rows == 0


def test_infeasible_and_unbounded():
    m = MilpModel()
    x = m.add_var(lb=0, ub=1, obj=1.0)
    m.add_constr({x: 1.0}, GREATER, 2.0)
    assert lp_solve(m).status == "Infeasible"

    m2 = MilpModel()
    x2 = m2.add_var(lb=-np.inf, ub=np.inf, obj=1.0)
    m2.add_constr({x2: 1.0}, LESS, 5.0)
    assert lp_solve(m2).status == "Unbounded"


def test_equality_and_bounds():
    m = MilpModel()
    x = m.add_var(lb=0, ub=10, obj=2.0)
    y = m.add_var(lb=1, ub=4, obj=3.0)
    m.add_constr({x: 1.0, y: 1.0}, EQUAL, 6.0)
    sol = lp_solve(m)
    assert sol.status == "Optimal"
    assert sol.obj == pytest.approx(2 * 5 + 3 * 1, abs=1e-6)


def _random_lp(rng, n, m):
    model = MilpModel()
    xs = [model.add_var(lb=0, ub=float(rng.integers(1, 8)),
                        obj=float(rng.integers(-5, 6))) for _ in range(n)]
    x_feas = np.array([rng.uniform(model.lb[j], model.ub[j]) for j in xs])
    for _ in range(m):
        coeffs = {j: float(rng.integers(-4, 5)) for j in rng.choice(n, size=min(n, 4), replace=False)}
        lhs = sum(c * x_feas[j] for j, c in coeffs.items())
        sense = [LESS, GREATER][int(rng.integers(0, 2))]
        rhs = lhs + (1.0 if sense == LESS else -1.0) * float(rng.uniform(0, 3))
        model.add_constr(coeffs, sense, rhs)
    return model


def _with_lower_bounds_below_zero(model, rng):
    """Some columns lose their lower bound, some get a negative one; the point
    _random_lp made feasible stays feasible, but the LP may become unbounded."""
    for j in range(model.n_vars):
        if rng.random() < 0.2:
            model.lb[j] = -np.inf
        elif rng.random() < 0.2:
            model.lb[j] = -float(rng.integers(1, 4))
    return model


def test_lp_matches_scipy_on_random_instances():
    from scipy.optimize import linprog

    statuses = {0: "Optimal", 2: "Infeasible", 3: "Unbounded"}
    rng = np.random.default_rng(11)
    seen = {}
    for trial in range(240):
        n, m = int(rng.integers(2, 7)), int(rng.integers(1, 6))
        model = _random_lp(rng, n, m)
        if trial >= 40:
            model = _with_lower_bounds_below_zero(model, rng)
        A_ub, b_ub = [], []
        for coeffs, sense, rhs in model.rows:
            row = np.zeros(n)
            for j, v in coeffs.items():
                row[j] = v
            if sense == LESS:
                A_ub.append(row)
                b_ub.append(rhs)
            else:
                A_ub.append(-row)
                b_ub.append(-rhs)
        ref = linprog(model.obj, A_ub=np.array(A_ub), b_ub=np.array(b_ub),
                      bounds=list(zip(model.lb, model.ub)), method="highs")
        sol = lp_solve(model)
        assert sol.status == statuses[ref.status], f"trial {trial}"
        if trial < 40:
            assert sol.status == "Optimal", f"trial {trial}"
        if sol.status == "Optimal":
            assert sol.obj == pytest.approx(ref.fun, abs=1e-6), f"trial {trial}"
        if trial >= 40:
            seen[sol.status] = seen.get(sol.status, 0) + 1
    assert seen.get("Optimal", 0) >= 100 and seen.get("Unbounded", 0) >= 10, seen


def test_knapsack_matches_enumeration():
    rng = np.random.default_rng(3)
    weights = rng.integers(1, 12, size=10)
    values = rng.integers(1, 20, size=10)
    cap = int(weights.sum() // 2)
    model = MilpModel()
    xs = [model.add_var(lb=0, ub=1, obj=-float(values[i]), is_int=True) for i in range(10)]
    model.add_constr({xs[i]: float(weights[i]) for i in range(10)}, LESS, float(cap))
    sol = bnb_solve(model)
    assert sol.status == "Optimal"

    best = 0
    for picks in itertools.product([0, 1], repeat=10):
        if np.dot(picks, weights) <= cap:
            best = max(best, int(np.dot(picks, values)))
    assert -sol.obj == pytest.approx(best, abs=1e-6)


def test_lp_integral_model_one_node():
    model = MilpModel()
    x = model.add_var(lb=0, ub=5, obj=1.0, is_int=True)
    model.add_constr({x: 1.0}, GREATER, 2.0)
    sol = bnb_solve(model)
    assert sol.status == "Optimal"
    assert sol.nodes == 1
    assert sol.obj == pytest.approx(2.0)


def test_lazy_cut_rejects_candidate():
    # min -x - y over binary square; the lazy hook forbids (1, 1)
    model = MilpModel()
    x = model.add_var(lb=0, ub=1, obj=-1.0, is_int=True)
    y = model.add_var(lb=0, ub=1, obj=-1.0, is_int=True)

    def lazy(v):
        if v[x] > 0.5 and v[y] > 0.5:
            return [({x: 1.0, y: 1.0}, LESS, 1.0)]
        return []

    sol = bnb_solve(model, lazy=lazy)
    assert sol.status == "Optimal"
    assert sol.obj == pytest.approx(-1.0)
    assert sol.x[x] + sol.x[y] == pytest.approx(1.0)


def test_bnb_deterministic():
    def build():
        rng = np.random.default_rng(5)
        model = MilpModel()
        xs = [model.add_var(lb=0, ub=3, obj=float(rng.integers(-4, 5)), is_int=True)
              for _ in range(8)]
        for _ in range(5):
            coeffs = {j: float(rng.integers(-3, 4)) for j in rng.choice(8, 4, replace=False)}
            model.add_constr(coeffs, LESS, float(rng.integers(2, 9)))
        return model

    a = bnb_solve(build())
    b = bnb_solve(build())
    assert a.status == b.status
    assert a.nodes == b.nodes
    assert a.obj == b.obj
    if a.x is not None:
        assert np.array_equal(a.x, b.x)


def test_bound_never_above_objective_at_gap_stop():
    # the gap test fires while open nodes with LP bound -6.5 sit above the incumbent -9
    model = MilpModel()
    x = [model.add_var(lb=0, ub=1, obj=c, is_int=True) for c in (0.0, -4.0, -5.0, 5.0)]
    model.add_constr({x[0]: -4.0, x[2]: 4.0, x[1]: -4.0}, LESS, -2.0)
    sol = bnb_solve(model)
    assert sol.status == "Optimal"
    assert sol.obj == pytest.approx(-9.0)
    assert sol.bound <= sol.obj
    assert sol.gap >= 0.0


def test_warm_start_reuses_basis():
    m = MilpModel()
    x = m.add_var(lb=0, ub=10, obj=1.0)
    y = m.add_var(lb=0, ub=10, obj=2.0)
    m.add_constr({x: 1.0, y: 1.0}, GREATER, 4.0)
    cold = lp_solve(m)
    warm = lp_solve(m, warm_start=cold.basis)
    assert warm.status == "Optimal"
    assert warm.obj == pytest.approx(cold.obj)


def _with_row_copy(model, rng):
    """Add one row twice, as an equality at its activity in an optimum.

    The second copy is linearly dependent on the first, so a cold solve keeps
    an artificial column basic at zero.
    """
    x = lp_solve(model).x
    coeffs = model.rows[int(rng.integers(0, model.n_rows))][0]
    act = sum(c * x[j] for j, c in coeffs.items())
    model.add_constr(coeffs, EQUAL, act)
    model.add_constr(coeffs, EQUAL, act)
    return model


def _cold_basis_has_artificial(model) -> bool:
    sim = _Simplex(model)
    sol = sim.solve(10_000)
    return sol.status == "Optimal" and max(sim.basis) >= model.n_vars + model.n_rows


def test_warm_resolve_matches_cold_solve(monkeypatch):
    cold_runs = []
    cold_solve = _Simplex.solve
    monkeypatch.setattr(_Simplex, "solve",
                        lambda self, *a: cold_runs.append(1) or cold_solve(self, *a))
    rng = np.random.default_rng(2024)
    seen = {"Infeasible": 0, "bounds": 0, "rows": 0, "artificial": 0}
    fallbacks = 0
    for trial in range(300):
        model = _random_lp(rng, n=int(rng.integers(2, 8)), m=int(rng.integers(1, 6)))
        if trial % 3 == 0:
            model = _with_row_copy(model, rng)
            seen["artificial"] += _cold_basis_has_artificial(model)
        parent = lp_solve(model)
        assert parent.status == "Optimal", trial
        lb, ub = np.array(model.lb), np.array(model.ub)
        if rng.random() < 0.5:
            # a branching child: one variable's range shrinks to either side of its value
            j = int(rng.integers(0, model.n_vars))
            cut = float(np.floor(parent.x[j] + rng.uniform(-0.5, 0.5)))
            if rng.random() < 0.5:
                ub[j] = min(ub[j], max(cut, lb[j]))
            else:
                lb[j] = max(lb[j], min(cut + 1.0, ub[j]))
            seen["bounds"] += 1
        else:
            # a lazy round: one or two rows, often cutting off the parent optimum
            for _ in range(int(rng.integers(1, 3))):
                cols = rng.choice(model.n_vars, size=min(model.n_vars, 3), replace=False)
                coeffs = {int(j): float(rng.integers(-4, 5)) or 1.0 for j in cols}
                act = sum(c * parent.x[j] for j, c in coeffs.items())
                model.add_constr(coeffs, LESS, act - float(rng.uniform(-1.0, 6.0)))
            seen["rows"] += 1
        before = len(cold_runs)
        warm = lp_solve(model, warm_start=parent.basis, var_lb=lb, var_ub=ub)
        fallbacks += len(cold_runs) > before
        cold = lp_solve(model, var_lb=lb, var_ub=ub)
        assert warm.status == cold.status, trial
        seen[cold.status] = seen.get(cold.status, 0) + 1
        if cold.status == "Optimal":
            assert warm.obj == pytest.approx(cold.obj, rel=1e-7, abs=1e-7), trial
    assert min(seen.values()) >= 10, seen
    assert fallbacks == 0, fallbacks


def _fallback_status(model, basis):
    """None when the warm attempt accepts ``basis``; otherwise checks that
    lp_solve from it gives the cold solve's answer, with the iterations of
    both attempts, and returns the status."""
    attempt = _Simplex(model)
    if attempt.solve_from_basis(basis, 2000 + 200 * (model.n_rows + model.n_vars)) is not None:
        return None
    cold = lp_solve(model)
    warm = lp_solve(model, warm_start=basis)
    assert warm.status == cold.status
    assert warm.iterations == attempt.iterations + cold.iterations
    if cold.status == "Optimal":
        assert np.array_equal(warm.x, cold.x) and warm.obj == cold.obj
        assert warm.basis == cold.basis
    return cold.status


def test_unusable_warm_basis_gives_the_cold_solve():
    rng = np.random.default_rng(5)
    seen = {"malformed": 0, "dual infeasible": 0, "Unbounded": 0}
    for trial in range(100):
        model = _with_lower_bounds_below_zero(
            _random_lp(rng, n=int(rng.integers(2, 7)), m=int(rng.integers(1, 6))), rng)
        n, m = model.n_vars, model.n_rows
        # a repeated column, one entry too many, an index past the columns, a negative one
        for basis in ([0, 0], list(range(m + 1)), [n + 1], [-1]):
            assert _fallback_status(model, basis) is not None, (trial, basis)
            seen["malformed"] += 1
        # the optimal basis for the opposite objective; with columns unbounded
        # below it is mostly dual infeasible for this one
        flipped = copy.deepcopy(model)
        flipped.obj = [-c for c in model.obj]
        other = lp_solve(flipped)
        if other.status == "Optimal":
            status = _fallback_status(model, other.basis)
            seen["dual infeasible"] += status is not None
            seen["Unbounded"] += status == "Unbounded"
    assert seen["malformed"] == 400 and seen["dual infeasible"] >= 50, seen
    assert seen["Unbounded"] >= 3, seen


def test_matrix_fill_matches_elementwise_fill():
    rng = np.random.default_rng(99)
    for trial in range(60):
        model = _random_lp(rng, n=int(rng.integers(1, 9)), m=int(rng.integers(0, 7)))
        if trial % 4 == 0:
            model.add_constr({0: 2.0}, EQUAL, 1.0)
            model.add_constr({}, LESS, 0.0)
        n, m = model.n_vars, model.n_rows
        A = np.zeros((m, n + 2 * m))
        lo, hi = np.empty(m), np.empty(m)
        for i, (coeffs, sense, rhs) in enumerate(model.rows):
            for j, v in coeffs.items():
                A[i, j] = v
            A[i, n + i] = 1.0
            A[i, n + m + i] = 1.0
            lo[i], hi[i] = {LESS: (0.0, np.inf), GREATER: (-np.inf, 0.0),
                            EQUAL: (0.0, 0.0)}[sense]
        sim = _Simplex(model)
        assert np.array_equal(sim.A, A), trial
        assert np.array_equal(sim.b, [r[2] for r in model.rows]), trial
        assert np.array_equal(sim.lo[n: n + m], lo), trial
        assert np.array_equal(sim.hi[n: n + m], hi), trial


def test_root_basis_warm_start_matches_cold_solve(monkeypatch):
    """A root basis from another solve of the same rows, re-used under a changed
    objective, gives the status and objective of a cold solve."""
    cold_runs = []
    cold_solve = _Simplex.solve
    monkeypatch.setattr(_Simplex, "solve",
                        lambda self, *a: cold_runs.append(1) or cold_solve(self, *a))
    rng = np.random.default_rng(77)
    seen = {"Optimal": 0, "Infeasible": 0, "lazy rows": 0, "no fallback": 0}
    for trial in range(200):
        base = _random_lp(rng, n=int(rng.integers(3, 9)), m=int(rng.integers(2, 6)))
        for j in range(base.n_vars):
            base.is_int[j] = bool(rng.random() < 0.7)
        cap = float(rng.integers(2, 12))

        def lazy(x, cap=cap):
            if x.sum() > cap + 1e-6:
                return [({j: 1.0 for j in range(len(x))}, LESS, cap)]
            return []

        first_model = copy.deepcopy(base)
        first = bnb_solve(first_model, lazy=lazy)
        seen["lazy rows"] += first_model.n_rows > base.n_rows
        # taken before the lazy rows joined
        assert len(first.root_basis) == base.n_rows, trial
        for j in rng.choice(base.n_vars, size=max(1, base.n_vars // 2), replace=False):
            base.obj[j] = float(rng.integers(-5, 6))
        before = len(cold_runs)
        warm = bnb_solve(copy.deepcopy(base), lazy=lazy, root_basis=first.root_basis)
        seen["no fallback"] += len(cold_runs) == before
        cold = bnb_solve(copy.deepcopy(base), lazy=lazy)
        assert warm.status == cold.status, trial
        seen[cold.status] += 1
        if cold.status == "Optimal":
            assert warm.obj == pytest.approx(cold.obj, rel=1e-7, abs=1e-7), trial
    assert min(seen["Optimal"], seen["Infeasible"], seen["lazy rows"]) >= 30, seen
    assert seen["no fallback"] >= 100, seen


def _lp_fields(sol):
    """Everything an LP solution reports, with x as its exact bytes."""
    return (sol.status, sol.iterations, sol.obj, sol.basis,
            None if sol.x is None else sol.x.tobytes())


def _replace_row(model, i, coeffs, sense, rhs):
    """Row i replaced and the rows after it kept in order: rows cannot be
    edited in place, so truncate at i and add the rows back."""
    rest = model.rows[i + 1:]
    model.truncate_rows(i)
    model.add_constr(coeffs, sense, rhs)
    for row in rest:
        model.add_constr(*row)


def test_phase1_is_reused_only_for_the_same_rows_and_bounds(monkeypatch):
    """A cold solve reuses the model's last phase 1 after a change of the
    objective only; after a change of bounds, of a right-hand side, of a
    coefficient, or of a lazy row that brings the row count back, it runs
    phase 1 again. Either way it equals a never-solved model's cold solve bit
    for bit, iterations included."""
    phase1_runs = []
    iterate = _Simplex._iterate
    monkeypatch.setattr(_Simplex, "_iterate", lambda self, cost, *a: (
        phase1_runs.append(cost is not self.cost) or iterate(self, cost, *a)))

    def cold(model, lb=None, ub=None):
        phase1_runs.clear()
        sol = lp_solve(model, var_lb=lb, var_ub=ub)
        return sol, sum(phase1_runs)

    rng = np.random.default_rng(13)
    seen = {"reused": 0, "rerun": 0, "Infeasible": 0}
    for trial in range(200):
        model = _random_lp(rng, n=int(rng.integers(2, 8)), m=int(rng.integers(1, 6)))
        change = ("objective", "bounds", "rhs", "coefficient", "lazy row")[trial % 5]
        lb = ub = None
        if rng.random() < 0.2:
            # a row no point meets: phase 1 ends infeasible
            model.add_constr({0: 1.0}, GREATER, model.ub[0] + 1.0)
        cold(model)
        if change == "objective":
            model.obj = [float(rng.integers(-5, 6)) for _ in model.obj]
        elif change == "bounds":
            lb, ub = np.array(model.lb), np.array(model.ub)
            j = int(rng.integers(0, model.n_vars))
            ub[j] = max(lb[j], ub[j] - 1.0)
        elif change == "rhs":
            i = int(rng.integers(0, model.n_rows))
            coeffs, sense, rhs = model.rows[i]
            _replace_row(model, i, coeffs, sense, rhs + 0.5)
        elif change == "coefficient":
            i = int(rng.integers(0, model.n_rows))
            coeffs, sense, rhs = model.rows[i]
            j = next(iter(coeffs), 0)
            _replace_row(model, i, {**coeffs, j: coeffs.get(j, 0.0) + 1.0}, sense, rhs)
        else:
            # the last solve holds a row that a different one then replaces
            model.add_constr({0: 1.0}, GREATER, 0.5)
            cold(model)
            model.truncate_rows(model.n_rows - 1)
            model.add_constr({0: 1.0}, GREATER, 0.25)
        got, got_runs = cold(model, lb, ub)
        want, want_runs = cold(unsolved_copy(model), lb, ub)
        assert _lp_fields(got) == _lp_fields(want), (trial, change)
        if change == "objective":
            assert got_runs == 0, trial
            seen["reused"] += want_runs
            # the saved state serves any number of objectives
            model.obj = [-c for c in model.obj]
            again, again_runs = cold(model)
            assert again_runs == 0, trial
            assert _lp_fields(again) == _lp_fields(cold(unsolved_copy(model))[0]), trial
        else:
            assert got_runs == want_runs, (trial, change)
            seen["rerun"] += want_runs
        seen["Infeasible"] += got.status == "Infeasible"
    assert seen["reused"] >= 20 and seen["rerun"] >= 80 and seen["Infeasible"] >= 10, seen


def test_phase1_reuse_keeps_the_iteration_budget():
    """A saved phase 1 is not reused where running it would have hit max_iter."""
    rng = np.random.default_rng(4)
    for _ in range(50):
        model = _random_lp(rng, n=6, m=5)
        first = _Simplex(model)
        full = first.solve(10_000)
        saved = model._phase1
        if saved is None or saved.iterations < 2:
            continue
        budget = saved.iterations - 1
        assert _lp_fields(_Simplex(model).solve(budget)) \
            == _lp_fields(_Simplex(unsolved_copy(model)).solve(budget))
        assert _lp_fields(_Simplex(model).solve(10_000)) == _lp_fields(full)
        return
    pytest.fail("no random LP needed two phase-1 iterations")


def test_sibling_node_reuses_the_basis_inverse(monkeypatch):
    """Both children of a node start from its basis over the same rows; the
    second reuses the first's fresh inverse and gives what a never-solved
    model gives, bit for bit."""
    inversions = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inversions.append(1) or inv(a))

    def warm(model, basis, lb, ub):
        inversions.clear()
        sol = lp_solve(model, warm_start=basis, var_lb=lb, var_ub=ub)
        return sol, len(inversions)

    rng = np.random.default_rng(8)
    reused = 0
    for trial in range(100):
        model = _random_lp(rng, n=int(rng.integers(3, 9)), m=int(rng.integers(2, 6)))
        parent = lp_solve(model)
        if parent.status != "Optimal":
            continue
        j = int(rng.integers(0, model.n_vars))
        cut = math.floor(parent.x[j])
        base_lb, base_ub = np.array(model.lb), np.array(model.ub)
        for side in ("down", "up"):
            lb, ub = base_lb.copy(), base_ub.copy()
            if side == "down":
                ub[j] = max(lb[j], float(cut))
            else:
                lb[j] = min(ub[j], float(cut + 1))
            got, got_inv = warm(model, parent.basis, lb, ub)
            want, want_inv = warm(unsolved_copy(model), parent.basis, lb, ub)
            assert _lp_fields(got) == _lp_fields(want), (trial, side)
            if side == "up":
                assert got_inv == want_inv - 1, trial
                reused += 1
    assert reused >= 80, reused


def _with_twin_columns(model):
    """A copy of ``model`` with one more column per column of the first two:
    the same coefficient in every row, with other bounds and cost. Returns
    the copy and {column: its twin}."""
    twin = unsolved_copy(model)
    twins = {j: twin.add_var(0, model.ub[j] + 1, model.obj[j] - 1) for j in range(2)}
    twin.truncate_rows(0)
    for coeffs, sense, rhs in model.rows:
        twin.add_constr({**coeffs, **{t: coeffs[j] for j, t in twins.items() if j in coeffs}},
                        sense, rhs)
    return twin, twins


def test_basis_with_twin_columns_shares_the_inverse(monkeypatch):
    """A warm start whose basis differs from the saved inverse's only by a
    column of equal bytes has the same basis matrix and shares that inverse;
    one that swaps in another column inverts again. Each solve equals a
    never-solved model's warm solve, bit for bit."""
    inversions = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inversions.append(1) or inv(a))

    def warm(model, basis):
        inversions.clear()
        sol = lp_solve(model, warm_start=basis)
        return sol, len(inversions)

    rng = np.random.default_rng(21)
    seen = {"twin": 0, "other": 0}
    for trial in range(200):
        model, twins = _with_twin_columns(
            _random_lp(rng, n=int(rng.integers(3, 8)), m=int(rng.integers(2, 6))))
        # the same history, then ``ref`` forgets its inverse and must invert
        ref = unsolved_copy(model)
        first = lp_solve(model)
        lp_solve(ref)
        if first.status != "Optimal":
            continue
        basic = [j for j in twins if j in first.basis]
        others = [k for k in range(model.n_vars)
                  if k not in first.basis and k not in twins.values()]
        if not basic or not others:
            continue
        j = basic[0]
        for kind, k in (("twin", twins[j]), ("other", others[0])):
            basis = [k if b == j else b for b in first.basis]
            for m in (model, ref):
                warm(m, first.basis)
            ref._inverse = None
            got, got_inv = warm(model, basis)
            want, want_inv = warm(ref, basis)
            assert _lp_fields(got) == _lp_fields(want) \
                == _lp_fields(lp_solve(unsolved_copy(model), warm_start=basis)), (trial, kind)
            assert got_inv == want_inv - (kind == "twin"), (trial, kind)
            seen[kind] += 1
    assert min(seen.values()) >= 30, seen


def test_model_keeps_one_matrix_until_its_rows_change():
    """Solves of one model share one read-only dense matrix while its revision
    stays, so under a change of the objective or of the bounds; a replaced
    row (here its right-hand side changes), reprice's truncation of lazy
    rows, an appended lazy row and a new column each build it again. Every
    solve equals a never-solved copy's, bit for bit."""
    rng = np.random.default_rng(31)
    changes = ("none", "bounds", "objective", "rhs", "truncation", "lazy row", "column")
    for trial in range(70):
        model = _random_lp(rng, n=int(rng.integers(2, 8)), m=int(rng.integers(1, 6)))
        change = changes[trial % len(changes)]
        if change == "truncation":
            model.add_constr({0: 1.0}, GREATER, 0.5)
        first = lp_solve(model)
        A = model._matrix.A
        with pytest.raises(ValueError):
            A[0, 0] = 1.0
        lb = None
        if change == "bounds":
            lb = np.array(model.lb)
            lb[0] = min(0.5, model.ub[0])
        elif change == "objective":
            model.obj = [float(rng.integers(-5, 6)) for _ in model.obj]
        elif change == "rhs":
            i = int(rng.integers(0, model.n_rows))
            coeffs, sense, rhs = model.rows[i]
            _replace_row(model, i, coeffs, sense, rhs + 0.5)
        elif change == "truncation":
            model.truncate_rows(model.n_rows - 1)
        elif change == "lazy row":
            model.add_constr({0: 1.0}, LESS, model.ub[0])
        elif change == "column":
            model.add_var(lb=0, ub=3, obj=1.0)
        sim = _Simplex(model, var_lb=lb)
        assert (sim.A is A) == (change in ("none", "bounds", "objective")), (trial, change)
        assert not sim.A.flags.writeable
        assert np.array_equal(sim.A, _Simplex(unsolved_copy(model)).A), (trial, change)
        got = lp_solve(model, var_lb=lb)
        assert _lp_fields(got) == _lp_fields(lp_solve(unsolved_copy(model), var_lb=lb)), \
            (trial, change)
        if change == "none":
            assert _lp_fields(got) == _lp_fields(first), trial


def test_rows_change_only_through_a_new_revision():
    """add_constr, add_var and truncate_rows each give the model a new
    revision, and truncating back to rows it had under the same columns gives
    the revision it had then; truncating nothing keeps it. The rows cannot be
    edited in place, nor can the revision be set."""
    model = MilpModel()
    seen = [model.revision]
    x = model.add_var(lb=0, ub=4, obj=1.0)
    seen.append(model.revision)
    model.add_constr({x: 1.0}, GREATER, 1.0)
    seen.append(model.revision)
    model.add_constr({x: 2.0}, LESS, 7.0)
    seen.append(model.revision)
    assert len(set(seen)) == 4
    model.truncate_rows(2)
    assert model.revision == seen[-1]
    model.truncate_rows(1)
    assert model.revision == seen[2]
    model.add_constr({x: 3.0}, LESS, 9.0)
    assert model.revision not in seen
    seen.append(model.revision)
    model.add_var(lb=0, ub=1, obj=0.0)
    assert model.revision not in seen
    seen.append(model.revision)
    # row 0 is older than the new column: no earlier revision had these rows
    model.truncate_rows(1)
    assert model.revision not in seen
    assert model.n_rows == 1

    coeffs, sense, rhs = model.rows[0]
    assert (dict(coeffs), sense, rhs) == ({x: 1.0}, GREATER, 1.0)
    revision = model.revision
    with pytest.raises(TypeError):
        coeffs[x] = 2.0
    with pytest.raises(TypeError):
        model.rows[0] = ({x: 2.0}, sense, rhs)
    with pytest.raises(TypeError):
        del model.rows[0]
    with pytest.raises(AttributeError):
        model.rows = []
    with pytest.raises(AttributeError):
        model.revision = 0
    assert model.revision == revision
    assert [(dict(c), s, r) for c, s, r in model.rows] == [({x: 1.0}, GREATER, 1.0)]


def _broadcast_pivot(self, leave, enter, w):
    """The rank-1 inverse update through a broadcast multiply: the reference."""
    self.in_basis[self.basis[leave]] = False
    self.in_basis[enter] = True
    self.basis[leave] = enter
    row = self.binv[leave] / w[leave]
    np.multiply(w[:, None], row, out=self._outer)
    self.binv -= self._outer
    self.binv[leave] = row


def _lp_values(sol):
    """Everything an LP solution reports, with x by value (a zero's sign aside)."""
    return (sol.status, sol.iterations, sol.obj, sol.basis,
            None if sol.x is None else sol.x.tolist())


def test_einsum_rank1_update_takes_the_broadcast_pivots():
    """The einsum rank-1 update writes the broadcast multiply's values, so
    every LP takes the same pivots: random LPs solved cold and re-solved warm
    in a branching child, and every LP of the branch-and-cut solve of the
    (24, 50, 2, 3) benchmark master."""
    from ccvsp import bnc
    from ccvsp.core import ServiceParams
    from ccvsp.scenarios import GenParams, generate_instance, sample_scenarios

    inst = generate_instance(GenParams(n_trips=24, n_depots=2, seed=2))
    scen = sample_scenarios(inst, 50, seed=3)
    params = ServiceParams.for_instance(inst, lb=1, ub=5, delta_trip=0.9,
                                        delta_route=0.8, epsilon=0.05)

    def solve_all(pivot):
        pivots, sols = [], []
        solve = milp.lp_solve
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_Simplex, "_pivot",
                       lambda self, *a: pivots.append(1) or pivot(self, *a))
            mp.setattr(milp, "lp_solve",
                       lambda model, **kw: sols.append(solve(model, **kw)) or sols[-1])
            rng = np.random.default_rng(21)
            for _ in range(100):
                model = _random_lp(rng, n=int(rng.integers(3, 9)), m=int(rng.integers(2, 7)))
                cold = milp.lp_solve(model)
                if cold.status == "Optimal":
                    j = int(rng.integers(0, model.n_vars))
                    ub = np.array(model.ub)
                    ub[j] = max(model.lb[j], math.floor(cold.x[j] - 0.5))
                    milp.lp_solve(model, warm_start=cold.basis, var_ub=ub)
            random_lps = len(sols)
            res = bnc.MasterModel(inst, params, scen, bnc.BnCConfig()).solve()
        return [_lp_values(s) for s in sols], random_lps, len(pivots), res

    got, got_random, got_pivots, got_res = solve_all(_Simplex._pivot)
    want, want_random, want_pivots, want_res = solve_all(_broadcast_pivot)
    assert got == want
    assert got_pivots == want_pivots
    assert (got_res.status, got_res.objective, got_res.nodes) \
        == (want_res.status, want_res.objective, want_res.nodes)
    assert got_random >= 180 and len(got) - got_random >= 10, (got_random, len(got))
    assert got_pivots >= 1000, got_pivots


def _masked_dual_ratio(g, d, rise, fall, span, excess):
    """The bound-flipping ratio test with a mask per direction, a search of
    every stopping breakpoint and a gather of the Harris candidates: the
    reference."""
    can_rise = rise & (g < -PIVOT_TOL)
    can_fall = fall & (g > PIVOT_TOL)
    cand = np.flatnonzero(can_rise | can_fall)
    gc = g[cand]
    agc = np.abs(gc)
    ratio = np.maximum(d[cand] / -gc, 0.0)
    order = np.lexsort((-agc, ratio))
    reach = agc[order] * span[cand[order]]
    stop = np.flatnonzero(excess - np.cumsum(reach) <= FEAS_TOL)
    if not stop.size:
        return None
    k = int(stop[0])
    rest = order[k:]
    ratio_rest = ratio[rest]
    near = rest[ratio_rest <= np.min(ratio_rest + OPT_TOL / agc[rest])]
    pick = near[np.argmax(agc[near])]
    flips = cand[order[:k]]
    step = np.where(can_rise[flips], span[flips], -span[flips])
    return int(cand[pick]), ratio[pick], flips, step


def _ratio_bytes(result):
    if result is None:
        return None
    enter, theta, flips, moves = result
    return enter, np.float64(theta).tobytes(), flips.tolist(), moves.tobytes()


# row entries at and one ulp around the pivot tolerance, signed zeros and ties
_ROW = [0.0, -0.0, PIVOT_TOL, -PIVOT_TOL, np.nextafter(PIVOT_TOL, 1.0),
        -np.nextafter(PIVOT_TOL, 1.0), np.nextafter(PIVOT_TOL, 0.0),
        -np.nextafter(PIVOT_TOL, 0.0), 0.5, -0.5, 1.0, -1.0, 2.0, -2.0]


@st.composite
def _ratio_cases(draw):
    """Rows, reduced costs (zero, tied or arbitrary, so ratios tie), ranges
    (fixed, boxed or unbounded) and an excess that some prefix of flips
    may or may not cover."""
    k = draw(st.integers(0, 14))
    g = np.array(draw(st.lists(st.one_of(st.sampled_from(_ROW), st.floats(-3.0, 3.0)),
                               min_size=k, max_size=k)), dtype=float)
    d = np.array(draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, OPT_TOL, 2 * OPT_TOL]),
                                         st.floats(-2.0, 2.0)),
                               min_size=k, max_size=k)), dtype=float)
    span = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 5.0, np.inf]),
                                  min_size=k, max_size=k)), dtype=float)
    rise = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)), dtype=bool)
    fall = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)), dtype=bool)
    excess = draw(st.one_of(st.sampled_from([FEAS_TOL, 1.0, 2.0, 3.0 + FEAS_TOL]),
                            st.floats(0.0, 12.0)))
    return g, d, rise, fall, span, excess


# a Harris tie: the second breakpoint's ratio equals the first one's ratio
# plus OPT_TOL over its |g|, and its larger |g| makes it enter
_HARRIS_TIE = (np.array([-1.0, -2.0]), np.array([0.0, 2 * OPT_TOL]), np.array([True, True]),
               np.array([False, False]), np.array([1.0, 1.0]), FEAS_TOL)


@PROPERTY
@given(_ratio_cases())
@example(_HARRIS_TIE)
def test_dual_ratio_matches_the_masked_rule(case):
    """Entering column, its ratio, the flips and their moves, byte for byte."""
    got = _dual_ratio(*case)
    assert _ratio_bytes(got) == _ratio_bytes(_masked_dual_ratio(*case))
    assert got is None or type(got[0]) is int


def test_dual_ratio_takes_the_masked_rule_path_on_every_lp():
    """Every LP takes the same steps under the reference ratio test, bit for
    bit: random LPs solved cold and re-solved warm in both branching children,
    and every LP of the branch-and-cut solve of the (20, 50, 1, 2) benchmark
    master."""
    from ccvsp import bnc
    from ccvsp.core import ServiceParams
    from ccvsp.scenarios import GenParams, generate_instance, sample_scenarios

    inst = generate_instance(GenParams(n_trips=20, n_depots=2, seed=1))
    scen = sample_scenarios(inst, 50, seed=2)
    params = ServiceParams.for_instance(inst, lb=1, ub=5, delta_trip=0.9,
                                        delta_route=0.8, epsilon=0.05)

    def solve_all(ratio_test):
        steps, sols = [], []
        solve = milp.lp_solve
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(milp, "_dual_ratio",
                       lambda *a: steps.append(1) or ratio_test(*a))
            mp.setattr(milp, "lp_solve",
                       lambda model, **kw: sols.append(solve(model, **kw)) or sols[-1])
            rng = np.random.default_rng(22)
            for _ in range(100):
                model = _random_lp(rng, n=int(rng.integers(3, 9)), m=int(rng.integers(2, 7)))
                cold = milp.lp_solve(model)
                if cold.status != "Optimal":
                    continue
                j = int(rng.integers(0, model.n_vars))
                lb, ub = np.array(model.lb), np.array(model.ub)
                ub[j] = max(model.lb[j], math.floor(cold.x[j] - 0.5))
                milp.lp_solve(model, warm_start=cold.basis, var_ub=ub)
                lb[j] = min(model.ub[j], math.floor(cold.x[j] + 0.5) + 1.0)
                milp.lp_solve(model, warm_start=cold.basis, var_lb=lb)
            random_lps = len(sols)
            res = bnc.MasterModel(inst, params, scen, bnc.BnCConfig()).solve()
        return [_lp_fields(s) for s in sols], random_lps, len(steps), res

    got, got_random, got_steps, got_res = solve_all(_dual_ratio)
    want, want_random, want_steps, want_res = solve_all(_masked_dual_ratio)
    assert got == want
    assert got_steps == want_steps
    assert (got_res.status, got_res.objective, got_res.nodes) \
        == (want_res.status, want_res.objective, want_res.nodes)
    assert got_random >= 250 and len(got) - got_random >= 5, (got_random, len(got))
    assert got_steps >= 300, got_steps


def test_time_limit_holds_inside_one_lp(monkeypatch):
    """The root LP of this det-mean flow model alone takes about 10 s (2 cores,
    2.0 GHz) and is integral, so only a deadline inside the LP stops it early."""
    from ccvsp import baselines
    from ccvsp.scenarios import GenParams, generate_instance

    calls = []

    def timed_bnb(model, deadline=None, **kw):
        t0 = time.monotonic()
        sol = bnb_solve(model, deadline=deadline_after(1.0), **kw)
        calls.append((time.monotonic() - t0, sol.status))
        return sol

    monkeypatch.setattr(baselines, "bnb_solve", timed_bnb)
    inst = generate_instance(GenParams(n_trips=100, n_depots=2, seed=7))
    with pytest.raises(baselines.ValidationError):
        baselines.solve_deterministic(inst, baselines.MEAN)
    (elapsed, status), = calls
    assert status == "IterLimit"
    assert elapsed < 5.0


@pytest.mark.parametrize("with_incumbent", [True, False])
def test_time_limit_already_passed_stops_before_the_root(with_incumbent):
    """A search whose time limit has passed solves no node: IterLimit, with
    the given incumbent and a bound no higher, or with no schedule at all."""
    m = MilpModel()
    x = m.add_var(0, 3, -1.0, is_int=True)
    y = m.add_var(0, 3, -1.0, is_int=True)
    m.add_constr({x: 2.0, y: 2.0}, LESS, 5.0)
    incumbent = np.array([1.0, 0.0])
    sol = bnb_solve(m, deadline=deadline_after(-1.0),
                    incumbent0=(incumbent, -1.0) if with_incumbent else None)
    assert sol.status == "IterLimit"
    assert (sol.nodes, sol.iterations) == (0, 0)
    if with_incumbent:
        assert np.array_equal(sol.x, incumbent) and sol.obj == -1.0
        assert sol.bound <= sol.obj
    else:
        assert sol.x is None and math.isnan(sol.obj)


def test_blands_rule_takes_over_on_a_degenerate_lp(monkeypatch):
    """Rows A x <= 0 through the origin make the primal simplex stall at a
    degenerate vertex; past the streak limit Bland's rule prices and picks
    the leaving row, and the solve still ends at HiGHS's optimum."""
    from scipy.optimize import linprog

    rng = np.random.default_rng(55)
    c = rng.random(250) - 0.5
    A = rng.random((20, 250)) - 0.5
    model = MilpModel()
    cols = [model.add_var(0.0, np.inf, float(cj)) for cj in c]
    for row in A:
        model.add_constr(dict(zip(cols, row.tolist())), LESS, 0.0)
    model.add_constr(dict.fromkeys(cols, 1.0), LESS, 1.0)
    pricings = []
    entering = milp._entering
    monkeypatch.setattr(milp, "_entering", lambda d, rise, fall, bland: (
        pricings.append(bland) or entering(d, rise, fall, bland)))
    sol = lp_solve(model)
    assert sol.status == "Optimal"
    assert (sum(pricings), len(pricings)) == (112, 237)
    ref = linprog(c, A_ub=np.vstack([A, np.ones(250)]), b_ub=np.append(np.zeros(20), 1.0),
                  bounds=(0, None), method="highs")
    assert sol.obj == pytest.approx(ref.fun, abs=1e-9)
    assert sol.obj == pytest.approx(-0.46901863196, abs=1e-10)


def _most_fractional_loop(x, int_vars):
    """The sequential rule, one variable at a time: the reference."""
    best, best_score = None, 0.0
    for j in int_vars:
        frac = abs(x[j] - round(x[j]))
        if frac <= INT_TOL:
            continue
        score = 0.5 - abs(frac - 0.5)
        if best is None or score > best_score + 1e-12:
            best, best_score = j, score
    return best


@st.composite
def _fractional_points(draw):
    """Values that are integral, within INT_TOL of an integer, near-tied in
    fraction (within about 1e-12 of a shared base fraction) or arbitrary."""
    n = draw(st.integers(1, 12))
    base = draw(st.floats(0.0, 1.0))
    x = []
    for _ in range(n):
        kind = draw(st.sampled_from(["integral", "tolerance", "tolerance", "tie", "tie", "any"]))
        if kind == "integral":
            x.append(float(draw(st.integers(-5, 5))))
        elif kind == "tolerance":
            # on zero, INT_TOL itself is a fraction of exactly INT_TOL
            off = draw(st.sampled_from([INT_TOL, -INT_TOL, 0.5 * INT_TOL, 2 * INT_TOL]))
            x.append(draw(st.sampled_from([0, 0, -3, 4])) + off)
        elif kind == "tie":
            off = base + draw(st.sampled_from([0.0, -1.5e-12, -1e-12, -4e-13, 4e-13,
                                               1e-12, 1.5e-12]))
            x.append(draw(st.integers(-5, 5)) + off)
        else:
            x.append(draw(st.floats(-6.0, 6.0)))
    int_vars = sorted(draw(st.sets(st.integers(0, n - 1))))
    return np.array(x), int_vars


@PROPERTY
@given(_fractional_points())
def test_most_fractional_matches_sequential_rule(case):
    x, int_vars = case
    got = _most_fractional(x, np.array(int_vars, dtype=np.intp))
    assert got == _most_fractional_loop(x, int_vars)
    assert got is None or type(got) is int


def test_most_fractional_none_when_all_integral():
    x = np.array([1.0, 2.0 + 0.5 * INT_TOL, -3.0 - 0.5 * INT_TOL, 0.0, INT_TOL, 0.25])
    assert _most_fractional(x, np.arange(5)) is None
    assert _most_fractional(x, np.array([], dtype=np.intp)) is None
    assert _most_fractional(x, np.arange(6)) == 5


def _mask_entering(d, rise, fall, bland):
    """The entering rule the score array replaced, by masks: the reference."""
    up = rise & (d < -OPT_TOL)
    dn = fall & (d > OPT_TOL)
    can = up | dn
    if not can.any():
        return None
    if bland:
        enter = int(np.flatnonzero(can)[0])
    else:
        enter = int(np.argmax(np.where(can, np.abs(d), 0.0)))
    return enter, 1.0 if up[enter] else -1.0


# reduced costs at and around the pricing tolerance, signed zeros and ties
_PRICES = [0.0, -0.0, OPT_TOL, -OPT_TOL, np.nextafter(OPT_TOL, 1.0), -np.nextafter(OPT_TOL, 1.0),
           np.nextafter(OPT_TOL, 0.0), -np.nextafter(OPT_TOL, 0.0), 2 * OPT_TOL, -2 * OPT_TOL,
           0.5, -0.5, 3.0, -3.0]


@st.composite
def _pricing_cases(draw):
    k = draw(st.integers(0, 16))
    price = st.one_of(st.sampled_from(_PRICES), st.floats(-4.0, 4.0))
    d = np.array(draw(st.lists(price, min_size=k, max_size=k)), dtype=float)
    rise = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)), dtype=bool)
    fall = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)), dtype=bool)
    return d, rise, fall


@PROPERTY
@given(_pricing_cases())
def test_entering_score_matches_the_mask_rule(case):
    """Column, direction and the Optimal verdict (None), under Dantzig pricing
    and under Bland's rule."""
    d, rise, fall = case
    for bland in (False, True):
        got = _entering(d, rise, fall, bland)
        assert got == _mask_entering(d, rise, fall, bland), bland
        assert got is None or type(got[0]) is int
