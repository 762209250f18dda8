"""Self-contained LP and MILP solving for desk-scale models.

A dense revised simplex over bounded variables (two-phase, Dantzig pricing
with a Bland fallback under degeneracy) and a best-bound branch-and-bound with
a lazy-constraint hook. Node and post-cut re-solves warm-start from the
parent's final basis and re-optimise it with a bounded dual simplex (dual
steepest-edge pricing, bound-flipping ratio test). The root LP is solved cold
unless the caller hands in the root basis of an earlier solve of the same rows
under another objective, as the Lagrangian group solves do. Built for the
master problems and test oracles in this package, not for industrial scale.

The inverse is dense and each pivot costs a few dense products, so an
iteration's fixed numpy work matters as much as the iteration count. The
primal pricing skips the artificials once phase 1 has fixed them at zero and
picks its entering column from one score array. Both loops keep the basic
values and bounds in arrays by row, and the masks of the nonbasic columns that
may rise or fall, up to date across pivots and flips instead of gathering them
again. The dual steepest-edge norms and scores are taken for the infeasible
rows only; the dual ratio test builds one candidate mask and finds its
stopping breakpoint with one search. The rank-1 inverse update writes its
products (through einsum) and the result into existing arrays.

A model turns each row into arrays once and never edits it in place, so its
``revision``, the column count and the number of the last row, names its rows
and columns. Work that repeats across solves of one model is kept on the model
under that revision. The first entry is the dense matrix of the rows, with the
right-hand sides and slack bounds, read-only, which every solve shares until a
row or a column is added or rows are truncated. The second is the end state of
the last completed cold phase 1, under the revision and the bytes of the
variable bounds: phase 1 does not read the objective, so a cold solve under a
new objective, or after a refused warm start, begins at phase 2 and still
counts the phase-1 iterations. Truncating back to earlier rows gives the
earlier revision, so a master returned to its base rows meets its phase 1
again. The third is the last warm-start basis inverse, under the revision and
the basis, since sibling nodes start from their parent's basis over the same
rows; a basis that only swaps in columns of equal bytes has the same matrix
and shares it. All of this keeps every pivot decision and every reported
iteration count bit for bit.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from collections.abc import Mapping
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .core import ValidationError

FEAS_TOL = 1e-7
OPT_TOL = 1e-7
INT_TOL = 1e-6
GAP_TOL = 1e-6
PIVOT_TOL = 1e-9
REFACTOR_EVERY = 120
INF = math.inf
# the most bytes a model's dense arrays may take (see _Matrix.of)
_BYTES_CAP = 1 << 30

LESS, GREATER, EQUAL = "<=", ">=", "=="


class MilpModel:
    """Bounded-variable LP/MILP in row form, minimization.

    Each row is turned into arrays of its columns and values once, when it is
    added, and numbered; no number is given twice. Rows are not edited in
    place (``rows`` gives read-only views) and leave only from the end, by
    ``truncate_rows``; columns are only added. So ``revision``, the column
    count and the last row's number (0 without rows), names the rows and
    columns."""

    def __init__(self):
        self.obj: list[float] = []
        self.lb: list[float] = []
        self.ub: list[float] = []
        self.is_int: list[bool] = []
        # each row: its columns and values, sense, right-hand side and number
        self._cols: list[np.ndarray] = []
        self._vals: list[np.ndarray] = []
        self._sense: list[str] = []
        self._rhs: list[float] = []
        self._row_nums: list[int] = []
        self._rows_added = 0
        # what the simplex computed on this model and may meet again, each
        # under the revision it was computed at: the dense matrix of the rows
        # (read-only), the end state of the last completed cold phase 1, and
        # the last warm-start basis inverse
        self._matrix: _Matrix | None = None
        self._phase1: _Phase1 | None = None
        self._inverse: tuple[tuple[int, int], np.ndarray, np.ndarray | None] | None = None

    @property
    def revision(self) -> tuple[int, int]:
        return self.n_vars, self._row_nums[-1] if self._row_nums else 0

    def add_var(self, lb: float = 0.0, ub: float = INF, obj: float = 0.0,
                is_int: bool = False) -> int:
        if lb > ub + FEAS_TOL:
            raise ValueError(f"variable bounds cross: [{lb}, {ub}]")
        if is_int and (lb == -INF or ub == INF):
            raise ValueError("integer variables need finite bounds")
        self.obj.append(float(obj))
        self.lb.append(float(lb))
        self.ub.append(float(ub))
        self.is_int.append(bool(is_int))
        return len(self.obj) - 1

    def add_constr(self, coeffs: Mapping[int, float], sense: str, rhs: float) -> int:
        if sense not in (LESS, GREATER, EQUAL):
            raise ValueError(f"unknown sense {sense!r}")
        row = {int(k): float(v) for k, v in coeffs.items() if v != 0.0}
        self._cols.append(np.fromiter(row, dtype=np.intp, count=len(row)))
        self._vals.append(np.fromiter(row.values(), dtype=float, count=len(row)))
        self._sense.append(sense)
        self._rhs.append(float(rhs))
        self._rows_added += 1
        self._row_nums.append(self._rows_added)
        return len(self._rhs) - 1

    def truncate_rows(self, n: int) -> None:
        """Keep the first ``n`` rows; a no-op when there are no more."""
        if n >= self.n_rows:
            return
        for rows in (self._cols, self._vals, self._sense, self._rhs, self._row_nums):
            del rows[n:]

    @property
    def rows(self) -> tuple[tuple[Mapping[int, float], str, float], ...]:
        """The rows in order, each as (read-only {column: coefficient}, sense, rhs)."""
        return tuple((MappingProxyType(dict(zip(c.tolist(), v.tolist()))), sense, rhs)
                     for c, v, sense, rhs in zip(self._cols, self._vals, self._sense, self._rhs))

    @property
    def n_vars(self) -> int:
        return len(self.obj)

    @property
    def n_rows(self) -> int:
        return len(self._rhs)


@dataclass
class LpSolution:
    status: str                      # Optimal | Infeasible | Unbounded | IterLimit
    x: np.ndarray | None = None
    obj: float = math.nan
    iterations: int = 0
    basis: list[int] | None = None


@dataclass
class MilpSolution:
    status: str                      # Optimal | Infeasible | Unbounded | IterLimit
    x: np.ndarray | None = None
    obj: float = math.nan
    bound: float = -math.inf
    gap: float = math.inf
    nodes: int = 0
    iterations: int = 0
    # final basis of the first root LP, before any lazy rows; see bnb_solve
    root_basis: list[int] | None = None


class _Matrix(NamedTuple):
    """What the rows of one model revision fix, all read-only: the dense
    matrix [rows | slacks | artificials], the right-hand sides and the bounds
    of the slack columns."""

    revision: tuple[int, int]
    A: np.ndarray
    b: np.ndarray
    slack_lo: np.ndarray
    slack_hi: np.ndarray

    @classmethod
    def of(cls, model: MilpModel) -> _Matrix:
        """The model's saved matrix when its revision is current, else a new
        one, saved on the model. A new one is refused before it is allocated
        when a solve's dense arrays would pass ``_BYTES_CAP``: the m x (n + 2m)
        matrix and four m x m ones (the inverse, its update buffer, and the
        phase-1 and warm-start inverses the model keeps)."""
        saved = model._matrix
        if saved is not None and saved.revision == model.revision:
            return saved
        n, m = model.n_vars, model.n_rows
        need = 8 * m * (n + 2 * m) + 4 * 8 * m * m
        if need > _BYTES_CAP:
            raise ValidationError(f"the LP of {n} columns and {m} rows needs {need} bytes "
                                  f"of dense arrays, over the cap of {_BYTES_CAP} bytes")
        A = np.zeros((m, n + 2 * m))
        if m:
            counts = np.fromiter(map(len, model._cols), dtype=np.intp, count=m)
            A[np.repeat(np.arange(m), counts), np.concatenate(model._cols)] = \
                np.concatenate(model._vals)
        diag = np.arange(m)
        A[diag, n + diag] = 1.0        # slacks
        A[diag, n + m + diag] = 1.0    # artificials
        sense = np.array(model._sense, dtype=object)
        arrays = (A, np.array(model._rhs, dtype=float), np.where(sense == GREATER, -INF, 0.0),
                  np.where(sense == LESS, INF, 0.0))
        for a in arrays:
            a.flags.writeable = False
        model._matrix = cls(model.revision, *arrays)
        return model._matrix


class _Phase1(NamedTuple):
    """End state of a completed cold phase 1, before the artificials are fixed."""

    key: tuple              # the model revision and the bytes of the variable bounds
    iterations: int
    infeasible: bool
    basis: np.ndarray
    binv: np.ndarray
    x: np.ndarray


class _Simplex:
    """Revised simplex with bounds; columns are structural | slacks | artificials."""

    def __init__(self, model: MilpModel, var_lb=None, var_ub=None):
        n, m = model.n_vars, model.n_rows
        self.model = model
        self.n, self.m = n, m
        ncols = n + 2 * m
        mat = _Matrix.of(model)
        self.A, self.b = mat.A, mat.b
        self.lo = np.empty(ncols)
        self.hi = np.empty(ncols)
        self.lo[:n] = model.lb if var_lb is None else var_lb
        self.hi[:n] = model.ub if var_ub is None else var_ub
        self.lo[n: n + m] = mat.slack_lo
        self.hi[n: n + m] = mat.slack_hi
        self.cost = np.zeros(ncols)
        self.cost[:n] = model.obj
        self.iterations = 0
        self.basis = np.empty(0, dtype=np.intp)      # the basic column of each row
        self.in_basis = np.zeros(ncols, dtype=bool)
        self.x = np.zeros(ncols)
        self.binv = np.eye(m)
        self._outer = np.empty((m, m))       # buffer of the rank-1 update

    def set_start_point(self):
        """All-artificial starting basis absorbing the residual of each row."""
        n, m = self.n, self.m
        x = np.zeros(n + 2 * m)
        lo, hi = self.lo[: n + m], self.hi[: n + m]
        x[: n + m] = np.where(lo > -INF, lo, np.where(hi < INF, hi, 0.0))
        resid = self.b - self.A[:, : n + m] @ x[: n + m]
        art = np.arange(n + m, n + 2 * m)
        x[art] = resid
        self.lo[art] = np.where(resid >= 0, 0.0, -INF)
        self.hi[art] = np.where(resid >= 0, INF, 0.0)
        self.basis = art
        self.in_basis[:] = False
        self.in_basis[art] = True
        self.binv = np.eye(m)
        self.x = x
        return np.where(resid >= 0, 1.0, -1.0)

    def _phase1_key(self) -> tuple:
        """What phase 1 reads: the rows, which fix the right-hand sides and
        the slack bounds, and the bounds of the structural columns."""
        n = self.n
        return self.model.revision, self.lo[:n].tobytes(), self.hi[:n].tobytes()

    def _warm_inverse(self) -> np.ndarray | None:
        """A fresh inverse of the basis matrix, None when it is singular.

        The model keeps the last one under its revision and the basis: sibling
        nodes start from their parent's basis over the same rows. A basis that
        differs from the saved one only by columns of equal bytes, such as
        indicators that only the budget row holds, has the same matrix and
        shares it.
        """
        saved = self.model._inverse
        if saved is not None and self._same_basis_matrix(*saved[:2]):
            inv = saved[2]
        else:
            try:
                inv = np.linalg.inv(self.A[:, self.basis])
            except np.linalg.LinAlgError:
                inv = None
            self.model._inverse = (self.model.revision, self.basis.copy(), inv)
        return None if inv is None else inv.copy()

    def _same_basis_matrix(self, revision: tuple[int, int], basis: np.ndarray) -> bool:
        """Whether ``basis`` under ``revision`` has this basis's matrix, byte
        for byte: the same rows, and in each position the same column or one
        with the same bytes in the dense matrix."""
        if revision != self.model.revision:
            return False
        swapped = (basis != self.basis).nonzero()[0]
        return self.A[:, basis[swapped]].tobytes() == self.A[:, self.basis[swapped]].tobytes()

    def _refactor(self):
        try:
            self.binv = np.linalg.inv(self.A[:, self.basis])
        except np.linalg.LinAlgError:
            self.binv = np.linalg.pinv(self.A[:, self.basis])

    def _reduced_costs(self) -> np.ndarray:
        return self.cost - (self.cost[self.basis] @ self.binv) @ self.A

    def _set_basics(self):
        """Basic values from the nonbasic ones through the current inverse."""
        nb = ~self.in_basis
        self.x[self.basis] = self.binv @ (self.b - self.A[:, nb] @ self.x[nb])

    def _refresh(self):
        """Fresh inverse and basic values, dropping the drift of the updates."""
        self._refactor()
        self._set_basics()

    def _pivot(self, leave: int, enter: int, w: np.ndarray):
        self.in_basis[self.basis[leave]] = False
        self.in_basis[enter] = True
        self.basis[leave] = enter
        row = self.binv[leave] / w[leave]
        # rank-1 update in place: binv -= outer(w, row), through a reused
        # buffer; einsum writes the products faster than a broadcast multiply,
        # with equal values (a zero product may come out +0 where it gave -0)
        np.einsum("i,j->ij", w, row, out=self._outer)
        self.binv -= self._outer
        self.binv[leave] = row

    def _stop(self, xb, status: str) -> str:
        """Write a loop's basic values back, and return ``status``."""
        self.x[self.basis] = xb
        return status

    def _iterate(self, cost, max_iter, deadline) -> str:
        n, m = self.n, self.m
        lo, hi, x, basis = self.lo, self.hi, self.x, self.basis
        bland = False
        degen_streak = 0
        pivots = 0
        # price only the columns that can enter: in phase 2 the artificials are
        # fixed at zero, so the first n + m columns
        k = len(cost) if (lo[n + m:] < hi[n + m:]).any() else n + m
        A, cost_k = self.A[:, :k], cost[:k]
        lo_tol, hi_tol = lo[:k] + FEAS_TOL, hi[:k] - FEAS_TOL
        # a nonbasic movable column at its lower bound (or strictly between)
        # may rise, one at its upper bound (or strictly between) may fall; the
        # masks change only where a pivot or a flip moves a column
        at_lo, at_hi = x[:k] <= lo_tol, x[:k] >= hi_tol
        free = ~self.in_basis[:k] & (lo[:k] < hi[:k])
        rise, fall = free & (at_lo | ~at_hi), free & (at_hi | ~at_lo)

        def moved(j):
            a_lo, a_hi = x[j] <= lo_tol[j], x[j] >= hi_tol[j]
            movable = lo[j] < hi[j]
            rise[j] = movable and (a_lo or not a_hi)
            fall[j] = movable and (a_hi or not a_lo)

        # values, bounds and costs of the basic columns, by row
        xb, lob, hib, cb = x[basis], lo[basis], hi[basis], cost[basis]
        t_rows = np.empty(m)
        while True:
            if self.iterations >= max_iter or _expired(deadline):
                return self._stop(xb, "IterLimit")
            self.iterations += 1
            y = cb @ self.binv
            d = cost_k - y @ A
            entering = _entering(d, rise, fall, bland)
            if entering is None:
                return self._stop(xb, "Optimal")
            enter, direction = entering
            w = self.binv @ self.A[:, enter]
            # ratio test; entering moves t*direction, basics move -t*direction*w
            # toward the bound ahead of them; a row whose |step| is within
            # FEAS_TOL of zero sets no limit
            step = -direction * w
            bound = np.where(step < 0, lob, hib)
            t_rows.fill(INF)
            np.divide(bound - xb, step, out=t_rows, where=np.abs(step) > FEAS_TOL)
            t_flip = hi[enter] - lo[enter]
            if m:
                leave = int(t_rows.argmin())
                t_limit = t_rows[leave]
                if bland and t_limit < INF:
                    # anti-cycling: among tied rows, leave by smallest variable index
                    ties = (t_rows <= t_limit + 1e-12).nonzero()[0]
                    leave = int(ties[basis[ties].argmin()])
                    t_limit = t_rows[leave]
            else:
                leave, t_limit = -1, INF
            if t_flip < t_limit - 1e-12:
                if t_flip == INF:
                    return self._stop(xb, "Unbounded")
                x[enter] += direction * t_flip
                xb -= direction * t_flip * w
                moved(enter)
            else:
                if t_limit == INF:
                    return self._stop(xb, "Unbounded")
                t = max(t_limit, 0.0)
                x[enter] += direction * t
                xb -= direction * t * w
                out = basis[leave]
                x[out] = bound[leave]
                self._pivot(leave, enter, w)
                xb[leave], lob[leave], hib[leave], cb[leave] = x[enter], lo[enter], hi[enter], cost[enter]
                rise[enter] = fall[enter] = False
                if out < k:
                    moved(out)
                pivots += 1
                if pivots >= REFACTOR_EVERY:
                    self._refactor()
                    pivots = 0
                t_flip = t  # for the degeneracy bookkeeping below
            if t_flip <= 1e-10:
                degen_streak += 1
                if degen_streak > max(60, 2 * m):
                    bland = True
            else:
                degen_streak = 0
                bland = False

    def _dual_iterate(self, d, max_iter, deadline) -> str | None:
        """Bounded dual simplex from a dual feasible basis with reduced costs ``d``.

        Returns "Optimal" once every basic value is within its bounds,
        "Infeasible" when a bound-violating row admits no entering column (no
        nonbasic move can bring it back, a Farkas certificate), "IterLimit" on
        ``max_iter`` or the deadline, and None when it runs past its own cap of
        n + m iterations, which only a cycling or stalled run reaches.
        """
        n, m = self.n, self.m
        lo, hi, x, basis = self.lo, self.hi, self.x, self.basis
        span = hi[: n + m] - lo[: n + m]
        lo_tol, hi_tol = lo[: n + m] + FEAS_TOL, hi[: n + m] - FEAS_TOL
        A = self.A[:, : n + m]          # artificials stay nonbasic at zero
        d = d[: n + m].copy()
        # nonbasic movable columns below their upper bound may rise, those
        # above their lower bound may fall; kept across pivots and flips
        xn = x[: n + m]
        free = ~self.in_basis[: n + m] & (lo[: n + m] < hi[: n + m])
        rise, fall = free & (xn < hi_tol), free & (xn > lo_tol)
        # values and bounds of the basic columns, by row
        xb, lob, hib = x[basis], lo[basis], hi[basis]
        cap = self.iterations + n + m
        pivots = 0
        while True:
            below = lob - xb
            above = xb - hib
            infeas = np.maximum(below, above)
            bad = (infeas > FEAS_TOL).nonzero()[0]
            if not bad.size:
                return self._stop(xb, "Optimal")
            if self.iterations >= max_iter or _expired(deadline):
                return self._stop(xb, "IterLimit")
            if self.iterations >= cap:
                return None
            self.iterations += 1
            # leaving row by dual steepest edge: infeasibility over the row norm
            # of B^-1, taken for the infeasible rows only
            rows = self.binv[bad]
            ib = infeas[bad]
            r = int(bad[(ib * ib / np.einsum("ij,ij->i", rows, rows)).argmax()])
            sign = 1.0 if below[r] > 0 else -1.0     # +1: the basic must rise to its lower bound
            g = sign * (self.binv[r] @ A)
            step = _dual_ratio(g, d, rise, fall, span, infeas[r])
            if step is None:
                if pivots:
                    # rule out drift in the updated values before declaring infeasibility
                    self._refresh()
                    xb = x[basis]
                    pivots = 0
                    continue
                return self._stop(xb, "Infeasible")
            enter, theta, flips, moves = step
            if flips.size:
                x[flips] += moves
                xb -= self.binv @ (A[:, flips] @ moves)
                rise[flips] = x[flips] < hi_tol[flips]
                fall[flips] = x[flips] > lo_tol[flips]
            d += theta * g
            d[enter] = 0.0
            w = self.binv @ self.A[:, enter]
            out = basis[r]
            target = lob[r] if sign > 0 else hib[r]
            delta = (xb[r] - target) / w[r]
            x[enter] += delta
            xb -= delta * w
            x[out] = target
            self._pivot(r, enter, w)
            xb[r], lob[r], hib[r] = x[enter], lo[enter], hi[enter]
            rise[enter] = fall[enter] = False
            movable = lo[out] < hi[out]
            rise[out] = movable and target < hi_tol[out]
            fall[out] = movable and target > lo_tol[out]
            pivots += 1
            if pivots >= REFACTOR_EVERY:
                self._refresh()
                xb = x[basis]
                d = self._reduced_costs()[: n + m]
                pivots = 0

    def _result(self, status: str) -> LpSolution:
        """How the solve ended: the status and the iterations, and on Optimal
        also x, its objective and the final basis."""
        if status != "Optimal":
            return LpSolution(status, iterations=self.iterations)
        n, m = self.n, self.m
        obj = float(self.cost[: n + m] @ self.x[: n + m])
        # artificial i and slack i are the same column e_i; naming the slack keeps
        # the basis valid after rows are appended (artificial indices shift)
        basis = np.where(self.basis >= n + m, self.basis - m, self.basis).tolist()
        return LpSolution(status, x=self.x[:n].copy(), obj=obj,
                          iterations=self.iterations, basis=basis)

    def solve(self, max_iter: int, deadline: float | None = None) -> LpSolution:
        """Two-phase solve from the all-artificial basis.

        Phase 1 reads only the rows, the right-hand sides and the bounds, so
        the model keeps the end state of its last completed phase 1. A later
        cold solve with the same phase 1 (under another objective, or after a
        refused warm start) starts phase 2 from that state and counts the
        phase-1 iterations, unless they would not fit in ``max_iter``; a phase
        1 stopped by the deadline or ``max_iter`` is not kept.
        """
        n, m = self.n, self.m
        art = slice(n + m, n + 2 * m)
        key = self._phase1_key()
        saved = self.model._phase1
        if saved is not None and saved.key == key \
                and self.iterations + saved.iterations <= max_iter:
            self.basis = saved.basis.copy()
            self.in_basis[:] = False
            self.in_basis[self.basis] = True
            self.binv = saved.binv.copy()
            self.x = saved.x.copy()
            self.iterations += saved.iterations
            infeasible = saved.infeasible
        else:
            phase1_sign = self.set_start_point()
            infeasible = False
            if float(phase1_sign @ self.x[art]) > FEAS_TOL:
                start = self.iterations
                p1cost = np.zeros(n + 2 * m)
                p1cost[art] = phase1_sign
                status = self._iterate(p1cost, max_iter, deadline)
                if status == "IterLimit":
                    return self._result(status)
                infeasible = float(p1cost @ self.x) > 1e-6
                self.model._phase1 = _Phase1(key, self.iterations - start, infeasible,
                                             self.basis.copy(), self.binv.copy(), self.x.copy())
        if infeasible:
            return self._result("Infeasible")
        self.lo[art] = 0.0
        self.hi[art] = 0.0
        self.x[art][np.abs(self.x[art]) < 1e-9] = 0.0
        return self._result(self._iterate(self.cost, max_iter, deadline))

    def solve_from_basis(self, basis: list[int], max_iter: int,
                         deadline: float | None = None) -> LpSolution | None:
        """Re-optimise the final basis of an earlier solve of this model.

        The model may have gained rows since (their slacks enter as basic) and
        the variable bounds may differ. Each boxed nonbasic column sits at the
        bound its reduced-cost sign asks for, so a basis that was optimal stays
        dual feasible, and the dual simplex restores primal feasibility; the
        primal simplex then cleans up. None means the basis is unusable
        (malformed, singular, dual infeasible or cycling): the caller solves
        cold.
        """
        n, m = self.n, self.m
        k = len(basis)
        if k > m or len(set(basis)) != k or min(basis, default=0) < 0 \
                or max(basis, default=-1) >= n + k:
            return None
        self.basis = np.concatenate([np.asarray(basis, dtype=np.intp), np.arange(n + k, n + m)])
        binv = self._warm_inverse()
        if binv is None:
            return None
        self.binv = binv
        self.in_basis[:] = False
        self.in_basis[self.basis] = True
        art = slice(n + m, n + 2 * m)
        self.lo[art] = 0.0
        self.hi[art] = 0.0
        d = self._reduced_costs()
        lo, hi = self.lo, self.hi
        if (~self.in_basis & (((lo == -INF) & (d > OPT_TOL))
                              | ((hi == INF) & (d < -OPT_TOL)))).any():
            return None
        at_hi = (hi < INF) & ((lo == -INF) | (d < 0))
        self.x = np.where(at_hi, hi, np.where(lo > -INF, lo, 0.0))
        self._set_basics()
        status = self._dual_iterate(d, max_iter, deadline)
        if status is None:
            return None
        if status == "Optimal":
            status = self._iterate(self.cost, max_iter, deadline)
        return self._result(status)


def _entering(d: np.ndarray, rise: np.ndarray, fall: np.ndarray,
              bland: bool) -> tuple[int, float] | None:
    """The primal entering column and its direction (+1 rises, -1 falls), or
    None when no column prices out.

    A column that may rise scores -d, one that may fall scores d, and it keeps
    the larger; it may enter when that score exceeds OPT_TOL, which is then
    |d|. Dantzig pricing enters at the highest score (the lowest index among
    ties), Bland's rule at the lowest index that may enter.
    """
    if not d.size:
        return None
    score = np.maximum(np.where(rise, -d, 0.0), np.where(fall, d, 0.0))
    enter = int(score.argmax())
    if score[enter] <= OPT_TOL:
        return None
    if bland:
        enter = int((score > OPT_TOL).argmax())
    return enter, 1.0 if d[enter] < 0 else -1.0


def _dual_ratio(g: np.ndarray, d: np.ndarray, rise: np.ndarray, fall: np.ndarray,
                span: np.ndarray, excess: float):
    """The dual simplex's bound-flipping ratio test on the leaving row.

    ``g`` is the row of B^-1 A, signed so that the basic value must move by
    ``excess`` against it; ``d`` holds the reduced costs and ``span`` the
    column ranges. A column may enter when it may rise and g < -PIVOT_TOL, or
    may fall and g > PIVOT_TOL. The test walks the breakpoints in ratio order
    (ties: larger |g| first): a boxed column whose whole range still leaves
    the row out of bounds flips to its other bound, and the first that would
    not stops the walk. Among the remaining breakpoints within the optimality
    tolerance of the stopping ratio, the largest |g| enters (Harris).

    Returns (entering column, its ratio, the flipped columns, their moves), or
    None when even every flip leaves the row out of bounds.
    """
    cand = ((rise & (g < -PIVOT_TOL)) | (fall & (g > PIVOT_TOL))).nonzero()[0]
    if not cand.size:
        return None
    gc = g[cand]
    agc = np.abs(gc)
    ratio = np.maximum(d[cand] / -gc, 0.0)
    order = np.lexsort((-agc, ratio))
    cols = cand[order]                  # the breakpoints in walk order
    spans = span[cols]
    # a reach short of the excess by no more than FEAS_TOL suffices
    enough = excess - np.cumsum(agc[order] * spans) <= FEAS_TOL
    k = int(enough.argmax())
    if not enough[k]:
        return None
    rest = order[k:]
    ratio_rest, agc_rest = ratio[rest], agc[rest]
    near = ratio_rest <= (ratio_rest + OPT_TOL / agc_rest).min()
    pick = rest[np.where(near, agc_rest, -INF).argmax()]
    # a candidate with g < 0 may rise, one with g > 0 may fall
    moves = np.where(gc[order[:k]] < 0, spans[:k], -spans[:k]) if k else spans[:0]
    return int(cand[pick]), ratio[pick], cols[:k], moves


def deadline_after(time_limit: float | None) -> float | None:
    """The ``time.monotonic()`` instant ``time_limit`` seconds from now (None:
    no limit); a limit at or below 0 has passed, and nan raises ValidationError."""
    if time_limit is None:
        return None
    if math.isnan(time_limit):
        raise ValidationError("time limit is nan, not a number of seconds")
    return time.monotonic() + time_limit


def _expired(deadline: float | None) -> bool:
    return deadline is not None and time.monotonic() > deadline


def lp_solve(model: MilpModel, warm_start: list[int] | None = None,
             var_lb=None, var_ub=None, deadline: float | None = None) -> LpSolution:
    """Solve the LP relaxation; on Optimal the solution holds x, its objective
    value and the final basis.

    ``warm_start`` is the ``basis`` of an earlier solution of this model, which
    may since have gained rows or been given other variable bounds; the dual
    simplex re-optimises it, and an unusable basis falls back to a cold solve
    from the same ``_Simplex`` (its start point resets the basis and values),
    so ``iterations`` counts both attempts. ``deadline`` is a
    ``time.monotonic()`` instant; once it passes, the solve stops with status
    IterLimit, as it does after 2000 + 200 (rows + columns) simplex iterations.
    """
    max_iter = 2000 + 200 * (model.n_rows + model.n_vars)
    sim = _Simplex(model, var_lb=var_lb, var_ub=var_ub)
    if warm_start is not None:
        sol = sim.solve_from_basis(warm_start, max_iter, deadline)
        if sol is not None:
            return sol
    return sim.solve(max_iter, deadline)


@dataclass(order=True)
class _Node:
    bound: float
    seq: int
    overrides: dict = field(compare=False, default_factory=dict)
    # the parent LP's final basis; its length is the parent's row count
    basis: list[int] | None = field(compare=False, default=None)


def bnb_solve(model: MilpModel, lazy=None, deadline: float | None = None,
              incumbent0=None, root_basis: list[int] | None = None) -> MilpSolution:
    """Best-bound branch-and-bound with lazy constraints added globally.

    ``lazy(x)`` runs at every integer-feasible point and returns a list of
    (coeffs, sense, rhs) rows; returned rows join the model for the whole tree
    and the node is re-solved. Every LP after the root is warm-started from
    the basis its parent node, or the previous lazy round, ended with.
    Branching picks the integer variable whose fractional part is closest to
    one half (ties: lowest index). Deterministic for identical inputs and
    configuration. ``incumbent0`` seeds the search with a known feasible
    (x, objective) pair; the caller vouches for its feasibility.
    ``deadline`` (see ``deadline_after``) also bounds the time spent inside
    one LP. The search stops as Optimal once the relative gap is at most
    ``GAP_TOL``. It also stops, as IterLimit with its incumbent and bound so
    far, when lazy rows push an LP past ``_BYTES_CAP``; an LP over the cap
    before any lazy row raises.

    ``root_basis`` warm-starts the root LP. It is the ``root_basis`` of an
    earlier solve of this model with the same rows, which may since have been
    given another objective; an unusable basis falls back to a cold solve.
    The result's ``root_basis`` is the basis the first root LP ended with,
    before any lazy rows were added (None when that LP was not optimal), so a
    caller that re-solves one model under a sequence of objectives passes each
    solve's root basis to the next.
    """
    n_rows0 = model.n_rows
    int_vars = np.flatnonzero(model.is_int)
    base_lb = np.array(model.lb)
    base_ub = np.array(model.ub)
    incumbent: np.ndarray | None = None
    inc_obj = INF
    if incumbent0 is not None:
        incumbent = np.asarray(incumbent0[0], dtype=float).copy()
        inc_obj = float(incumbent0[1])
    nodes = 0
    total_iters = 0
    counter = 0
    heap = [_Node(-INF, counter, {}, root_basis)]
    first_basis: list[int] | None = None

    def result(status, x, obj, bound, gap):
        return MilpSolution(status, x, obj, bound, gap, nodes, total_iters, first_basis)

    while heap:
        if incumbent is not None:
            # unpruned open nodes may lie above the incumbent; the heap orders
            # nodes by (bound, seq), so its head holds the lowest bound
            low = min(inc_obj, heap[0].bound)
            if _rel_gap(inc_obj, low) <= GAP_TOL:
                return result("Optimal", incumbent, inc_obj, low, _rel_gap(inc_obj, low))
        if _expired(deadline):
            break
        node = heapq.heappop(heap)    # the gap test kept it: no prune needed
        nodes += 1
        lb = base_lb.copy()
        ub = base_ub.copy()
        for j, (lo, hi) in node.overrides.items():
            lb[j] = max(lb[j], lo)
            ub[j] = min(ub[j], hi)
        basis = node.basis
        while True:
            try:
                sol = lp_solve(model, warm_start=basis, var_lb=lb, var_ub=ub, deadline=deadline)
            except ValidationError:
                if model.n_rows == n_rows0:
                    raise
                sol = LpSolution("IterLimit")    # the lazy rows passed the byte cap
            total_iters += sol.iterations
            if nodes == 1 and first_basis is None:
                first_basis = sol.basis
            if sol.status == "Infeasible":
                break
            if sol.status != "Optimal":
                return result(sol.status, incumbent, inc_obj, node.bound,
                              _rel_gap(inc_obj, node.bound))
            if incumbent is not None and sol.obj >= inc_obj - _gap_slack(inc_obj):
                break
            frac_j = _most_fractional(sol.x, int_vars)
            if frac_j is None:
                cuts = list(lazy(sol.x)) if lazy is not None else []
                if cuts:
                    for coeffs, sense, rhs in cuts:
                        model.add_constr(coeffs, sense, rhs)
                    basis = sol.basis
                    continue  # re-solve this node under the new rows
                x = sol.x.copy()
                x[int_vars] = np.round(x[int_vars]) + 0.0   # + 0.0 turns -0.0 into 0.0
                incumbent, inc_obj = x, sol.obj
                break
            lo_val = math.floor(sol.x[frac_j] + INT_TOL)
            l0, h0 = node.overrides.get(frac_j, (base_lb[frac_j], base_ub[frac_j]))
            counter += 1
            left = dict(node.overrides)
            left[frac_j] = (l0, min(h0, lo_val))
            heapq.heappush(heap, _Node(max(sol.obj, node.bound), counter, left, sol.basis))
            counter += 1
            right = dict(node.overrides)
            right[frac_j] = (max(l0, lo_val + 1), h0)
            heapq.heappush(heap, _Node(max(sol.obj, node.bound), counter, right, sol.basis))
            break

    # open nodes left mean the deadline stopped the search
    if incumbent is None:
        return result("IterLimit" if heap else "Infeasible", None, math.nan,
                      heap[0].bound if heap else -INF, math.inf)
    if heap:
        low = min(inc_obj, heap[0].bound)
        return result("IterLimit", incumbent, inc_obj, low, _rel_gap(inc_obj, low))
    return result("Optimal", incumbent, inc_obj, inc_obj, 0.0)


def _gap_slack(inc_obj: float) -> float:
    return max(GAP_TOL * abs(inc_obj), 1e-9)


def _rel_gap(inc: float, bound: float) -> float:
    if inc == INF or bound == -INF:
        return math.inf
    return (inc - bound) / max(1.0, abs(inc))


def _most_fractional(x: np.ndarray, int_vars: np.ndarray):
    """Integer variable whose fraction is closest to 1/2, or None if all integral.

    Scanning in index order, a variable replaces the best so far only when its
    score is higher by more than 1e-12, so near-ties go to the lowest index.
    """
    xi = x[int_vars]
    frac = np.abs(xi - np.round(xi))
    keep = frac > INT_TOL
    best, best_score = None, 0.0
    for j, score in zip(int_vars[keep].tolist(), (0.5 - np.abs(frac[keep] - 0.5)).tolist()):
        if best is None or score > best_score + 1e-12:
            best, best_score = j, score
    return best
