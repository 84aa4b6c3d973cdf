"""NumPy polish of a grid's local minima: line searches, no SciPy.

Along a line, the constrained optimum of a smooth program is a stationary
point of the objective, a root of a binding margin, or an end of the line.
The polish scans lines, then refines in rounds the bracket around each
line's best sample (at its parabola's vertex) and each sign change of a
margin (at the root's inverse quadratic interpolant), all lines of a round
in one batch: one call of the objective and of each margin.  It returns the
best sample meeting every margin, valued as a one-row batch of its own.  In
one dimension each start's line spans its grid bracket; in more, lines
cross the box along every axis through the best start and through the box
corner nearest to it, then through each new best point until nothing
improves, so an optimum on a face (LMAC's, where a requirement meets the
least slot count) is found beyond the start's grid neighbours.  With no
feasible start the rounds minimize the largest violation instead.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.parameters import ParameterSpace
from repro.exceptions import SolverError
from repro.optimization.grid import Constraint, Objective
from repro.optimization.result import SolverResult

#: Samples of a line's first scan; most rounds of a search (and sweeps).
SCAN_POINTS, MAX_ROUNDS = 33, 8
#: A minimum's bracket is refined until this narrow relative to its position
#: (or to a thousandth of its line, near zero); a root's until ROOT_TOLERANCE.
MINIMUM_TOLERANCE, ROOT_TOLERANCE = 1e-5, 1e-12
#: Slack the reported point's margins may have and still count as feasible.
FEASIBILITY_TOLERANCE = 1e-7
#: A round puts 8 samples spread over each bracket, 9 packed around its estimate.
_SPREAD, _PACKED = np.linspace(0.0, 1.0, 10)[1:-1], np.linspace(-1.0, 1.0, 9)


def _unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of a float array, by its own sort-based path: sorted, and
    each value kept where it differs from its predecessor.  (``np.unique``
    itself imports ``numpy.ma``, which every pool worker would load anew.)"""
    values = np.sort(values)
    keep = np.empty(values.shape, dtype=bool)
    keep[:1] = True
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


class _Line:
    """The samples of ``point`` with coordinate ``axis`` set to ``t``, sorted by
    ``t``; ``rows`` holds their values, violations and margins."""

    def __init__(self, point: np.ndarray, axis: int, scan: np.ndarray, constraints: int):
        self.point, self.axis, self.scan = point, axis, _unique(scan)
        self.span = float(self.scan[-1] - self.scan[0])
        self.t, self.rows = np.empty(0), np.empty((constraints + 2, 0))

    def points(self, t: np.ndarray) -> np.ndarray:
        points = np.repeat(self.point[None, :], t.size, axis=0)
        points[:, self.axis] = t
        return points

    def absorb(self, t: np.ndarray, rows: np.ndarray) -> None:
        t = np.concatenate([self.t, t])
        order = np.argsort(t, kind="stable")
        self.t, self.rows = t[order], np.concatenate([self.rows, rows], axis=1)[:, order]


def _root_window(t: List[float], g: List[float], k: int) -> Tuple[float, float]:
    """Estimate and half-width of a window around the root between samples
    ``k`` and ``k + 1``: inverse quadratic interpolation through the nearer
    outer sample, four times its gap to the secant wide; else the secant and
    an eighth of the bracket (NaN, so no window, where a margin is infinite)."""
    lo, hi, y1, y2 = t[k], t[k + 1], g[k], g[k + 1]
    secant = lo - y1 * (hi - lo) / (y2 - y1)
    outer = [i for i in (k - 1, k + 2) if 0 <= i < len(t) and math.isfinite(g[i])]
    if outer:
        x0, y0 = min(((t[i], g[i]) for i in outer), key=lambda s: abs(s[0] - 0.5 * (lo + hi)))
        if y0 != y1 and y0 != y2:
            estimate = (
                x0 * y1 * y2 / ((y0 - y1) * (y0 - y2))
                + lo * y0 * y2 / ((y1 - y0) * (y1 - y2))
                + hi * y0 * y1 / ((y2 - y0) * (y2 - y1))
            )
            if lo < estimate < hi:
                return estimate, 4.0 * abs(estimate - secant) + 8.0 * math.ulp(estimate)
    return secant, 0.125 * (hi - lo)


def _refinements(line: _Line, by_violation: bool, bound: float) -> np.ndarray:
    """A line's next samples: around its best (least violation, or value meeting
    every margin) unless it ends the line and the parabola turns beyond it; around
    each sign change of a margin the others allow, if the value improves toward it.
    Brackets that twice their samples' gain would not bring to ``bound`` are skipped."""
    size, t, values, violations, margins = line.t.size, line.t, *line.rows[:2], line.rows[2:]
    score = violations if by_violation else values
    usable = np.isfinite(values) & (by_violation or violations == 0.0)
    proposals = []
    best = int(np.where(usable, score, np.inf).argmin())
    centre = min(max(best, 1), size - 2)
    if size >= 3 and usable[centre - 1 : centre + 2].all():
        t0, t1, t2 = t[centre - 1 : centre + 2].tolist()
        y0, y1, y2 = score[centre - 1 : centre + 2].tolist()
        numerator = (t1 - t0) ** 2 * (y1 - y2) - (t1 - t2) ** 2 * (y1 - y0)
        denominator = (t1 - t0) * (y1 - y2) - (t1 - t2) * (y1 - y0)
        vertex = t1 - 0.5 * numerator / denominator if denominator else t1
        lo, hi = (t0, t2) if best == centre else ((t0, t1) if best < centre else (t1, t2))
        least = min(y0, y1, y2)
        if (
            (best == centre or lo < vertex < hi)
            and least - 2.0 * (max(y0, y1, y2) - least) <= bound
            and hi - lo > MINIMUM_TOLERANCE * max(abs(t1), 1e-3 * line.span)
        ):
            proposals.append((lo, hi, vertex if lo < vertex < hi else t1, (hi - lo) / 256))
    holds = margins >= 0.0
    rows, ks = np.nonzero(holds[:, 1:] != holds[:, :-1])
    if rows.size and not by_violation:
        values, ts, everywhere = values.tolist(), t.tolist(), holds.all(axis=0).tolist()
    for row, k in zip(rows.tolist(), ks.tolist()) if not by_violation else ():
        inside, outside = (k, k + 1) if holds[row, k] else (k + 1, k)
        gain, away = values[inside] - values[outside], 2 * inside - outside
        scale = max(abs(ts[k]), abs(ts[k + 1]), 1e-3 * line.span)
        if (
            everywhere[inside]
            and (gain > 0.0 or (0 <= away < size and values[away] > values[inside]))
            and values[inside] - 2.0 * abs(gain) <= bound
            and ts[k + 1] - ts[k] > ROOT_TOLERANCE * scale
        ):
            proposals.append((ts[k], ts[k + 1], *_root_window(ts, margins[row].tolist(), k)))
    samples = [np.empty(0)]
    for lo, hi, estimate, half_width in proposals:
        packed = estimate + half_width * _PACKED
        samples += [lo + (hi - lo) * _SPREAD, packed[(packed > lo) & (packed < hi)]]
    fresh = _unique(np.concatenate(samples))
    return fresh[t[np.minimum(np.searchsorted(t, fresh), size - 1)] != fresh]


def _best(lines: Sequence[_Line]) -> Tuple[Optional[Tuple[bool, float]], int]:
    """Rank ``(infeasible, value or violation)`` — smaller is better, ``None``
    when no value is finite — and index of the best sample of ``lines``."""
    values, violations = np.concatenate([line.rows[:2] for line in lines], axis=1)
    finite = np.isfinite(values)
    feasible = finite & (violations == 0.0)
    infeasible = not feasible.any()
    scores = np.where(*((finite, violations) if infeasible else (feasible, values)), np.inf)
    index = int(scores.argmin())
    return ((infeasible, float(scores[index])) if finite.any() else None), index


def _search(lines, evaluate, by_violation: Optional[bool], searched=()) -> bool:
    """Scan, then refine, ``lines``, one evaluation per round, minimizing the violation when
    ``by_violation`` (``None``: if no scanned sample is within the tolerance); returns it."""
    pending = [(line, line.scan) for line in lines]
    for _ in range(MAX_ROUNDS):
        if not pending:
            break
        rows = evaluate(np.concatenate([line.points(t) for line, t in pending]))
        if by_violation is None:
            within = np.isfinite(rows[0]) & (rows[1] <= FEASIBILITY_TOLERANCE)
            by_violation = not bool(within.any())
        start = 0
        for line, t in pending:
            line.absorb(t, rows[:, start : start + t.size])
            start += t.size
        rank, _ = _best([*searched, *lines]) if len(searched) + len(lines) > 1 else (None, 0)
        if rank is None or rank[0] > by_violation:
            bound = np.inf
        else:  # a feasible sample bounds the violation at 0
            bound = rank[1] if rank[0] == by_violation else 0.0
        # A line once converged stays so: its samples stay, the bound only falls.
        refined = [(line, _refinements(line, by_violation, bound)) for line, _ in pending]
        pending = [(line, fresh) for line, fresh in refined if fresh.size]
    return bool(by_violation)


def polish(
    objective: Objective,
    space: ParameterSpace,
    constraints: Sequence[Constraint] = (),
    starts: Optional[Sequence[np.ndarray]] = None,
    brackets: Optional[Sequence[Tuple[np.ndarray, np.ndarray]]] = None,
    maximize: bool = False,
) -> SolverResult:
    """Refine ``starts`` (default: the box midpoint) to the best point near them.

    ``brackets`` holds each start's ``(lower, upper)`` neighbourhood, its grid
    neighbours in the hybrid (default: the box); a one-dimensional line spans
    it, longer lines sample its ends.  Returns the best sample meeting every
    margin, else the least-violating one; raises :class:`SolverError` when no
    sample has a finite objective value.
    """
    starts = [space.clip(start) for start in starts] if starts else [space.midpoint()]
    brackets = brackets or [(space.lower_bounds, space.upper_bounds)] * len(starts)
    functions, sign = [objective, *constraints], -1.0 if maximize else 1.0

    def evaluate(points: np.ndarray) -> np.ndarray:  # rows: values, violations, margins
        rows = np.array([np.reshape(f(points), len(points)) for f in functions], dtype=float)
        rows[~np.isfinite(rows)] = -np.inf
        values = np.where(rows[0] > -np.inf, sign * rows[0], np.inf)
        return np.vstack([values, np.maximum(0.0, -rows[1:].min(axis=0, initial=0.0)), rows[1:]])

    lines: List[_Line] = []
    if space.dimension == 1:
        for start, (lower, upper) in zip(starts, brackets):
            scan = np.append(np.linspace(lower[0], upper[0], SCAN_POINTS), start)
            lines.append(_Line(start, 0, scan, len(constraints)))
        _search(lines, evaluate, None)
    else:
        lines = _sweep(space, evaluate, starts[0], brackets[0], constraints)
    rank, index = _best(lines)
    point = np.concatenate([line.points(line.t) for line in lines])[index]
    value, violation = evaluate(point[None, :])[:2, 0].tolist()
    if rank is None or not math.isfinite(value):
        raise SolverError("polish found no point with a finite objective value")
    samples = sum(line.t.size for line in lines)
    return SolverResult(
        x=point,
        value=sign * value,
        feasible=violation <= FEASIBILITY_TOLERANCE,
        method="polish",
        evaluations=samples + 1,
        message=f"{samples} samples on {len(lines)} lines",
        constraint_violation=violation,
    )


def _sweep(space, evaluate, start, bracket, constraints) -> List[_Line]:
    """The lines of a polish in two or more dimensions (see the module docstring)."""
    lines: dict = {}
    scans = space.axes(SCAN_POINTS)

    def add(point: Sequence[float], axis: int, extra: Sequence[float]) -> None:
        key = (axis, *point[:axis], *point[axis + 1 :])
        if key not in lines:
            scan = np.append(scans[axis], extra)
            lines[key] = _Line(np.array(point, dtype=float), axis, scan, len(constraints))

    corner = [p.lower if x - p.lower <= p.upper - x else p.upper for x, p in zip(start, space)]
    for axis in range(space.dimension):
        add(start.tolist(), axis, (bracket[0][axis], start[axis], bracket[1][axis]))
        add(corner, axis, ())
    searched = list(lines.values())
    by_violation = _search(searched, evaluate, None)
    rank, index = _best(searched)
    for _ in range(MAX_ROUNDS):
        point = np.concatenate([line.points(line.t) for line in searched])[index].tolist()
        for axis in range(space.dimension):
            add(point, axis, (point[axis],))
        fresh = list(lines.values())[len(searched) :]
        if rank is None or not fresh:
            break
        _search(fresh, evaluate, by_violation, searched)
        searched += fresh
        new_rank, index = _best(searched)
        if not new_rank < rank:
            break
        rank = new_rank
    return searched
