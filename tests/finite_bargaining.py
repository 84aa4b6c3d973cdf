"""Finite two-player bargaining games: the Nash solution and its four axioms.

The paper justifies the Nash Bargaining Solution by the four classical
axioms — Pareto optimality, symmetry, scale invariance and independence of
irrelevant alternatives — which single it out among bargaining rules.  The
production solver never samples the game: it solves the continuous
problem (P4) of :mod:`repro.core.problems`.  This module is the finite
counterpart the tests hold it to:

* :class:`BargainingGame` — a feasible set of utility payoffs, represented
  by a finite sample, plus a disagreement point;
* :func:`nash_bargaining_solution` — the argmax of the product of gains
  over the disagreement point on that sample, which
  ``tests/integration/test_pipeline.py`` compares with the (P4) solution
  on a sampled X-MAC game;
* ``check_*`` — mechanical checks of the four axioms for any rule, which
  hold for the Nash rule and fail for rules that break them
  (``tests/gametheory/test_axioms.py``).

Costs vs utilities
------------------
The paper's metrics are *costs* (smaller is better) while bargaining theory
is written for *utilities* (larger is better).  :meth:`BargainingGame.from_costs`
performs the standard sign flip, so callers can move back and forth without
sprinkling minus signs around.

pytest puts ``tests/`` on ``sys.path`` (``tests/conftest.py``), so this
module is imported as ``finite_bargaining``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Sequence, Tuple

import numpy as np

from repro.exceptions import BargainingError


@dataclass(frozen=True)
class BargainingPoint:
    """One selected outcome of a bargaining game.

    Attributes:
        index: Index of the selected payoff in the game's feasible sample.
        payoff: The selected utility payoff ``(u1, u2)``.
        gains: Gains over the disagreement point ``(u1 - v1, u2 - v2)``.
        objective: Value of the selection criterion (e.g. the Nash product).
    """

    index: int
    payoff: Tuple[float, float]
    gains: Tuple[float, float]
    objective: float


class BargainingGame:
    """A two-player bargaining game over a finite feasible set.

    Args:
        payoffs: Array-like of shape ``(n, 2)``; row ``i`` is the utility
            payoff of alternative ``i``.
        disagreement: The disagreement (threat) point ``(v1, v2)``.
        player_names: Names used in reports, defaults to ``("player1",
            "player2")``.

    Raises:
        BargainingError: if the feasible set is empty or contains non-finite
            payoffs, or the disagreement point is malformed.  (Whether any
            alternative dominates the disagreement point is *not* checked
            here — the solution rules check it, so a game with no
            individually rational outcome can still be constructed and
            inspected.)
    """

    def __init__(
        self,
        payoffs: Iterable[Sequence[float]],
        disagreement: Sequence[float],
        player_names: Tuple[str, str] = ("player1", "player2"),
    ) -> None:
        payoff_array = np.asarray(list(payoffs), dtype=float)
        if payoff_array.ndim != 2 or payoff_array.shape[1] != 2:
            raise BargainingError(
                f"payoffs must have shape (n, 2), got {payoff_array.shape}"
            )
        if payoff_array.shape[0] == 0:
            raise BargainingError("the feasible set is empty")
        if not np.all(np.isfinite(payoff_array)):
            raise BargainingError("payoffs contain non-finite values")
        disagreement_array = np.asarray(disagreement, dtype=float).ravel()
        if disagreement_array.shape != (2,) or not np.all(np.isfinite(disagreement_array)):
            raise BargainingError(
                f"disagreement point must be a finite pair, got {disagreement!r}"
            )
        if len(player_names) != 2:
            raise BargainingError("exactly two player names are required")
        self._payoffs = payoff_array
        self._disagreement = disagreement_array
        self._player_names = (str(player_names[0]), str(player_names[1]))

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_costs(
        cls,
        costs: Iterable[Sequence[float]],
        disagreement_costs: Sequence[float],
        player_names: Tuple[str, str] = ("player1", "player2"),
    ) -> "BargainingGame":
        """Build a game from *cost* samples (smaller is better).

        Utilities are the negated costs, so "gain over the disagreement
        point" becomes "cost reduction below the disagreement cost", which is
        exactly the ``(Eworst - E)(Lworst - L)`` product in the paper's (P3).
        """
        cost_array = np.asarray(list(costs), dtype=float)
        disagreement_array = np.asarray(disagreement_costs, dtype=float)
        return cls(-cost_array, -disagreement_array, player_names=player_names)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    @property
    def payoffs(self) -> np.ndarray:
        """The feasible utility payoffs, shape ``(n, 2)`` (read-only copy)."""
        return self._payoffs.copy()

    @property
    def disagreement(self) -> np.ndarray:
        """The disagreement point ``(v1, v2)`` (read-only copy)."""
        return self._disagreement.copy()

    @property
    def player_names(self) -> Tuple[str, str]:
        """The two player names."""
        return self._player_names

    @property
    def size(self) -> int:
        """Number of alternatives in the feasible sample."""
        return int(self._payoffs.shape[0])

    def gains(self) -> np.ndarray:
        """Per-alternative gains over the disagreement point, shape ``(n, 2)``."""
        return self._payoffs - self._disagreement

    def individually_rational_indices(self, tolerance: float = 1e-12) -> np.ndarray:
        """Indices of alternatives that weakly dominate the disagreement point."""
        gains = self.gains()
        mask = np.all(gains >= -tolerance, axis=1)
        return np.flatnonzero(mask)

    def has_rational_alternative(self, tolerance: float = 1e-12) -> bool:
        """Whether at least one alternative weakly dominates the disagreement point."""
        return self.individually_rational_indices(tolerance).size > 0

    def is_pareto_efficient(self, index: int, tolerance: float = 1e-12) -> bool:
        """Whether alternative ``index`` is Pareto-efficient within the sample."""
        if not (0 <= index < self.size):
            raise BargainingError(f"index {index} out of range [0, {self.size})")
        payoffs = self._payoffs
        target = payoffs[index]
        dominates = np.all(payoffs >= target - tolerance, axis=1) & np.any(
            payoffs > target + tolerance, axis=1
        )
        return not bool(np.any(dominates))

    # ------------------------------------------------------------------ #
    # Transformations (used by the axiom checks)
    # ------------------------------------------------------------------ #

    def swapped(self) -> "BargainingGame":
        """Return the game with the two players' roles exchanged."""
        return BargainingGame(
            self._payoffs[:, ::-1],
            self._disagreement[::-1],
            player_names=(self._player_names[1], self._player_names[0]),
        )

    def rescaled(self, scale: Sequence[float], shift: Sequence[float]) -> "BargainingGame":
        """Apply a positive affine transformation ``u -> scale * u + shift``."""
        scale_array = np.asarray(scale, dtype=float).ravel()
        shift_array = np.asarray(shift, dtype=float).ravel()
        if scale_array.shape != (2,) or shift_array.shape != (2,):
            raise BargainingError("scale and shift must be pairs")
        if np.any(scale_array <= 0):
            raise BargainingError("scale factors must be strictly positive")
        return BargainingGame(
            self._payoffs * scale_array + shift_array,
            self._disagreement * scale_array + shift_array,
            player_names=self._player_names,
        )

    def restricted_to(self, indices: Sequence[int]) -> "BargainingGame":
        """Return the game restricted to a subset of alternatives."""
        index_array = np.asarray(indices, dtype=int).ravel()
        if index_array.size == 0:
            raise BargainingError("cannot restrict a game to an empty subset")
        if np.any(index_array < 0) or np.any(index_array >= self.size):
            raise BargainingError("restriction indices out of range")
        return BargainingGame(
            self._payoffs[index_array],
            self._disagreement,
            player_names=self._player_names,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BargainingGame(n={self.size}, disagreement={tuple(self._disagreement)}, "
            f"players={self._player_names})"
        )


def nash_product(gains: np.ndarray) -> np.ndarray:
    """Nash product of an ``(n, 2)`` array of gains (clipped at zero).

    Gains below zero are clipped to zero so that individually irrational
    alternatives can never win the argmax: their product is zero, and ties
    at zero are broken in favour of rational alternatives by the caller.

    Args:
        gains: ``(n, 2)`` array of per-alternative gains over the
            disagreement point.

    Returns:
        ``(n,)`` array with the product of the clipped gains per alternative.
    """
    clipped = np.clip(gains, 0.0, None)
    return clipped[:, 0] * clipped[:, 1]


def nash_bargaining_solution(game: BargainingGame, tolerance: float = 1e-12) -> BargainingPoint:
    """Select the Nash bargaining outcome of a finite game.

    Args:
        game: The finite bargaining game (payoff sample + disagreement
            point) to solve.
        tolerance: Slack used for individual-rationality and for deciding
            ties on the Nash product.

    Returns:
        The selected :class:`BargainingPoint`; its
        ``objective`` is the winning Nash product.

    Raises:
        BargainingError: if no alternative weakly dominates the disagreement
            point (the game has no individually rational outcome).
    """
    if not game.has_rational_alternative(tolerance):
        raise BargainingError(
            "Nash bargaining is undefined: no alternative dominates the disagreement point"
        )
    gains = game.gains()
    products = nash_product(gains)
    rational = game.individually_rational_indices(tolerance)

    # Among individually rational alternatives pick the largest product; break
    # ties by the largest minimum gain, then by the largest total gain (both
    # deterministic, symmetric rules).  The total-gain tie-break matters when
    # every product ties at zero (one player cannot gain at all): without it
    # the argmax could land on a Pareto-dominated point such as (0, 0) when
    # (0, 1) is available.
    best_index = -1
    best_product = -np.inf
    best_min_gain = -np.inf
    best_total_gain = -np.inf
    for index in rational:
        product = float(products[index])
        min_gain = float(np.min(gains[index]))
        total_gain = float(np.sum(gains[index]))
        if product > best_product + tolerance:
            better = True
        elif abs(product - best_product) <= tolerance and min_gain > best_min_gain:
            better = True
        elif (
            abs(product - best_product) <= tolerance
            and min_gain == best_min_gain
            and total_gain > best_total_gain
        ):
            better = True
        else:
            better = False
        if better:
            best_index = int(index)
            best_product = product
            best_min_gain = min_gain
            best_total_gain = total_gain
    if best_index < 0:
        raise BargainingError("failed to select a Nash bargaining outcome")
    payoff = game.payoffs[best_index]
    gain = gains[best_index]
    return BargainingPoint(
        index=best_index,
        payoff=(float(payoff[0]), float(payoff[1])),
        gains=(float(gain[0]), float(gain[1])),
        objective=best_product,
    )


#: A bargaining rule maps a game to a selected point.
BargainingRule = Callable[[BargainingGame], BargainingPoint]


@dataclass(frozen=True)
class AxiomCheck:
    """Result of one axiom check.

    Attributes:
        name: Axiom identifier.
        satisfied: Whether the axiom held on this game.
        detail: Human-readable explanation of what was compared.
    """

    name: str
    satisfied: bool
    detail: str


def check_pareto_optimality(
    game: BargainingGame,
    rule: BargainingRule = nash_bargaining_solution,
    tolerance: float = 1e-9,
) -> AxiomCheck:
    """The selected point must not be dominated by any feasible alternative.

    Args:
        game: The finite bargaining game to check on.
        rule: The bargaining rule under test (default: the Nash solution).
        tolerance: Domination slack.

    Returns:
        An :class:`AxiomCheck` named ``"pareto_optimality"``.
    """
    point = rule(game)
    efficient = game.is_pareto_efficient(point.index, tolerance)
    return AxiomCheck(
        name="pareto_optimality",
        satisfied=efficient,
        detail=f"selected index {point.index} payoff {point.payoff}",
    )


def check_symmetry(
    game: BargainingGame,
    rule: BargainingRule = nash_bargaining_solution,
    tolerance: float = 1e-9,
) -> AxiomCheck:
    """Swapping the players must swap the selected payoffs.

    Args:
        game: The finite bargaining game to check on.
        rule: The bargaining rule under test (default: the Nash solution).
        tolerance: Relative comparison slack.

    Returns:
        An :class:`AxiomCheck` named ``"symmetry"``.
    """
    original = rule(game)
    swapped = rule(game.swapped())
    expected = (original.payoff[1], original.payoff[0])
    satisfied = (
        abs(swapped.payoff[0] - expected[0]) <= tolerance * max(1.0, abs(expected[0]))
        and abs(swapped.payoff[1] - expected[1]) <= tolerance * max(1.0, abs(expected[1]))
    )
    return AxiomCheck(
        name="symmetry",
        satisfied=satisfied,
        detail=f"original {original.payoff}, swapped {swapped.payoff}",
    )


def check_scale_invariance(
    game: BargainingGame,
    rule: BargainingRule = nash_bargaining_solution,
    scale: Sequence[float] = (2.5, 0.4),
    shift: Sequence[float] = (1.0, -3.0),
    tolerance: float = 1e-9,
) -> AxiomCheck:
    """A positive affine rescaling of utilities must map the solution accordingly.

    Args:
        game: The finite bargaining game to check on.
        rule: The bargaining rule under test (default: the Nash solution).
        scale: Per-player positive scale factors of the affine map.
        shift: Per-player shifts of the affine map.
        tolerance: Relative comparison slack.

    Returns:
        An :class:`AxiomCheck` named ``"scale_invariance"``.
    """
    original = rule(game)
    transformed = rule(game.rescaled(scale, shift))
    scale_array = np.asarray(scale, dtype=float)
    shift_array = np.asarray(shift, dtype=float)
    expected = np.asarray(original.payoff) * scale_array + shift_array
    actual = np.asarray(transformed.payoff)
    satisfied = bool(
        np.all(np.abs(actual - expected) <= tolerance * np.maximum(1.0, np.abs(expected)))
    )
    return AxiomCheck(
        name="scale_invariance",
        satisfied=satisfied,
        detail=f"expected {expected.tolist()}, actual {actual.tolist()}",
    )


def check_independence_of_irrelevant_alternatives(
    game: BargainingGame,
    rule: BargainingRule = nash_bargaining_solution,
    keep_fraction: float = 0.5,
    seed: int = 0,
    tolerance: float = 1e-9,
) -> AxiomCheck:
    """Removing unchosen alternatives must not change the selected payoff.

    A random subset of the alternatives (always containing the originally
    selected one) is kept; the rule must select the same payoff on the
    restricted game.

    Args:
        game: The finite bargaining game to check on.
        rule: The bargaining rule under test (default: the Nash solution).
        keep_fraction: Fraction of alternatives kept in the restricted game.
        seed: Seed of the random subset.
        tolerance: Relative comparison slack.

    Returns:
        An :class:`AxiomCheck` named
        ``"independence_of_irrelevant_alternatives"``.

    Raises:
        BargainingError: if ``keep_fraction`` is outside ``(0, 1]``.
    """
    if not (0.0 < keep_fraction <= 1.0):
        raise BargainingError(f"keep_fraction must be in (0, 1], got {keep_fraction!r}")
    original = rule(game)
    rng = np.random.default_rng(seed)
    keep_mask = rng.uniform(0.0, 1.0, size=game.size) < keep_fraction
    keep_mask[original.index] = True
    kept_indices = np.flatnonzero(keep_mask)
    restricted = game.restricted_to(kept_indices)
    reduced = rule(restricted)
    satisfied = (
        abs(reduced.payoff[0] - original.payoff[0])
        <= tolerance * max(1.0, abs(original.payoff[0]))
        and abs(reduced.payoff[1] - original.payoff[1])
        <= tolerance * max(1.0, abs(original.payoff[1]))
    )
    return AxiomCheck(
        name="independence_of_irrelevant_alternatives",
        satisfied=satisfied,
        detail=(
            f"kept {kept_indices.size}/{game.size} alternatives; "
            f"original {original.payoff}, restricted {reduced.payoff}"
        ),
    )


def check_all_axioms(
    game: BargainingGame,
    rule: BargainingRule = nash_bargaining_solution,
    tolerance: float = 1e-9,
) -> Dict[str, AxiomCheck]:
    """Run all four axiom checks on one game.

    Args:
        game: The finite bargaining game to check on.
        rule: The bargaining rule under test (default: the Nash solution).
        tolerance: Comparison slack shared by all four checks.

    Returns:
        The four :class:`AxiomCheck` results keyed by axiom name.
    """
    checks = [
        check_pareto_optimality(game, rule, tolerance),
        check_symmetry(game, rule, tolerance),
        check_scale_invariance(game, rule, tolerance=tolerance),
        check_independence_of_irrelevant_alternatives(game, rule, tolerance=tolerance),
    ]
    return {check.name: check for check in checks}
