"""Unit tests for the Nash-axiom checks."""

from __future__ import annotations

import numpy as np
import pytest

from finite_bargaining import (
    BargainingGame,
    BargainingPoint,
    check_all_axioms,
    check_independence_of_irrelevant_alternatives,
    check_pareto_optimality,
    check_scale_invariance,
    check_symmetry,
)


def symmetric_game() -> BargainingGame:
    grid = np.linspace(0.0, 10.0, 41)
    payoffs = [(u1, u2) for u1 in grid for u2 in grid if u1 + u2 <= 10.0 + 1e-9]
    return BargainingGame(payoffs, disagreement=(0.0, 0.0))


class TestNashAxioms:
    def test_pareto_optimality_holds(self):
        assert check_pareto_optimality(symmetric_game()).satisfied

    def test_symmetry_holds(self):
        assert check_symmetry(symmetric_game()).satisfied

    def test_scale_invariance_holds(self):
        assert check_scale_invariance(symmetric_game()).satisfied

    def test_iia_holds(self):
        assert check_independence_of_irrelevant_alternatives(symmetric_game()).satisfied

    def test_check_all_axioms_returns_four_checks(self):
        checks = check_all_axioms(symmetric_game())
        assert set(checks) == {
            "pareto_optimality",
            "symmetry",
            "scale_invariance",
            "independence_of_irrelevant_alternatives",
        }
        assert all(check.satisfied for check in checks.values())


class TestAxiomViolationsAreDetected:
    def test_egalitarian_violates_scale_invariance(self):
        # The egalitarian rule equalises absolute gains, so rescaling one
        # player's utility changes the selected physical alternative.
        def egalitarian(game: BargainingGame) -> BargainingPoint:
            gains = game.gains()
            index = int(np.lexsort((-gains.sum(axis=1), -gains.min(axis=1)))[0])
            payoff = game.payoffs[index]
            return BargainingPoint(
                index=index,
                payoff=(float(payoff[0]), float(payoff[1])),
                gains=(float(gains[index][0]), float(gains[index][1])),
                objective=float(gains[index].min()),
            )

        game = symmetric_game()
        check = check_scale_invariance(game, rule=egalitarian, scale=(10.0, 1.0), shift=(0.0, 0.0))
        assert not check.satisfied

    def test_dictatorial_rule_violates_symmetry(self):
        def dictator(game: BargainingGame) -> BargainingPoint:
            payoffs = game.payoffs
            index = int(np.lexsort((payoffs[:, 1], -payoffs[:, 0]))[0])
            gains = game.gains()[index]
            return BargainingPoint(
                index=index,
                payoff=(float(payoffs[index][0]), float(payoffs[index][1])),
                gains=(float(gains[0]), float(gains[1])),
                objective=float(payoffs[index][0]),
            )

        assert not check_symmetry(symmetric_game(), rule=dictator).satisfied

    def test_dominated_selection_violates_pareto(self):
        def pick_origin(game: BargainingGame) -> BargainingPoint:
            payoffs = game.payoffs
            index = int(np.argmin(payoffs.sum(axis=1)))
            gains = game.gains()[index]
            return BargainingPoint(
                index=index,
                payoff=(float(payoffs[index][0]), float(payoffs[index][1])),
                gains=(float(gains[0]), float(gains[1])),
                objective=0.0,
            )

        assert not check_pareto_optimality(symmetric_game(), rule=pick_origin).satisfied

    def test_iia_keep_fraction_validated(self):
        with pytest.raises(Exception):
            check_independence_of_irrelevant_alternatives(symmetric_game(), keep_fraction=0.0)
