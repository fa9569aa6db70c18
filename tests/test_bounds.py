"""Closed-form performance bounds, cross-checked against independent
enumeration/summation oracles and a handful of frozen anchor values."""
import random
from fractions import Fraction

import pytest

from gridswarm import bounds as B
from oracles import linear_edge_total_oracle, linear_mid_total_oracle

TOL = 1e-9


def ball_oracle(r: int) -> int:
    """Count lattice cells at taxicab distance <= r by enumeration."""
    return sum(
        1
        for x in range(-r, r + 1)
        for y in range(-r, r + 1)
        if abs(x) + abs(y) <= r
    )


class TestBall:
    def test_closed_form_matches_enumeration(self):
        for r in range(31):
            assert B.ball_cell_count(r) == ball_oracle(r)

    def test_anchors(self):
        assert B.ball_cell_count(0) == 1
        assert B.ball_cell_count(1) == 5
        assert B.ball_cell_count(13) == 365


class TestHorizon:
    def test_anchors(self):
        assert B.d_max(15, 1) == 13
        assert B.d_max(8, 1) == 6
        assert B.d_max(23, 1) == 21


class TestApproach1:
    def test_frozen_anchor(self):
        b = B.approach1_bounds(15, 1, 2)
        assert (b.d_max, b.n_frontier, b.t_c_ub) == (13, 265, 558)
        assert b.n_ub == pytest.approx(279.0)
        assert b.settled_survival is None

    def test_unit_period(self):
        b = B.approach1_bounds(15, 1, 1)
        assert b.t_c_ub == 292
        assert b.n_ub == pytest.approx(292.0)

    def test_frontier_is_one_ring_inside_horizon(self):
        for e0 in (8, 15, 23):
            b = B.approach1_bounds(e0, 1, 2)
            assert b.n_frontier == B.ball_cell_count(b.d_max - 2)

    def test_settled_survival_thresholds_on_drain_rate(self):
        survives = B.approach1_bounds(15, 1, 2, ecrit_settled=1, alpha=0.001)
        drains = B.approach1_bounds(15, 1, 2, ecrit_settled=1, alpha=0.02)
        assert survives.settled_survival is True
        assert drains.settled_survival is False


class TestApproach2:
    def test_covered_area_is_inner_ball(self):
        for e0 in (8, 15, 23):
            b = B.approach2_bounds(e0, 1)
            assert b.a_covered_ub == B.ball_cell_count(b.d_max - 1)

    def test_frozen_anchor(self):
        assert B.approach2_bounds(15, 1).a_covered_ub == 313


class TestLinearEdge:
    def test_frozen_anchor(self):
        b = B.linear_edge_bounds(10, 2)
        assert b.t_c == 38
        assert b.n_agents == Fraction(19)
        assert b.e_total_ub == pytest.approx(146.0)
        assert b.e_mobile_max == 18
        assert b.dt_equalize is None

    def test_equalizing_period(self):
        assert B.linear_edge_bounds(10, 2, Fraction(1, 40)).dt_equalize == 39

    def test_mobile_time_profile(self):
        # Ramp up to n steps, then each later entrant travels less.
        assert [B.linear_edge_tm(10, 2, i) for i in (1, 7, 10, 11, 19)] == [
            2, 7, 10, 18, 2,
        ]

    def test_peak_consumption_over_all_entrants(self):
        b = B.linear_edge_bounds(10, 2)
        peak = max(B.linear_edge_ei_max(10, 2, 0, i) for i in range(1, 20))
        assert peak == b.e_mobile_max

    def test_total_matches_summation_oracle(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randrange(4, 120)
            dt = rng.choice([d for d in range(2, 2 * n + 1) if (2 * n) % d == 0])
            alpha = rng.choice([0, Fraction(1, 40), Fraction(1, 10)])
            closed = B.linear_edge_bounds(n, dt, alpha).e_total_ub
            oracle = linear_edge_total_oracle(n, dt, alpha)
            assert abs(closed - oracle) <= TOL, (n, dt, alpha)

    def test_frozen_total(self):
        assert linear_edge_total_oracle(100, 2, 0) == pytest.approx(14951.0)

    def test_optimal_period(self):
        exact, approx, e_bound = B.linear_edge_dt_opt(100, Fraction(1, 40))
        assert exact == pytest.approx(12.712834523274564)
        assert approx == pytest.approx(12.649110640673516)
        assert e_bound == pytest.approx(8537.27766016838)

    def test_optimal_period_matches_grid_search(self):
        for n, alpha in [(50, Fraction(1, 40)), (100, Fraction(1, 10))]:
            exact, _, _ = B.linear_edge_dt_opt(n, alpha)
            best = min(
                range(2, 2 * n + 1),
                key=lambda d: B.linear_edge_bounds(n, d, alpha).e_total_ub,
            )
            assert abs(best - exact) <= 1.0


class TestLinearMid:
    def test_branch_agent_count(self):
        assert B.mid_n_j(20, 2) == Fraction(39)
        assert B.mid_n_j(20, 4) == Fraction(29)

    def test_frozen_anchor(self):
        b = B.linear_mid_bounds(100, 20, 2, 0, "greedy")
        assert b.t_c_ub == 398
        assert b.n_j == Fraction(39)
        assert b.e_total == pytest.approx(16433.0)
        assert b.opt_exists is False and b.dt_opt is None

    def test_frozen_peak_consumption(self):
        assert B.linear_mid_ei_max(100, 20, 2, 0, 22, "greedy") == pytest.approx(356)

    @pytest.mark.parametrize("variant", B.MID_VARIANTS)
    def test_total_matches_summation_oracle(self, variant):
        rng = random.Random(11)
        tried = 0
        while tried < 100:
            n = rng.randrange(8, 140)
            j = rng.randrange(2, n // 2 + 1)
            divs = [
                d for d in range(2, 2 * j + 1)
                if (2 * n) % d == 0 and (2 * j) % d == 0
            ]
            if not divs:
                continue
            dt = rng.choice(divs)
            alpha = rng.choice([0, Fraction(1, 40)])
            tried += 1
            closed = B.linear_mid_bounds(n, j, dt, alpha, variant).e_total
            oracle = linear_mid_total_oracle(n, j, dt, alpha, variant)
            assert abs(closed - oracle) <= TOL, (n, j, dt, alpha, variant)

    def test_variant_gap_is_linear_in_period(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randrange(8, 140)
            j = rng.randrange(2, n // 2 + 1)
            dt = rng.randrange(2, 2 * j + 1)
            alpha = Fraction(1, rng.randrange(10, 60))
            g = B.linear_mid_bounds(n, j, dt, alpha, "greedy").e_total
            d = B.linear_mid_bounds(n, j, dt, alpha, "depth_first").e_total
            assert abs(g - d - float((1 - alpha) * (dt - 2 * j))) <= TOL

    def test_optimal_period_when_branch_long_enough(self):
        g = B.linear_mid_bounds(100, 40, 2, Fraction(1, 40), "greedy")
        d = B.linear_mid_bounds(100, 40, 2, Fraction(1, 40), "depth_first")
        assert g.opt_exists and d.opt_exists
        assert g.dt_opt == pytest.approx(17.378168919707495)
        assert d.dt_opt == pytest.approx(17.50752438129634)

    def test_optimal_period_matches_grid_search(self):
        n, j, alpha = 100, 40, Fraction(1, 40)
        for variant in B.MID_VARIANTS:
            opt = B.linear_mid_bounds(n, j, 2, alpha, variant).dt_opt
            best = min(
                range(2, 2 * j + 1),
                key=lambda d: B.linear_mid_bounds(n, j, d, alpha, variant).e_total,
            )
            assert abs(best - opt) <= 1.0


class TestValidation:
    def test_mid_branch_range(self):
        with pytest.raises(ValueError, match="branch length"):
            B.linear_mid_bounds(39, 24, 2, 0, "greedy")

    def test_mid_variant_name(self):
        with pytest.raises(ValueError):
            B.linear_mid_bounds(100, 20, 2, 0, "bogus")

    def test_oracle_requires_divisor_period(self):
        with pytest.raises(ValueError):
            linear_edge_total_oracle(10, 3, 0)
