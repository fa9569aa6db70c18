"""Summation oracles for the two linear total-consumption bounds: each
computes the same quantity as its closed form the long way, by summing
the per-agent worst cases."""
from fractions import Fraction
from numbers import Rational

from gridswarm.bounds import _check_linear, _check_mid, linear_mid_ei_max, mid_n_j


def linear_edge_total_oracle(n: int, dt: int, alpha: float) -> float:
    """Oracle for the total-consumption bound: the defining summation
    over settled entrants, superfluous entrants, and the final closer.
    Requires the participant count to be integral (dt divides 2n)."""
    _check_linear(n, dt, alpha)
    n_agents = Fraction(n * (dt + 2), dt) - 1
    if n_agents.denominator != 1:
        raise ValueError(f"participant count {n_agents} is not integral; choose dt dividing 2n")
    s = n * (dt + 2)
    total = 0.0
    for i in range(1, n + 1):
        total += i * (1 - alpha) + alpha * (s - dt) - alpha * (i - 1) * dt
    for i in range(n + 1, int(n_agents) + 1):
        total += s - i * dt
    return total + 1


def linear_mid_total_oracle(
    n: int, j: int, dt: int, alpha, variant: str = "greedy"
):
    """Oracle for the mid-entry total: sum the per-agent worst cases
    over all participants.  Requires integral participant counts
    (dt divides both 2n and 2j)."""
    _check_mid(n, j, dt, alpha, variant)
    n_agents = Fraction(n * (dt + 2), dt) - 1
    n_j = mid_n_j(j, dt)
    if n_agents.denominator != 1 or n_j.denominator != 1:
        raise ValueError(
            "participant counts are not integral; choose dt dividing 2n and 2j"
        )
    exact = isinstance(alpha, Rational)
    total = Fraction(0) if exact else 0.0
    for i in range(1, int(n_agents) + 1):
        e_i = linear_mid_ei_max(n, j, dt, alpha, i, variant)
        total += Fraction(e_i) if exact else e_i
    return total
