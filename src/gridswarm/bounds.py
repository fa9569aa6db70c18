"""Closed-form performance bounds.

Each published formula is implemented as printed (formula ids are the
numbers used by the ``bounds`` CLI report).  Group-boundary arithmetic
is kept in exact rationals; values are floored only when used as an
index.  Energy inputs must be finite.

Scenario families:

* ``approach1`` / ``approach2`` - termination bounds for unbounded
  open regions, driven by the maximum settling distance ``d_max``.
* ``linear_edge`` - a 1 x n corridor entered from its end under the
  adversarial scheduler.
* ``linear_mid`` - a 1 x n corridor entered ``j`` cells from the near
  end, in two variants: ``greedy`` (the shorter branch is covered
  first by chance) and ``depth_first`` (one branch is exhausted before
  the other is begun).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def d_max(e0: float, ecrit_mobile: float) -> int:
    """Maximum distance from the entry at which an agent can settle and
    still report exhaustion before shutting down.  [7]"""
    return int(e0 - ecrit_mobile - 1)


def ball_cell_count(radius: int) -> int:
    """Number of grid cells within hop distance ``radius`` of a cell in
    an unbounded open grid (closed form)."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    return radius * radius + (radius + 1) * (radius + 1)


def _check_finite(**values: float | None) -> None:
    """Reject a non-finite input; ``None`` stands for an absent one."""
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


# ---------------------------------------------------------------------------
# Open-region termination bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Approach1Bounds:
    d_max: int
    n_frontier: int  # agents settled before one must reach d_max  [8]
    t_c_ub: float  # [11]
    n_ub: float  # also bounds the count of active settled agents  [12]
    settled_survival: bool | None  # [14], None if alpha inputs absent


def approach1_bounds(
    e0: float,
    ecrit_mobile: float,
    dt: int,
    ecrit_settled: float | None = None,
    alpha: float | None = None,
) -> Approach1Bounds:
    _check_finite(e0=e0, ecrit_mobile=ecrit_mobile, ecrit_settled=ecrit_settled, alpha=alpha)
    d = d_max(e0, ecrit_mobile)
    if d < 1:
        raise ValueError(f"d_max = {d} < 1: no agent can ever settle and report back")
    if dt < 1:
        raise ValueError(f"dt must be >= 1, got {dt}")
    n_frontier = (d - 2) ** 2 + (d - 1) ** 2
    t_ub = (n_frontier + 1) * dt + 2 * d
    n_ub = (n_frontier + 1) + 2 * d / dt
    survival: bool | None = None
    if alpha is not None and ecrit_settled is not None:
        survival = alpha == 0 or ecrit_settled / alpha > t_ub
    return Approach1Bounds(d, n_frontier, t_ub, n_ub, survival)


@dataclass(frozen=True)
class Approach2Bounds:
    d_max: int
    a_covered_ub: int  # cells coverable before termination  [13]


def approach2_bounds(e0: float, ecrit_mobile: float) -> Approach2Bounds:
    _check_finite(e0=e0, ecrit_mobile=ecrit_mobile)
    d = d_max(e0, ecrit_mobile)
    if d < 1:
        raise ValueError(f"d_max = {d} < 1: no agent can ever settle and report back")
    return Approach2Bounds(d, d * d + (d - 1) * (d - 1))


# ---------------------------------------------------------------------------
# Corridor entered from its end, adversarial scheduler
# ---------------------------------------------------------------------------


def _check_linear(n: int, dt: int, alpha: float) -> None:
    if n < 2:
        raise ValueError(f"corridor length n must be >= 2, got {n}")
    if dt < 1:
        raise ValueError(f"dt must be >= 1, got {dt}")
    _check_finite(alpha=alpha)
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")


@dataclass(frozen=True)
class LinearEdgeBounds:
    t_c: int  # exact termination time  [24]
    n_agents: Fraction  # exact participant count  [26]
    e_total_ub: float  # [29] ([30] at alpha = 0)
    e_settled_max: float  # worst consumption among settled agents  [36a]
    e_mobile_max: float  # worst consumption among mobile agents  [36b]
    dt_equalize: float | None  # dt equalizing the two maxima  [37]


def linear_edge_bounds(n: int, dt: int, alpha: float = 0.0) -> LinearEdgeBounds:
    _check_linear(n, dt, alpha)
    t_c = n * (dt + 2) - dt
    n_agents = Fraction(n * (dt + 2), dt) - 1
    e_total = (
        alpha * n * (n - 1) / 2 * dt
        + 2 * n * n / dt
        + n * (n - 1) / 2
        + alpha * n * (3 * n - 1) / 2
        + 1
    )
    return LinearEdgeBounds(
        t_c=t_c,
        n_agents=n_agents,
        e_total_ub=e_total,
        e_settled_max=n * (1 + alpha),
        e_mobile_max=2 * n - dt,
        dt_equalize=(1 - alpha) / alpha if alpha > 0 else None,
    )


def linear_edge_tm(n: int, dt: int, i: int) -> int:
    """Movement steps of the i-th entrant (1-based).  [27]"""
    if i < 1:
        raise ValueError("agent index is 1-based")
    if i == 1:
        return 2
    if i <= n:
        return i
    return n * (dt + 2) - i * dt


def linear_edge_ei_max(n: int, dt: int, alpha: float, i: int):
    """Worst-case consumption of the i-th entrant (1-based).  [35]"""
    if i < 1:
        raise ValueError("agent index is 1-based")
    if i <= n:
        return i * (1 - alpha - alpha * dt) + alpha * n * (dt + 2)
    return n * (dt + 2) - i * dt


def linear_edge_dt_opt(n: int, alpha: float) -> tuple[float, float, float]:
    """Entry period minimizing the total-consumption bound: exact value
    [31], its large-n approximation [32], and the resulting bound [33].
    """
    if n < 2:
        raise ValueError(f"corridor length n must be >= 2, got {n}")
    if alpha <= 0:
        raise ValueError("dt_opt requires alpha > 0 (at alpha = 0 the bound is monotone in dt)")
    exact = math.sqrt(4 * n / (alpha * (n - 1)))
    approx = 2 / math.sqrt(alpha)
    e_bound = n * n * (0.5 + 2 * math.sqrt(alpha) + 1.5 * alpha)
    return exact, approx, e_bound


# ---------------------------------------------------------------------------
# Corridor entered j cells from the near end
# ---------------------------------------------------------------------------

MID_VARIANTS = ("greedy", "depth_first")


def _check_mid(n: int, j: int, dt: int, alpha: float, variant: str) -> None:
    _check_linear(n, dt, alpha)
    if variant not in MID_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {MID_VARIANTS}")
    if not 2 <= j <= n - j:
        raise ValueError(
            f"branch length j must satisfy 2 <= j <= n - j, got j={j}, n={n}"
        )


def mid_n_j(j: int, dt: int) -> Fraction:
    """Entrants that have appeared by the time the short branch closes.
    [45] / [58]"""
    return Fraction(j * (dt + 2) - dt, dt)


@dataclass(frozen=True)
class LinearMidBounds:
    t_c_ub: int  # [40]
    n_j: Fraction  # [45] / [58]
    e_total: float  # [50] / [61] ([51] / [62] at alpha = 0)
    dt_opt: float | None  # [52] / [63], None when no interior optimum exists
    opt_exists: bool  # [53] / [64]


def linear_mid_bounds(
    n: int, j: int, dt: int, alpha: float = 0.0, variant: str = "greedy"
) -> LinearMidBounds:
    _check_mid(n, j, dt, alpha, variant)
    t_c_ub = n * (dt + 2) - dt
    n_j = mid_n_j(j, dt)
    if variant == "greedy":
        e_total = (
            (1 - alpha + j - n - alpha * j + alpha * n / 2 + alpha * n * n / 2) * dt
            + 2 * n * n / dt
            - alpha
            - 3 * j
            + n / 2
            + 3 * alpha * j
            - 3 * alpha * n / 2
            + j * n
            + alpha * j * j
            + 3 * alpha * n * n / 2
            - j * j
            + n * n / 2
            - alpha * j * n
            + 1
        )
        disc = 2 * (j - n) - 2 * j * alpha - 2 * alpha + alpha * n + alpha * n * n + 2
        opt_exists = n * (2 - alpha * n) / 2 - 1 < j
    else:
        e_total = (
            (j - n - alpha * j + alpha * n / 2 + alpha * n * n / 2) * dt
            + 2 * n * n / dt
            - alpha
            - j
            + n / 2
            + alpha * j
            - 3 * alpha * n / 2
            + j * n
            + alpha * j * j
            + 3 * alpha * n * n / 2
            - j * j
            + n * n / 2
            - alpha * j * n
            + 1
        )
        disc = 2 * (j - n) - 2 * j * alpha + alpha * n + alpha * n * n
        opt_exists = n * (2 - alpha * n) / 2 < j
    dt_opt = 2 * n / math.sqrt(disc) if disc > 0 else None
    return LinearMidBounds(
        t_c_ub=t_c_ub,
        n_j=n_j,
        e_total=e_total,
        dt_opt=dt_opt,
        opt_exists=opt_exists,
    )


def linear_mid_ei_max(
    n: int, j: int, dt: int, alpha, i, variant: str = "greedy"
):
    """Worst-case consumption of the i-th entrant (1-based) for the
    mid-entry corridor.  Greedy groups: [41]-[47]; depth-first groups:
    [54], [57], [59], [60].  Exact-rational inputs give exact results.
    """
    _check_mid(n, j, dt, alpha, variant)
    if i < 1:
        raise ValueError("agent index is 1-based")
    s = n * (dt + 2)
    n_j = mid_n_j(j, dt)
    if i == 1:
        # First entrant: settles beside the entry after two moves and
        # stays settled until termination.
        return 2 + alpha * (s - dt - 2)
    if variant == "greedy":
        if i == 2:
            return 2 + alpha * (s - 2 * dt - 2)
        if i <= j + 1:
            return i * (1 - alpha - alpha * dt) - (1 - alpha) + alpha * s
        if i <= n_j + 1:
            return s - i * dt
        if i <= n_j + n - j:
            return (i - n_j + 1) * (1 - alpha) + alpha * (s - i * dt)
        return s - i * dt
    # depth_first
    if i <= j:
        return i * (1 - alpha - alpha * dt) + alpha * s
    if i <= n_j:
        return s - i * dt
    if i <= n_j + n - j:
        return (i - n_j + 1) * (1 - alpha) + alpha * (s - i * dt)
    return s - i * dt
