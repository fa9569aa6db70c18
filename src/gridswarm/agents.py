"""Agent state, run parameters, and sensing.

An agent occupies either the air layer (mobile) or the ground layer
(settled) of a cell.  Its public state is the pair ``(s1, s2)``:
``s1`` is the settled sub-state it projects (mobile agents project
nothing meaningful), ``s2`` is algorithm-specific payload (a gradient
value or a direction code).
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from . import bounds
from ._build import kernel

# Modes (lifecycle).
MODE_MOBILE, MODE_SETTLED, MODE_SHUTDOWN, MODE_FAILED = range(4)
MODE_NAMES = {
    MODE_MOBILE: "mobile",
    MODE_SETTLED: "settled",
    MODE_SHUTDOWN: "shutdown",
    MODE_FAILED: "failed",
}

# Projected sub-states (s1), and their names indexed by s1.
S_MOBILE, S_BEACON, S_CLOSED_BEACON, S_LOW_ENERGY = range(4)
S1_NAMES = ("mobile", "beacon", "closed_beacon", "low_energy")

ALGORITHMS = ("sllg-ea", "slug-ea", "sltt-ea")
SCHEDULERS = ("random", "adversarial")

# Sensed-neighborhood cell markers.
SENSE_WALL = -1
SENSE_EMPTY = 0

# Energies are counted in ticks held in floats; from 2**53 on, a unit
# tick can be lost in rounding, and so can a step of a settled agent's
# drain schedule.
_ENERGY_LIMIT = 2.0**53
# A random sub-step, below ``m``, is packed above a 32-bit agent id into
# a 64-bit wake key.
_M_LIMIT = 2**32


class ParamError(ValueError):
    """Raised for inconsistent run parameters."""


def _integral(value) -> bool:
    """Whether ``value`` is a whole number; an integral float is one."""
    try:
        return value % 1 == 0
    except TypeError:
        return False


@dataclass
class SimParams:
    """Parameters of a single run."""

    dt: int = 2
    e0: float = 20.0
    ecrit_mobile: float = 1.0
    ecrit_settled: float = 1.0
    alpha: float = 0.0
    m: int = 1000
    algorithm: str = "sllg-ea"
    approach: int = 1
    scheduler: str = "random"
    seed: int = 0
    max_steps: int | None = None

    def __post_init__(self) -> None:
        self.algorithm = str(self.algorithm).lower()
        self.scheduler = str(self.scheduler).lower()

    @property
    def d_max(self) -> int:
        """Maximum settling distance an agent can afford and still
        report energy exhaustion before shutting down."""
        return bounds.d_max(self.e0, self.ecrit_mobile)

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ParamError(f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}")
        if self.scheduler not in SCHEDULERS:
            raise ParamError(f"unknown scheduler {self.scheduler!r}; expected one of {SCHEDULERS}")
        if self.approach not in (1, 2):
            raise ParamError(f"approach must be 1 or 2, got {self.approach}")
        for name in ("dt", "m", "max_steps"):
            value = getattr(self, name)
            if not (_integral(value) or name == "max_steps" and value is None):
                raise ParamError(f"{name} must be an integer, got {value!r}")
        if self.dt < 1:
            raise ParamError(f"dt must be >= 1, got {self.dt}")
        if self.m < 1:
            raise ParamError(f"m must be >= 1, got {self.m}")
        if self.m > _M_LIMIT:
            raise ParamError(f"m must be at most 2**32, got {self.m}")
        for name in ("e0", "alpha", "ecrit_mobile", "ecrit_settled"):
            value = getattr(self, name)
            try:
                finite = math.isfinite(value)
            except TypeError:
                raise ParamError(f"{name} must be a number, got {value!r}") from None
            if not (finite and value < _ENERGY_LIMIT):
                raise ParamError(f"{name} must be finite and below 2**53, got {value}")
            # The kernel compares energies as floats.
            if float(value) != value:
                raise ParamError(f"{name} must be a value a float holds exactly, got {value!r}")
        if self.alpha < 0:
            raise ParamError(f"alpha must be >= 0, got {self.alpha}")
        if self.ecrit_mobile < 1:
            raise ParamError(f"ecrit_mobile must be >= 1, got {self.ecrit_mobile}")
        if self.ecrit_settled < 0:
            raise ParamError(f"ecrit_settled must be >= 0, got {self.ecrit_settled}")
        if self.e0 <= self.ecrit_mobile + 1:
            raise ParamError(
                f"e0 must exceed ecrit_mobile + 1 (got e0={self.e0}, ecrit_mobile={self.ecrit_mobile})"
            )
        if self.alpha and self.e0 / self.alpha >= _ENERGY_LIMIT:
            raise ParamError(
                f"alpha must be 0 or at least e0 / 2**53 (got alpha={self.alpha}, e0={self.e0})"
            )
        if self.max_steps is not None and self.max_steps < 1:
            raise ParamError(f"max_steps must be >= 1, got {self.max_steps}")
        # A run is repeatable only from a given seed: no None for OS entropy.
        try:
            seed_ok = operator.index(self.seed) >= 0
        except TypeError:
            seed_ok = False
        if not seed_ok:
            raise ParamError(f"seed must be an int >= 0, got {self.seed!r}")


# The per-agent record and sensing are compiled: see ``_kernel.c`` for
# their definitions.  ``AgentRecord(id, mode, s1, s2, pos, energy, t_m=0,
# settle_step=-1)``: ``pos`` is a linear cell index, ``t_m`` counts the
# movement ticks, the entry's included, and ``settle_step`` is the step
# during which the agent settled.
AgentRecord = kernel.AgentRecord
sense = kernel.sense
