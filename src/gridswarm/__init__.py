"""Simulator and analysis toolkit for distributed uniform coverage of
unknown grid regions by energy-constrained agents entering through a
single entry cell."""

from .agents import (
    ALGORITHMS,
    SCHEDULERS,
    AgentRecord,
    ParamError,
    SimParams,
    sense,
)
from .engine import (
    Event,
    InvariantError,
    RunMetrics,
    RunResult,
    Simulation,
    run,
)
from .grid import (
    Region,
    RegionError,
    line_region,
    opposite,
    parse_region,
    square_region,
)

__all__ = [
    "ALGORITHMS",
    "SCHEDULERS",
    "AgentRecord",
    "Event",
    "InvariantError",
    "ParamError",
    "Region",
    "RegionError",
    "RunMetrics",
    "RunResult",
    "SimParams",
    "Simulation",
    "line_region",
    "opposite",
    "parse_region",
    "run",
    "sense",
    "square_region",
]

__version__ = "0.1.0"
