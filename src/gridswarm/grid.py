"""Rectangular grid regions: walls, empty cells, and a single entry cell.

Cells are addressed either by ``(x, y)`` coordinates (``x`` = column,
``y`` = row, origin top-left) or, internally, by a linear index
``y * width + x``.  Directions are numbered 1=North, 2=East, 3=South,
4=West so that opposite directions differ by 2 (mod 4).
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

NORTH, EAST, SOUTH, WEST = 1, 2, 3, 4
DIRECTIONS = (NORTH, EAST, SOUTH, WEST)

_OFFSETS = {NORTH: (0, -1), EAST: (1, 0), SOUTH: (0, 1), WEST: (-1, 0)}


def opposite(direction: int) -> int:
    """Return the direction pointing the opposite way (N<->S, E<->W)."""
    if direction not in DIRECTIONS:
        raise ValueError(f"invalid direction {direction!r}")
    return (direction + 1) % 4 + 1


class RegionError(ValueError):
    """Raised for malformed region descriptions."""


@dataclass(frozen=True)
class Region:
    """An immutable parsed region.

    Attributes
    ----------
    width, height : overall bounding-box size in cells.
    walls : per-cell flag, ``True`` for wall cells.
    entry : linear index of the unique entry cell.
    n : number of empty (non-wall) cells, including the entry.
    neighbors : per-cell 4-tuple of neighbor linear indices in
        direction order (N, E, S, W); ``-1`` marks a wall or the
        outside of the bounding box.
    distances : per-cell hop distance from the entry (``-1`` on walls).
    """

    width: int
    height: int
    walls: tuple[bool, ...]
    entry: int
    n: int
    neighbors: tuple[tuple[int, int, int, int], ...] = field(repr=False)
    distances: tuple[int, ...] = field(repr=False)

    def index(self, x: int, y: int) -> int:
        return y * self.width + x

    def coord(self, cell: int) -> tuple[int, int]:
        return cell % self.width, cell // self.width

    @property
    def entry_coord(self) -> tuple[int, int]:
        return self.coord(self.entry)


def parse_region(text: str) -> Region:
    """Parse a region description.

    ``W`` is a wall, ``.`` an empty cell, ``E`` the unique entry cell.
    Lines starting with ``#`` are comments; trailing whitespace is
    ignored.  Raises :class:`RegionError` with a distinct message for
    each malformation: ragged rows, unknown characters, zero or
    multiple entries, and disconnected empty cells.
    """
    rows: list[str] = []
    for raw in text.splitlines():
        line = raw.rstrip()
        if not line or line.startswith("#"):
            continue
        rows.append(line)
    if not rows:
        raise RegionError("region has no grid rows")

    width = len(rows[0])
    height = len(rows)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise RegionError(
                f"ragged region: row {i + 1} has width {len(row)}, expected {width}"
            )

    walls: list[bool] = []
    entries: list[int] = []
    for y, row in enumerate(rows):
        for x, ch in enumerate(row):
            cell = y * width + x
            if ch == "W":
                walls.append(True)
            elif ch == ".":
                walls.append(False)
            elif ch == "E":
                walls.append(False)
                entries.append(cell)
            else:
                raise RegionError(
                    f"unknown region character {ch!r} at row {y + 1}, column {x + 1}"
                )
    if not entries:
        raise RegionError("region has no entry cell 'E'")
    if len(entries) > 1:
        raise RegionError(f"region has {len(entries)} entry cells, expected exactly one")
    entry = entries[0]

    neighbors: list[tuple[int, int, int, int]] = []
    for cell in range(width * height):
        x, y = cell % width, cell // width
        row_nb = []
        for d in DIRECTIONS:
            dx, dy = _OFFSETS[d]
            nx, ny = x + dx, y + dy
            if 0 <= nx < width and 0 <= ny < height and not walls[ny * width + nx]:
                row_nb.append(ny * width + nx)
            else:
                row_nb.append(-1)
        neighbors.append(tuple(row_nb))

    n = sum(1 for w in walls if not w)

    distances = [-1] * (width * height)
    distances[entry] = 0
    queue = deque([entry])
    while queue:
        cell = queue.popleft()
        for nb in neighbors[cell]:
            if nb >= 0 and distances[nb] < 0:
                distances[nb] = distances[cell] + 1
                queue.append(nb)
    reached = sum(1 for cell in range(width * height) if distances[cell] >= 0)
    if reached != n:
        raise RegionError(
            f"empty cells are not 4-connected: {n - reached} cells unreachable from the entry"
        )

    return Region(
        width=width,
        height=height,
        walls=tuple(walls),
        entry=entry,
        n=n,
        neighbors=tuple(neighbors),
        distances=tuple(distances),
    )


def line_region_text(n: int, entry: int = 0) -> str:
    """A 1 x n corridor with the entry at 0-based position ``entry``."""
    if n < 1:
        raise ValueError("line region needs at least one cell")
    if not 0 <= entry < n:
        raise ValueError(f"entry position {entry} outside line of length {n}")
    cells = ["."] * n
    cells[entry] = "E"
    return "".join(cells)


def square_region_text(side: int) -> str:
    """A side x side open square with the entry at the center."""
    if side < 1 or side % 2 == 0:
        raise ValueError("square region side must be a positive odd number")
    mid = side // 2
    rows = []
    for y in range(side):
        row = ["."] * side
        if y == mid:
            row[mid] = "E"
        rows.append("".join(row))
    return "\n".join(rows)


def line_region(n: int, entry: int = 0) -> Region:
    return parse_region(line_region_text(n, entry))


def square_region(side: int) -> Region:
    return parse_region(square_region_text(side))
