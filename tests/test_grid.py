"""Region parsing, geometry helpers, and the BFS distance field."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridswarm.grid import (
    DIRECTIONS,
    EAST,
    NORTH,
    SOUTH,
    WEST,
    Region,
    RegionError,
    line_region,
    line_region_text,
    opposite,
    parse_region,
    square_region,
    square_region_text,
)


def bfs_distances(region: Region) -> list[int]:
    """Independent breadth-first oracle for Region.distances."""
    dist = [-1] * (region.width * region.height)
    frontier = [region.entry]
    dist[region.entry] = 0
    while frontier:
        nxt = []
        for cell in frontier:
            for nb in region.neighbors[cell]:
                if nb >= 0 and dist[nb] < 0:
                    dist[nb] = dist[cell] + 1
                    nxt.append(nb)
        frontier = nxt
    return dist


class TestDirections:
    def test_opposites_pair_up(self):
        assert opposite(NORTH) == SOUTH
        assert opposite(SOUTH) == NORTH
        assert opposite(EAST) == WEST
        assert opposite(WEST) == EAST

    def test_opposite_is_involutive(self):
        for d in DIRECTIONS:
            assert opposite(opposite(d)) == d

    def test_invalid_direction(self):
        with pytest.raises(ValueError):
            opposite(0)
        with pytest.raises(ValueError):
            opposite(5)


class TestParseRegion:
    def test_minimal_corridor(self):
        r = parse_region("E..")
        assert (r.width, r.height) == (3, 1)
        assert r.entry == 0
        assert r.n == 3

    def test_comments_and_blank_lines_skipped(self):
        r = parse_region("# header\n\nE.\n..\n")
        assert (r.width, r.height) == (2, 2)
        assert r.n == 4

    def test_walls_counted_out(self):
        r = parse_region("EW.\n...\n")
        assert r.n == 5
        assert r.walls[1]

    def test_neighbor_tuple_order_and_walls(self):
        r = parse_region("E..\n...\n...\n")
        c = r.index(1, 1)
        assert r.neighbors[c] == (r.index(1, 0), r.index(2, 1), r.index(1, 2), r.index(0, 1))
        # The entry corner: north and west are outside.
        assert r.neighbors[r.entry][0] == -1
        assert r.neighbors[r.entry][3] == -1

    def test_empty_text_rejected(self):
        with pytest.raises(RegionError, match="no grid rows"):
            parse_region("# only a comment\n")

    def test_ragged_rows_rejected(self):
        with pytest.raises(RegionError, match="ragged"):
            parse_region("E..\n..\n")

    def test_unknown_character_rejected(self):
        with pytest.raises(RegionError, match="unknown region character"):
            parse_region("E.x\n")

    def test_missing_entry_rejected(self):
        with pytest.raises(RegionError, match="no entry cell"):
            parse_region("...\n")

    def test_multiple_entries_rejected(self):
        with pytest.raises(RegionError, match="2 entry cells"):
            parse_region("E.E\n")

    def test_disconnected_region_rejected(self):
        with pytest.raises(RegionError, match="disconnected|unreachable"):
            parse_region("E.W.\n")


class TestDistances:
    @pytest.mark.parametrize(
        "text",
        [
            "E....",
            "E..\n...\n...",
            "E..\n.W.\n...",
            "....E....",
            "WWW.W\n.E..W\nW.W..",
        ],
    )
    def test_distances_match_bfs_oracle(self, text):
        r = parse_region(text)
        assert list(r.distances) == bfs_distances(r)

    def test_coordinate_api(self):
        r = parse_region("E..\n...\n")
        assert r.distances[r.index(2, 1)] == 3
        assert r.entry_coord == (0, 0)
        assert len(r.neighbors[r.index(0, 0)]) == 4


class TestConstructors:
    def test_line_region(self):
        r = line_region(10)
        assert (r.width, r.height) == (10, 1)
        assert r.entry == 0
        assert r.n == 10
        assert max(r.distances) == 9

    def test_line_region_mid_entry(self):
        r = line_region(9, entry=4)
        assert r.entry == 4
        assert max(r.distances) == 4

    def test_square_region(self):
        r = square_region(41)
        assert (r.width, r.height) == (41, 41)
        assert r.entry_coord == (20, 20)
        assert r.n == 41 * 41

    def test_square_region_requires_odd_side(self):
        with pytest.raises(ValueError):
            square_region(40)

    def test_text_variants_round_trip(self):
        assert parse_region(line_region_text(7)).n == line_region(7).n
        assert parse_region(square_region_text(5)).entry == square_region(5).entry


def text_oracle(text: str):
    """What a region text describes, read without ``parse_region``: None
    if it is malformed or disconnected, else ``(n, entry, distances)``
    from a breadth-first search over the coordinates of its free cells."""
    rows = [r for r in (raw.rstrip() for raw in text.splitlines()) if r and not r.startswith("#")]
    if not rows or len({len(r) for r in rows}) != 1 or set("".join(rows)) - set("W.E"):
        return None
    width = len(rows[0])
    free = {(x, y) for y, r in enumerate(rows) for x, c in enumerate(r) if c != "W"}
    entries = [(x, y) for y, r in enumerate(rows) for x, c in enumerate(r) if c == "E"]
    if len(entries) != 1:
        return None
    dist = {entries[0]: 0}
    queue = [entries[0]]
    for x, y in queue:
        for nb in ((x, y - 1), (x + 1, y), (x, y + 1), (x - 1, y)):
            if nb in free and nb not in dist:
                dist[nb] = dist[(x, y)] + 1
                queue.append(nb)
    if len(dist) != len(free):
        return None
    (ex, ey), = entries
    distances = [dist.get((c % width, c // width), -1) for c in range(width * len(rows))]
    return len(free), ey * width + ex, distances


@st.composite
def region_texts(draw):
    """Grids of walls and free cells with zero, one or two entries, with
    comment and blank lines, trailing whitespace, and now and then a
    ragged row or an unknown character."""
    w, h = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = draw(st.lists(st.sampled_from("W..."), min_size=w * h, max_size=w * h))
    for _ in range(draw(st.sampled_from([1, 1, 1, 0, 2]))):
        cells[draw(st.integers(0, w * h - 1))] = "E"
    rows = ["".join(cells[y * w:(y + 1) * w]) + draw(st.sampled_from(["", "", " ", "\t"]))
            for y in range(h)]
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, h)), draw(st.sampled_from(["", "# W.E", "   "])))
    if draw(st.integers(0, 7)) == 0:
        y = draw(st.integers(0, len(rows) - 1))
        rows[y] = draw(st.sampled_from([rows[y][:-1], rows[y] + ".", " " + rows[y], rows[y] + "x"]))
    return "\n".join(rows)


@settings(max_examples=300, deadline=None)
@given(text=region_texts() | st.text(alphabet="WE.# x\n\t", max_size=40) | st.text(max_size=20))
def test_parse_region_agrees_with_a_bfs_on_the_text(text):
    """``parse_region`` returns the region a BFS on the text finds, or
    raises ``RegionError``, and never any other exception."""
    want = text_oracle(text)
    try:
        region = parse_region(text)
    except RegionError:
        assert want is None
        return
    assert want == (region.n, region.entry, list(region.distances))
