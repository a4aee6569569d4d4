"""The grid generator must give exactly what the exhaustive one gave.

``exhaustive_gen.gen_roadmap_exhaustive`` is the generator before its cell
grid, frozen.  Every case compares whole roadmaps, coordinates and edge
lists, or the identical ``RoadmapGenError`` message.  It also compares the
pairs each generator passed to ``edge_key``: every vertex's k nearest, then
the kept edges.  A wrong k-nearest set mostly proposes long edges that the
mean-degree cut drops, so the roadmaps alone would rarely show it.
"""

import hashlib
import math
import random
from collections import Counter

import exhaustive_gen
import pytest

from mapfla import harness
from mapfla.harness import PRESETS, RoadmapGenError, _cell_side, gen_roadmap
from mapfla.model import edge_key


def _outcome(module, gen, args):
    proposed: Counter = Counter()

    def counting_edge_key(u, v):
        proposed[u, v] += 1
        return edge_key(u, v)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "edge_key", counting_edge_key)
        try:
            result = gen(*args)
        except RoadmapGenError as exc:
            result = f"RoadmapGenError: {exc}"
    return result, proposed


def assert_same_as_exhaustive(args):
    """Returns whether the roadmap could be placed."""
    result, proposed = _outcome(harness, gen_roadmap, args)
    ref_result, ref_proposed = _outcome(
        exhaustive_gen, exhaustive_gen.gen_roadmap_exhaustive, args
    )
    assert result == ref_result, args
    assert proposed == ref_proposed, args
    return not isinstance(result, str)


@pytest.mark.parametrize("name", sorted(PRESETS))
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 999, 1000, 1001, 1002, 1003])
def test_presets_match_the_exhaustive_generator(name, seed):
    p = PRESETS[name]
    assert_same_as_exhaustive(
        (p.n_vertices, p.target_degree, p.min_separation, p.extent, seed)
    )


def _draw(rng: random.Random):
    n = rng.randint(1, 120)
    sep = rng.uniform(0.5, 2.0)
    # From just above the area random placement jams at to three times it,
    # in shapes from a 1:16 strip to a square.
    area = n * sep * sep * rng.uniform(1.4, 4.0)
    aspect = rng.uniform(0.25, 4.0)
    extent = (math.sqrt(area * aspect), math.sqrt(area / aspect))
    return (n, rng.uniform(0.0, 9.0), sep, extent, rng.randrange(2**31))


def test_drawn_parameters_match_the_exhaustive_generator():
    rng = random.Random(20261019)
    for _ in range(300):
        assert_same_as_exhaustive(_draw(rng))


@pytest.mark.parametrize(
    "args",
    [
        (1, 4.0, 1.0, (5.0, 5.0), 0),
        (1, 4.0, 1.0, (0.0, 0.0), 3),
        # n - 1 <= k: every other vertex is a candidate neighbour.
        (2, 4.0, 1.0, (5.0, 5.0), 1),
        (5, 3.0, 1.0, (6.0, 6.0), 2),
        (7, 4.42, 1.0, (8.0, 3.0), 4),
        (9, 8.0, 1.0, (9.0, 9.0), 5),
        (12, 16.0, 0.5, (4.0, 4.0), 6),
        # min_separation 0, with coincident vertices when an extent is 0.
        (40, 4.0, 0.0, (6.0, 6.0), 7),
        (30, 4.0, 0.0, (0.0, 0.0), 8),
        (30, 5.0, 0.0, (10.0, 0.0), 9),
        (40, 4.0, 1e-6, (5.0, 5.0), 10),
        # Strips with far more length than width.
        (60, 4.0, 0.3, (100.0, 0.5), 11),
        (60, 4.0, 0.3, (1e-9, 50.0), 12),
        # The placement budget runs out.
        (100, 4.0, 1.0, (3.0, 3.0), 0),
        (30, 4.0, 1.0, (4.0, 4.0), 13),
        (12, 3.4, 2.0, (2.0, 2.0), 14),
        (3, 3.0, 1.0, (0.0, 0.0), 15),
    ],
)
def test_edge_cases_match_the_exhaustive_generator(args):
    assert_same_as_exhaustive(args)


def test_extents_that_are_whole_cells_match_the_exhaustive_generator():
    # With more vertices than unit squares the separation sets the side, so
    # an extent of m sides ends exactly on a cell boundary.
    placed = 0
    for m, m2 in [(1, 1), (3, 3), (4, 2), (8, 1), (10, 1), (6, 6)]:
        for n in (m * m2 + 1, m * m2 + 2):
            side = _cell_side(n, 1.0, float(m), float(m2))
            extent = (m * side, m2 * side)
            assert _cell_side(n, 1.0, *extent) == side
            assert (extent[0] / side, extent[1] / side) == (m, m2)
            for seed in range(4):
                placed += assert_same_as_exhaustive((n, 4.0, 1.0, extent, seed))
    assert placed >= 10


def test_large_roadmap_is_pinned():
    # SHA-256 of the exhaustive generator's output, which takes seconds.
    rm = gen_roadmap(2000, 4.42, 1.0, (64, 64), 0)
    assert (rm.n_vertices, rm.n_edges) == (2000, 4420)
    digest = hashlib.sha256(repr((rm.points, rm.edge_list)).encode()).hexdigest()
    assert digest == "1c976c1b92a3842f108b40a9e5beac5752b9446433e3ce8e502448073f7851a7"
