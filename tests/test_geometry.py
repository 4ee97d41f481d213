import warnings

import numpy as np
import pytest

from pcompliance import geometry
from pcompliance.errors import ResolutionWarning
from pcompliance.geometry import (
    ConstraintMask,
    CrackSet,
    GridDiscretization,
    ProblemSpec,
    Segment,
    axis_segment,
    build_grid,
    load_segments,
    mirror_part,
    rasterize,
    save_segments,
    total_length,
)


def test_segment_basics():
    seg = Segment((0.0, 0.0), (0.3, 0.4))
    assert seg.dim == 2
    assert seg.length == pytest.approx(0.5)
    assert seg.midpoint == pytest.approx((0.15, 0.2))


def test_segment_dim_mismatch():
    with pytest.raises(ValueError):
        Segment((0.0, 0.0), (1.0, 0.0, 0.0))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_segment_rejects_non_finite_coordinates(bad):
    with pytest.raises(ValueError, match="must be finite"):
        Segment((bad, 0.0), (0.5, 0.0))
    with pytest.raises(ValueError, match="must be finite"):
        Segment((0.0, 0.0), (0.5, bad))


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_load_segments_reports_line_of_non_finite_coordinate(tmp_path, token):
    path = tmp_path / "cracks.txt"
    path.write_text(f"# header\n0 0 0.5 0\n0 0.25 {token} 0.25\n")
    with pytest.raises(ValueError, match=r"cracks\.txt:3: segment coordinates must be finite"):
        load_segments(path)


def test_load_segments_reports_line_of_mixed_dimensions(tmp_path):
    path = tmp_path / "cracks.txt"
    path.write_text("0 0 0.5 0\n\n0 0 0 0.5 0 0\n")
    with pytest.raises(ValueError, match=r"cracks\.txt:3: a 3-d segment after 2-d ones; "
                                         r"all segments must share one dimension"):
        load_segments(path)


def test_axis_segment():
    seg = axis_segment((0.1, 0.2), 1, 0.5)
    assert seg.a == pytest.approx((0.1, 0.2))
    assert seg.b == pytest.approx((0.1, 0.7))


def test_total_length_sums_disjoint():
    cracks = CrackSet.of(
        axis_segment((0.0, 0.0), 0, 1.0),
        axis_segment((0.0, 0.5), 0, 0.25),
        axis_segment((2.0, 0.0), 1, 0.5),
    )
    assert total_length(cracks) == pytest.approx(1.75, rel=1e-15)


def test_total_length_rejects_collinear_overlap():
    overlapping = CrackSet.of(
        axis_segment((0.0, 0.0), 0, 1.0),
        axis_segment((0.5, 0.0), 0, 1.0),
    )
    with pytest.raises(ValueError):
        total_length(overlapping)


def test_total_length_allows_crossings():
    crossing = CrackSet.of(
        axis_segment((-0.5, 0.0), 0, 1.0),
        axis_segment((0.0, -0.5), 1, 1.0),
    )
    assert total_length(crossing) == pytest.approx(2.0)


def test_crackset_empty_and_of():
    assert len(CrackSet.empty()) == 0
    assert total_length(CrackSet.empty()) == 0.0
    two = CrackSet.of(axis_segment((0, 0), 0, 1), axis_segment((0, 1), 0, 1))
    assert len(two) == 2


def test_grid_properties():
    grid = GridDiscretization(33, 1.0, 2)
    assert grid.h == pytest.approx(2.0 / 32)
    assert grid.shape == (33, 33)
    assert grid.cells_shape == (32, 32)
    assert grid.n_nodes == 33 * 33
    assert grid.cell_volume == pytest.approx(grid.h ** 2)
    coords = grid.node_coordinates()
    assert coords.shape == (33, 33, 2)
    assert coords[0, 0] == pytest.approx((-1.0, -1.0))
    assert coords[-1, -1] == pytest.approx((1.0, 1.0))


def test_grid_center_offsets_coordinates():
    grid = GridDiscretization(17, 0.5, 2, center=(2.0, -1.0))
    coords = grid.node_coordinates()
    assert coords[8, 8] == pytest.approx((2.0, -1.0))
    assert grid.contains((2.4, -0.6))
    assert not grid.contains((2.6, -1.0))


def test_grid_rejects_bad_nodes():
    with pytest.raises(ValueError):
        GridDiscretization(1, 1.0, 2)
    with pytest.raises(ValueError):
        GridDiscretization(0, 1.0, 2)


def test_boundary_mask():
    grid = GridDiscretization(5, 1.0, 2)
    boundary = grid.boundary_mask()
    assert boundary.sum() == 5 * 5 - 3 * 3
    assert not boundary[2, 2]


def test_build_grid_matches_spec():
    spec = ProblemSpec(p=2.0, half_width=1.5)
    grid = build_grid(spec, 65)
    assert grid.half_width == 1.5
    assert grid.nodes_per_side == 65


def test_rasterize_half_cell_rule():
    grid = GridDiscretization(9, 1.0, 2)
    seg = axis_segment((-0.5, 0.0), 0, 1.0)
    mask = rasterize(CrackSet.of(seg), grid)
    pinned = mask.pinned & ~grid.boundary_mask()
    rows, cols = np.nonzero(pinned)
    assert set(cols) == {4}
    assert set(rows) == {2, 3, 4, 5, 6}


def test_rasterize_includes_boundary_by_default():
    grid = GridDiscretization(9, 1.0, 2)
    mask = rasterize(CrackSet.empty(), grid)
    assert mask.pinned.sum() == grid.boundary_mask().sum()
    free = rasterize(CrackSet.empty(), grid, include_boundary=False)
    assert free.pinned.sum() == 0


def test_rasterize_warns_when_crack_invisible():
    # h = 0.5, so a short segment near a cell center sits farther than h/2
    # from every node and pins nothing
    grid = GridDiscretization(5, 1.0, 2)
    thin = CrackSet.of(axis_segment((0.24, 0.25), 0, 0.02))
    with pytest.warns(ResolutionWarning):
        mask = rasterize(thin, grid, include_boundary=False)
    assert mask.n_pinned == 0


def _random_cracks(rng: np.random.Generator, grid: GridDiscretization, kind: int) -> CrackSet:
    """One to three segments in the closed box: diagonal, lattice-aligned,
    touching the boundary, or shorter than a cell."""
    axes = [grid.axis(k) for k in range(grid.dim)]
    lo, hi = grid.lower_corner, grid.lower_corner + 2.0 * grid.half_width
    count, segments = rng.integers(1, 4), []
    while len(segments) < count:
        a = rng.uniform(lo, hi)
        if kind == 0:
            b = rng.uniform(lo, hi)
        elif kind == 1:
            a = np.array([ax[rng.integers(grid.nodes_per_side)] for ax in axes])
            b = a.copy()
            axis = rng.integers(grid.dim)
            b[axis] = axes[axis][rng.integers(grid.nodes_per_side)]
        elif kind == 2:
            b = rng.uniform(lo, hi)
            axis = rng.integers(grid.dim)
            a[axis] = axes[axis][0] if rng.integers(2) else axes[axis][-1]
        else:
            b = np.clip(a + rng.uniform(-0.6, 0.6, grid.dim) * grid.h, lo, hi)
        if np.any(a != b):
            segments.append(Segment(tuple(a), tuple(b)))
    return CrackSet(tuple(segments))


@pytest.mark.parametrize("include_boundary", [True, False])
@pytest.mark.parametrize("dim", [2, 3])
def test_rasterize_matches_the_all_nodes_reference(dim, include_boundary):
    # rasterize measures distances on each segment's widened bounding box
    # only; the mask and its warnings must be the all-nodes ones
    rng = np.random.default_rng(20 + dim)
    invisible = 0
    for case in range(120):
        nodes = int(rng.integers(3, 40 if dim == 2 else 14))
        center = tuple(rng.uniform(-1.0, 1.0, dim)) if case % 2 else ()
        grid = GridDiscretization(nodes, float(rng.uniform(0.3, 2.0)), dim, center)
        cracks = _random_cracks(rng, grid, case % 4)
        coords = grid.node_coordinates()
        cutoff = 0.5 * grid.h * (1.0 + geometry._PIN_SLACK)
        captured = [geometry._segment_node_distances(coords, seg) <= cutoff
                    for seg in cracks]
        reference = grid.boundary_mask() if include_boundary else np.zeros(grid.shape, bool)
        for c in captured:
            reference |= c
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResolutionWarning)
            mask = rasterize(cracks, grid, include_boundary)
        np.testing.assert_array_equal(mask.pinned, reference)
        blind = sum(not c.any() for c in captured)
        assert sum(issubclass(w.category, ResolutionWarning) for w in caught) == blind
        invisible += blind
    # the short segments put invisible ones among the cases
    assert invisible > 0


def test_mask_counts():
    grid = GridDiscretization(5, 1.0, 2)
    mask = rasterize(CrackSet.empty(), grid)
    assert mask.n_pinned + mask.n_free == grid.n_nodes
    assert mask.interior_pinned() == 0
    assert not mask.pinned.flags.writeable


def test_mask_requires_matching_shape():
    grid = GridDiscretization(5, 1.0, 2)
    with pytest.raises(ValueError):
        ConstraintMask(grid, np.zeros((4, 4), dtype=bool))


def test_segments_roundtrip(tmp_path):
    cracks = CrackSet.of(
        Segment((0.0, 0.25), (0.125, 0.3)),
        axis_segment((-0.5, -0.5), 1, 0.75),
    )
    path = tmp_path / "cracks.csv"
    save_segments(path, cracks)
    loaded = load_segments(path)
    assert len(loaded) == 2
    for a, b in zip(cracks, loaded):
        assert np.array_equal(a.a, b.a)
        assert np.array_equal(a.b, b.b)


def test_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec(p=1.0)
    with pytest.raises(ValueError):
        ProblemSpec(p=2.0, half_width=0.0)
    with pytest.raises(ValueError):
        ProblemSpec(p=2.0, length_penalty=-1.0)


def test_spec_dual_exponent():
    assert ProblemSpec(p=2.0).dual_exponent == pytest.approx(2.0)
    assert ProblemSpec(p=3.0).dual_exponent == pytest.approx(1.5)
    assert ProblemSpec(p=1.5).dual_exponent == pytest.approx(3.0)


def centered_crack_pins(nodes, dim=2, y=0.0):
    grid = GridDiscretization(nodes, 1.0, dim)
    crack = axis_segment((-0.5, y) + (0.0,) * (dim - 2), 0, 1.0)
    return grid, rasterize(CrackSet.of(crack), grid).pinned


@pytest.mark.parametrize("dim", [2, 3])
def test_mirror_part_of_a_symmetric_box(dim):
    grid, pinned = centered_crack_pins(9, dim)
    f = np.cos(grid.node_coordinates()).prod(axis=-1)
    part = mirror_part(grid, pinned, f, f)
    assert part.grid.shape == (5,) * dim
    assert part.grid.h == grid.h
    assert part.grid.center == (0.5,) * dim
    assert np.array_equal(part.pinned, pinned[(slice(4, None),) * dim])
    # the unfold index reflects every part slice back onto its full array
    assert np.array_equal(part.pinned[part.unfold], pinned)
    assert all(g[part.unfold].tobytes() == f.tobytes() for g in part.fields)
    # a node on k of the planes (index 0 of the part) has gain 2^k
    on_planes = sum(np.indices(part.grid.shape)[k] == 0 for k in range(dim))
    assert np.array_equal(part.gain, 2.0 ** on_planes)
    assert part.gain.dtype == float


def test_mirror_part_needs_an_odd_grid_and_symmetry_bit_for_bit():
    grid, pinned = centered_crack_pins(17)
    f = np.ones(grid.shape)
    assert mirror_part(grid, pinned, f) is not None
    # an even grid has no node plane through its center
    even, even_pins = centered_crack_pins(16)
    assert np.array_equal(even_pins, np.flip(even_pins, 0))
    assert mirror_part(even, even_pins, np.ones(even.shape)) is None
    # pins asymmetric by one node
    lopsided = pinned.copy()
    assert lopsided[4, 8]  # the crack's first node
    lopsided[4, 8] = False
    assert mirror_part(grid, lopsided, f) is None
    # a source asymmetric by one ulp, in any one of the fields
    nudged = f.copy()
    nudged[2, 5] = np.nextafter(1.0, 2.0)
    assert mirror_part(grid, pinned, nudged) is None
    assert mirror_part(grid, pinned, f, nudged) is None
    # the single-solves crack at y = 0.2
    grid, pinned = centered_crack_pins(129, y=0.2)
    assert mirror_part(grid, pinned, np.ones(grid.shape)) is None
