import math

import numpy as np
import pytest

from flatproc.closed_form import WindowDescriptor
from flatproc.derived_processes import (SegmentProcessSample, f_alpha,
                                        intersections, order_statistics,
                                        proximity, write_segments_csv)
from flatproc.flat_geometry import (Subspace, canonical_units, complement,
                                    complement_bases, haar_bases, subspace_views)
from flatproc.measures import DirectionSet, GrassmannMeasure
from flatproc.simulator import FlatProcessSpec, FlatSample, sample_poisson

from _reference import contains_flat, through_point, translate

E = np.eye(3)


def lines_sample(directions, points, radius=10.0):
    flats = [through_point(Subspace.span(d), p)
             for d, p in zip(directions, points)]
    return FlatSample(len(points[0]), 1, radius,
                      np.stack([f.direction.basis for f in flats]),
                      np.stack([f.offset for f in flats]), "fixture")


def skew_orthogonal_lines(gap=1.0):
    # span(e1) and span(e2) + gap * e3: distance gap
    return lines_sample([E[0], E[1]], [np.zeros(3), gap * E[2]])


def test_proximity_threshold_excludes_far_pairs():
    seg = proximity(skew_orthogonal_lines(1.0), delta=0.5)
    assert len(seg) == 0


def test_proximity_finds_orthogonal_segment():
    seg = proximity(skew_orthogonal_lines(1.0), delta=2.0)
    assert len(seg) == 1
    assert seg.lengths[0] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(seg.midpoints[0], [0, 0, 0.5])
    assert np.allclose(np.abs(seg.directions[0]), E[2])
    assert seg.pairs[0].tolist() == [0, 1]


def test_proximity_excludes_parallel_pairs():
    sample = lines_sample([E[0], E[0]], [np.zeros(3), E[1]])
    seg = proximity(sample, delta=10.0)
    assert len(seg) == 0


@pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_proximity_rejects_bad_delta(delta):
    with pytest.raises(ValueError, match="distance threshold"):
        proximity(skew_orthogonal_lines(1.0), delta=delta)


def test_proximity_dimension_precondition():
    planes = FlatSample(3, 2, 2.0, np.stack([E[:2], E[1:]]), np.zeros((2, 3)), "x")
    with pytest.raises(ValueError, match="k_1 \\+ k_2 < n"):
        proximity(planes, delta=1.0)


def test_proximity_two_sample_pair_symmetry():
    spec = FlatProcessSpec(4, 1, 1.0, GrassmannMeasure.isotropic(4, 1, 1.0))
    a = sample_poisson(spec, 2.0, 41)
    b = sample_poisson(spec, 2.0, 42)
    ab = proximity(a, b, delta=1.5)
    ba = proximity(b, a, delta=1.5)
    assert len(ab) == len(ba)
    fwd = sorted(map(tuple, ab.pairs.tolist()))
    rev = sorted((j, i) for i, j in ba.pairs.tolist())
    assert fwd == rev
    assert np.sort(ab.lengths) == pytest.approx(np.sort(ba.lengths), abs=1e-12)


def scalar_segments(sample_a, sample_b, delta):
    """Reference proximity: closest_pair on every pair, one at a time."""
    from itertools import combinations, product

    from flatproc.flat_geometry import DegeneratePairError, closest_pair

    flats_a = sample_a.flats
    flats_b = flats_a if sample_b is None else sample_b.flats
    pairs = (combinations(range(len(flats_a)), 2) if sample_b is None
             else product(range(len(flats_a)), range(len(flats_b))))
    out = {}
    for i, j in pairs:
        try:
            ref = closest_pair(flats_a[i], flats_b[j])
        except DegeneratePairError:
            continue
        if ref.length <= delta:
            out[(i, j)] = ref
    return out


def assert_matches_scalar(seg, ref, mid_tol=1e-9):
    pairs = seg.pairs.tolist()
    assert sorted(map(tuple, pairs)) == sorted(ref)
    for (i, j), length, mid, direction in zip(pairs, seg.lengths, seg.midpoints,
                                              seg.directions):
        assert abs(length - ref[(i, j)].length) <= 1e-10
        assert np.max(np.abs(mid - ref[(i, j)].midpoint)) <= mid_tol
        assert np.max(np.abs(direction - ref[(i, j)].direction)) <= 1e-9


def test_proximity_generic_path_matches_line_fast_path():
    # generic pairs (k >= 2) take the stacked Gram solve, line pairs its 2x2
    # closed-form branch: both must find the pairs and segments that the
    # scalar closest_pair finds one pair at a time
    for n, k, gamma, radius, seed in ((5, 2, 0.6, 1.5, 43), (3, 1, 1.0, 2.0, 301),
                                      (4, 1, 1.0, 2.0, 302), (5, 2, 1.0, 1.6, 303),
                                      (7, 3, 1.0, 1.3, 304)):
        spec = FlatProcessSpec(n, k, gamma, GrassmannMeasure.isotropic(n, k, 1.0))
        for rep in range(3):
            flats = sample_poisson(spec, radius, [seed, rep])
            seg = proximity(flats, delta=2.0)
            assert_matches_scalar(seg, scalar_segments(flats, None, 2.0))


def test_degenerate_and_touching_pairs_dropped_like_scalar():
    # R^5 planes: 0 and 1 parallel, 0 and 2 through a common point (touching),
    # 3 shares a direction with 0 (subspace determinant 0), 4 generic
    e = np.eye(5)
    rotated = np.stack([e[0], (e[2] + e[3]) / np.sqrt(2.0)])
    flats = [through_point(Subspace(e[:2]), 0.4 * e[4]),
             through_point(Subspace(e[:2]), -0.3 * e[3]),
             through_point(Subspace(e[2:4]), 0.4 * e[4]),
             through_point(Subspace(rotated), 0.2 * e[4] + 0.1 * e[1]),
             through_point(Subspace(np.stack([e[2], e[4]])), 0.3 * e[0] + 0.2 * e[1])]
    sample = FlatSample(5, 2, 2.0, np.stack([f.direction.basis for f in flats]),
                        np.stack([f.offset for f in flats]), "x")
    ref = scalar_segments(sample, None, 10.0)
    assert (0, 1) not in ref and (0, 2) not in ref and (0, 3) not in ref
    assert_matches_scalar(proximity(sample, delta=10.0), ref)
    # lines: a parallel pair (0, 1), and line 2 crosses both of them
    lines = lines_sample([E[0], E[0], E[1], E[2]],
                         [np.zeros(3), E[1], 0.5 * E[0], 0.3 * E[1]])
    ref = scalar_segments(lines, None, 10.0)
    assert sorted(ref) == [(0, 3), (1, 3), (2, 3)]
    assert_matches_scalar(proximity(lines, delta=10.0), ref)


def far_line_pair(rng, n, sin_t, dist, scale=1.0):
    """Two lines in R^n whose common perpendicular has length dist and lies
    100-150 scale along the lines from their offsets, which lie 110-140
    scale from the origin: rotated copies of e1 and cos(t) e1 + sin(t) e2
    through center -+ (dist / 2) e3.  Returns (directions, points)."""
    from _reference import random_rotation

    rot = random_rotation(n, rng)
    e1, e2, e3 = rot[:, 0], rot[:, 1], rot[:, 2]
    center = scale * (rng.uniform(110.0, 140.0) * e3
                      + rng.choice([-1, 1]) * rng.uniform(100, 150) * e1
                      + rot[:, 3:] @ rng.uniform(-30.0, 30.0, n - 3))
    cos_t = np.sqrt(1.0 - sin_t * sin_t)
    return [e1, cos_t * e1 + sin_t * e2], [center - dist / 2 * e3, center + dist / 2 * e3]


def screen_fixture(n, seed, delta=1.0):
    """Line pairs around the edges of the screen in pair_segments: distances
    delta (1 +- 1e-12) at generic angles; 1 - c^2 just below and just above
    SCREEN_TAU at distances delta / 2 and delta (1 +- 1e-9); 1 - c^2 =
    SCREEN_TAU / 2 at distance delta (1 - 1e-9), where a screen that held
    its denominator at SCREEN_TAU for every pair would overstate distance^2
    by (x sin t)^2 / 2 >= 2.5e-3 (x >= 100 the feet's distance from the
    offsets); exactly parallel pairs; a touching pair."""
    from flatproc.flat_geometry import SCREEN_TAU

    rng = np.random.default_rng(seed)
    cases = [(np.sin(t), dist) for t in rng.uniform(0.3, 1.5, 8)
             for dist in (delta * (1 - 1e-12), delta * (1 + 1e-12))]
    cases += [(np.sqrt(SCREEN_TAU * f), dist) for f in (0.99, 1.01)
              for dist in (delta / 2, delta * (1 - 1e-9), delta * (1 + 1e-9))]
    cases += [(np.sqrt(SCREEN_TAU / 2), delta * (1 - 1e-9))] * 2
    cases += [(0.0, delta / 2), (0.0, delta * (1 - 1e-12)), (np.sin(0.7), 0.0)]
    directions, points = [], []
    for sin_t, dist in cases:
        pair_dirs, pair_points = far_line_pair(rng, n, sin_t, dist)
        directions += pair_dirs
        points += pair_points
    return lines_sample(directions, points, radius=200.0)


@pytest.mark.parametrize("n, seed", [(3, 320), (5, 321)])
def test_screen_keeps_every_pair_near_its_edges(n, seed, monkeypatch):
    import flatproc.flat_geometry as flat_geometry

    sample = screen_fixture(n, seed)
    assert np.min(np.linalg.norm(sample.offsets, axis=1)) >= 100.0
    assert len(sample) * (len(sample) - 1) // 2 >= flat_geometry.SCREEN_MIN_PAIRS
    seg = proximity(sample, delta=1.0)
    # the screen only picks the pairs for the exact solve: the output is the
    # exact solve's on every pair, bit for bit
    monkeypatch.setattr(flat_geometry, "SCREEN_MIN_PAIRS", math.inf)
    unscreened = proximity(sample, delta=1.0)
    for name in ("pairs", "lengths", "midpoints", "directions"):
        assert np.array_equal(getattr(seg, name), getattr(unscreened, name))
    ref = scalar_segments(sample, None, 1.0)
    # the constructed pairs within delta are kept; those beyond it are not
    built = {(2 * p, 2 * p + 1) for p in range(len(sample) // 2)}
    assert sorted(set(ref) & built) == [(2 * p, 2 * p + 1) for p in
                                        [*range(0, 16, 2), 16, 17, 19, 20, 22, 23]]
    # pair sets and lengths agree with closest_pair, the touching pair (the
    # last one) dropped by both; the midpoint of a nearly parallel pair is
    # ill-conditioned along the lines (round-off of order
    # 200 eps / (1 - c^2), about 2e-8 here), in both solvers alike
    assert (len(sample) - 2, len(sample) - 1) not in ref
    assert_matches_scalar(seg, ref, mid_tol=1e-7)


def dense_screen_fixture(far, seed, delta=1.0):
    """About 200 line pairs in R^3 around the edge of the screen in
    pair_segments, most of their direction rows with u.u != 1.  far: 100 at
    generic angles and 100 at 1 - c^2 = 0.99 and 1.01 SCREEN_TAU, at
    distances within 1e-11 delta of delta and with offsets 1,600-3,000 from
    the origin, about as far out as the orthogonality check of Flat allows.
    Otherwise: 200 nearly parallel pairs, 1 - c^2 = 1e-12, at distances
    within 1e-3 delta of delta and with offsets 1-3 from the origin."""
    from flatproc.flat_geometry import SCREEN_TAU

    rng = np.random.default_rng(seed)
    if far:
        sin_t = np.concatenate([np.sin(rng.uniform(0.3, 1.5, 100)),
                                np.sqrt(SCREEN_TAU * np.repeat([0.99, 1.01], 50))])
    else:
        sin_t = np.full(200, 1e-6)
    directions, points = [], []
    for s in sin_t:
        dist = delta * (1.0 + (1e-11 if far else 1e-3) * rng.uniform(-1.0, 1.0))
        pair_dirs, pair_points = far_line_pair(rng, 3, s, dist, scale=15.0 if far else 0.01)
        directions += pair_dirs
        points += pair_points
    return lines_sample(directions, points, radius=4000.0)


@pytest.mark.parametrize("far, seed", [(True, 330), (False, 331)], ids=["far", "parallel"])
def test_r3_screen_keeps_every_pair_near_delta(far, seed, monkeypatch):
    # the R^3 screen's margin is a round-off bound: a screen that drops one
    # pair the exact solve keeps changes the output
    import flatproc.flat_geometry as flat_geometry

    sample = dense_screen_fixture(far, seed)
    u = sample.bases[:, 0, :]
    assert np.count_nonzero(np.einsum("mn,mn->m", u, u) != 1.0) >= len(sample) // 4
    if far:
        assert np.min(np.linalg.norm(sample.offsets, axis=1)) >= 1600.0
    seg = proximity(sample, delta=1.0)
    monkeypatch.setattr(flat_geometry, "SCREEN_MIN_PAIRS", math.inf)
    unscreened = proximity(sample, delta=1.0)
    for name in ("pairs", "lengths", "midpoints", "directions"):
        assert np.array_equal(getattr(seg, name), getattr(unscreened, name))
    # the exact solve keeps some of the constructed pairs and drops others
    built = {(2 * p, 2 * p + 1) for p in range(len(sample) // 2)}
    kept = built & set(map(tuple, unscreened.pairs.tolist()))
    assert 0 < len(kept) < len(built)


@pytest.mark.parametrize("sin_t, dist, seed", [
    (0.0, 0.5, 11),
    (np.sqrt(1.01e-6), 0.0, 0)],
    ids=["parallel", "touching"])
def test_degenerate_lines_far_out_dropped_like_scalar(sin_t, dist, seed):
    directions, points = far_line_pair(np.random.default_rng(seed), 5, sin_t, dist)
    sample = lines_sample(directions, points, radius=200.0)
    assert scalar_segments(sample, None, 1.0) == {}
    assert len(proximity(sample, delta=1.0)) == 0


def test_parallel_lines_of_a_discrete_law_dropped_like_scalar():
    # laws {e0, u} whose unit u has u.u != 1 in floating point: two lines
    # drawn from the same atom are exactly parallel, 1 - c^2 can round to
    # 2.2e-16 for them, and closest_pair drops every such pair
    rng = np.random.default_rng(0)
    laws = 0
    while laws < 10:
        u = Subspace.span(rng.standard_normal(3)).basis
        if np.einsum("mn,mn->m", u, u)[0] == 1.0:
            continue
        laws += 1
        q = GrassmannMeasure.discrete([(Subspace(E[:1]), 0.5), (Subspace(u), 0.5)])
        sample = sample_poisson(FlatProcessSpec(3, 1, 1.0, q), 3.0, 5)
        seg = proximity(sample, delta=1.0)
        dirs = sample.bases[:, 0, :]
        assert not np.all(dirs[seg.pairs[:, 0]] == dirs[seg.pairs[:, 1]], axis=1).any()
        assert_matches_scalar(seg, scalar_segments(sample, None, 1.0))


def test_pairs_beyond_one_block_match_scalar():
    # more candidate pairs than one block of the stacked solve: the blocks
    # together must give what the scalar solver gives pair by pair
    from flatproc.flat_geometry import BLOCK_ROWS

    spec = FlatProcessSpec(5, 2, 30.0, GrassmannMeasure.isotropic(5, 2, 1.0))
    planes = sample_poisson(spec, 1.2, 310)
    assert len(planes) * (len(planes) - 1) // 2 > BLOCK_ROWS
    assert_matches_scalar(proximity(planes, delta=10.0), scalar_segments(planes, None, 10.0))


def test_small_blocks_match_scalar(monkeypatch):
    # many blocks, the last one partial: pairs and tuples keep their order
    import flatproc.flat_geometry as flat_geometry

    monkeypatch.setattr(flat_geometry, "BLOCK_ROWS", 7)
    spec = FlatProcessSpec(5, 2, 1.0, GrassmannMeasure.isotropic(5, 2, 1.0))
    planes = sample_poisson(spec, 1.6, 311)
    seg = proximity(planes, delta=2.0)
    assert len(seg) > 7
    assert_matches_scalar(seg, scalar_segments(planes, None, 2.0))
    spec = FlatProcessSpec(3, 2, 5.0, GrassmannMeasure.isotropic(3, 2, 1.0))
    sample = sample_poisson(spec, 1.2, 312)
    for order in (2, 3):
        inter = intersections(sample, order=order)
        assert len(inter) > 7
        assert_intersections_match(inter, scalar_intersections(sample, order))
    # lines: screened slabs of one row each, for one sample and across two
    from flatproc.flat_geometry import SCREEN_MIN_PAIRS

    for n, radius in ((3, 4.0), (4, 2.5)):
        spec = FlatProcessSpec(n, 1, 1.0, GrassmannMeasure.isotropic(n, 1, 1.0))
        a, b = sample_poisson(spec, radius, [313, n, 0]), sample_poisson(spec, radius, [313, n, 1])
        assert len(a) * (len(a) - 1) // 2 >= SCREEN_MIN_PAIRS
        for first, second in ((a, None), (a, b), (b, a)):
            seg = proximity(first, second, delta=1.0)
            assert len(seg) > 7
            assert_matches_scalar(seg, scalar_segments(first, second, 1.0))


def test_output_does_not_depend_on_block_size(monkeypatch):
    # candidates of several slabs are solved together: the default block,
    # blocks of 7 pairs and slabs of one row give the same arrays
    import flatproc.flat_geometry as flat_geometry
    from flatproc.flat_geometry import BLOCK_ROWS, SCREEN_MIN_PAIRS

    cases = []
    for n, radius in ((3, 8.0), (4, 2.5)):
        spec = FlatProcessSpec(n, 1, 1.0, GrassmannMeasure.isotropic(n, 1, 1.0))
        a, b = (sample_poisson(spec, radius, [315, n, side]) for side in (0, 1))
        assert len(a) * (len(a) - 1) // 2 >= SCREEN_MIN_PAIRS
        cases += [(a, None), (a, b), (b, a)]
    assert len(cases[0][0]) * (len(cases[0][0]) - 1) // 2 > BLOCK_ROWS  # two slabs
    spec = FlatProcessSpec(5, 2, 1.0, GrassmannMeasure.isotropic(5, 2, 1.0))
    cases.append((sample_poisson(spec, 1.6, 316), None))
    outputs = []
    for block in (BLOCK_ROWS, 7, 1):
        monkeypatch.setattr(flat_geometry, "BLOCK_ROWS", block)
        outputs.append([proximity(first, second, delta=1.0) for first, second in cases])
    for default, *others in zip(*outputs):
        assert len(default) > 7
        for seg in others:
            for name in ("midpoints", "lengths", "directions", "pairs"):
                assert np.array_equal(getattr(seg, name), getattr(default, name))


def test_empty_outputs_keep_shapes_and_dtypes():
    from flatproc.flat_geometry import SCREEN_MIN_PAIRS, pair_segments

    none = FlatSample(3, 1, 1.0, np.zeros((0, 1, 3)), np.zeros((0, 3)), "none")
    one = lines_sample([E[0]], [np.zeros(3)])
    # lines in the planes z = 3i with directions in the xy-plane: every pair
    # is at distance >= 3, so the screen passes on none of them
    theta = 0.1 * np.arange(60)
    far = lines_sample([(np.cos(t), np.sin(t), 0.0) for t in theta],
                       [(0.0, 0.0, 3.0 * i) for i in range(60)], radius=200.0)
    assert len(far) * (len(far) - 1) // 2 >= SCREEN_MIN_PAIRS
    for first, second in ((none, None), (one, None), (far, None), (none, far), (far, none)):
        other = first if second is None else second
        out = pair_segments(first.bases, first.offsets, other.bases, other.offsets,
                            second is None, 1.0)
        assert [(x.shape, x.dtype) for x in out] == [
            ((0, 3), np.float64), ((0,), np.float64), ((0, 3), np.float64), ((0, 2), np.intp)]
        assert len(proximity(first, second, delta=1.0)) == 0


def layout_cases():
    """(first, second) sample pairs for proximity: lines of R^3 and R^4 on
    either side of SCREEN_MIN_PAIRS, single and cross in both orders; 0-,
    1- and 2-line samples; cross calls with an empty side; planes of R^5;
    lines against planes of R^4."""
    none = FlatSample(3, 1, 1.0, np.zeros((0, 1, 3)), np.zeros((0, 3)), "none")
    one = lines_sample([E[0]], [np.zeros(3)])
    two = lines_sample([E[0], E[1]], [np.zeros(3), 0.5 * E[2]])
    cases = [(none, None), (one, None), (two, None), (none, two), (two, none), (one, two)]
    for n, radii in ((3, (1.37, 2.5, 4.5)), (4, (1.3, 2.5))):
        spec = FlatProcessSpec(n, 1, 1.0, GrassmannMeasure.isotropic(n, 1, 1.0))
        for radius in radii:
            a, b = (sample_poisson(spec, radius, [317, n, int(10 * radius), side])
                    for side in (0, 1))
            empty = FlatSample(n, 1, 1.0, np.zeros((0, 1, n)), np.zeros((0, n)), "none")
            cases += [(a, None), (a, b), (b, a), (a, empty)]
    planes = sample_poisson(FlatProcessSpec(5, 2, 1.0, GrassmannMeasure.isotropic(5, 2, 1.0)),
                            1.6, 318)
    lines = sample_poisson(FlatProcessSpec(4, 1, 1.0, GrassmannMeasure.isotropic(4, 1, 1.0)),
                           1.5, 319)
    planes4 = sample_poisson(FlatProcessSpec(4, 2, 0.8, GrassmannMeasure.isotropic(4, 2, 1.0)),
                             1.5, 320)
    return cases + [(planes, None), (lines, planes4), (planes4, lines)]


def test_proximity_outputs_are_c_ordered_read_only_arrays():
    # the digest hashes np.ascontiguousarray of each output, so it cannot
    # see an F-ordered array with the same values: check the container's
    # layout here
    from flatproc.flat_geometry import pair_segments

    kinds = [(2, np.float64), (1, np.float64), (2, np.float64), (2, np.intp)]
    for first, second in layout_cases():
        other = first if second is None else second
        raw = pair_segments(first.bases, first.offsets, other.bases, other.offsets,
                            second is None, 1.0)
        seg = proximity(first, second, delta=1.0)
        outputs = (seg.midpoints, seg.lengths, seg.directions, seg.pairs)
        for arr, out, (ndim, dtype) in zip(raw, outputs, kinds):
            assert arr.ndim == ndim and arr.dtype == dtype
            assert out.flags.c_contiguous and out.dtype == dtype and not out.flags.writeable
            assert arr.shape == out.shape and arr.tobytes() == out.tobytes()
        assert seg.midpoints.shape == seg.directions.shape == (len(seg), first.n)
        assert seg.pairs.shape == (len(seg), 2)


def test_one_slab_table_and_slab_loop_give_the_same_bytes(monkeypatch):
    # an unscreened call of one slab takes its pairs from one cached table;
    # the slab loop with masks (blocks of 7 pairs, slabs of one row) and the
    # screen forced on and off must give the same arrays, layout included
    import flatproc.flat_geometry as flat_geometry

    cases = layout_cases()
    table = flat_geometry._pair_table
    calls = []

    def spy(*key):
        calls.append(key)
        return table(*key)

    monkeypatch.setattr(flat_geometry, "_pair_table", spy)
    settings = [{}, {"BLOCK_ROWS": 7}, {"BLOCK_ROWS": 1}, {"SCREEN_MIN_PAIRS": 0},
                {"SCREEN_MIN_PAIRS": math.inf}, {"SCREEN_MIN_PAIRS": 0, "BLOCK_ROWS": 7}]
    outputs, tabled = [], []
    for setting in settings:
        with monkeypatch.context() as patch:
            for name, value in setting.items():
                patch.setattr(flat_geometry, name, value)
            calls.clear()
            outputs.append([proximity(first, second, delta=1.0) for first, second in cases])
            tabled.append(len(calls))
    # the default reaches the table for every unscreened call but those on at
    # most SMALL_LINE_PAIRS pairs of lines in R^3, which are solved pair by
    # pair; slabs of one row only for calls of at most one row and pair; a
    # forced screen only for flats other than lines
    sizes = [(len(a), len(a) * (len(a) - 1) // 2 if b is None else len(a) * len(b),
              a.k == (a if b is None else b).k == 1) for a, b in cases]
    unscreened = [(rows, count) for (rows, count, lines), (a, _) in zip(sizes, cases)
                  if not lines or (a.n > 3 or count > flat_geometry.SMALL_LINE_PAIRS)
                  and count < flat_geometry.SCREEN_MIN_PAIRS]
    assert tabled[0] == len(unscreened) > tabled[1]
    assert tabled[2] == sum(rows <= 1 and count <= 1 for rows, count in unscreened)
    assert tabled[3] == sum(not lines for _, _, lines in sizes) == 3
    for default, *others in zip(*outputs):
        for seg in others:
            for name in ("midpoints", "lengths", "directions", "pairs"):
                ours, ref = getattr(seg, name), getattr(default, name)
                assert ours.dtype == ref.dtype and ours.shape == ref.shape
                assert ours.flags.c_contiguous
                assert ours.tobytes() == ref.tobytes()
    assert table.cache_info().maxsize == 64


def planted_lines(sample, plant):
    """sample with one line added: "parallel" to the line nearest the origin,
    0.5 from it; "touching" it, through a point of it at a generic angle."""
    i = int(np.argmin(np.linalg.norm(sample.offsets, axis=1)))
    u, a = sample.bases[i, 0], sample.offsets[i]
    normal = complement(Subspace(sample.bases[i])).basis[0]
    if plant == "parallel":
        line = through_point(Subspace(sample.bases[i]), a + 0.5 * normal)
    else:
        line = through_point(Subspace.span(u + normal), a + 0.3 * u)
    return FlatSample(sample.n, 1, sample.radius,
                      np.concatenate([sample.bases, line.direction.basis[None]]),
                      np.concatenate([sample.offsets, line.offset[None]]), "planted")


@pytest.mark.parametrize("n, radius", [(3, 4.5), (4, 2.6)])
def test_screened_blocks_give_the_unscreened_bytes(n, radius, monkeypatch):
    # the screen passes on almost only pairs that the solve keeps, and a
    # block that keeps every candidate skips the compacting takes; a block
    # with a touching pair drops it there, and an exactly parallel pair
    # leaves the block before.  Each gives the bytes of the unscreened call,
    # with default blocks and with blocks of 7 pairs
    import flatproc.flat_geometry as flat_geometry

    spec = FlatProcessSpec(n, 1, 1.0, GrassmannMeasure.isotropic(n, 1, 1.0))
    base = sample_poisson(spec, radius, [340, n])
    norms, solved = flat_geometry.row_norms, []

    def spy(x):  # the length test's lengths: one call per solved block
        out = norms(x)
        solved.append(out.shape[0])
        return out

    settings = [{"SCREEN_MIN_PAIRS": math.inf}, {"BLOCK_ROWS": 7},
                {"SCREEN_MIN_PAIRS": math.inf, "BLOCK_ROWS": 7}]
    for plant, dropped in ((None, 0), ("parallel", 0), ("touching", 1)):
        sample = base if plant is None else planted_lines(base, plant)
        assert len(sample) * (len(sample) - 1) // 2 >= flat_geometry.SCREEN_MIN_PAIRS
        solved.clear()
        with monkeypatch.context() as patch:
            patch.setattr(flat_geometry, "row_norms", spy)
            seg = proximity(sample, delta=1.0)
        assert len(solved) == 1 and solved[0] == len(seg) + dropped
        if plant is not None:  # the planted pair is dropped
            nearest = int(np.argmin(np.linalg.norm(base.offsets, axis=1)))
            assert [nearest, len(base)] not in seg.pairs.tolist()
        for setting in settings:
            with monkeypatch.context() as patch:
                for name, value in setting.items():
                    patch.setattr(flat_geometry, name, value)
                other = proximity(sample, delta=1.0)
            for name in ("midpoints", "lengths", "directions", "pairs"):
                ours, ref = getattr(other, name), getattr(seg, name)
                assert ours.dtype == ref.dtype and ours.shape == ref.shape
                assert ours.flags.c_contiguous and ours.tobytes() == ref.tobytes()


def test_outputs_share_no_memory_with_the_pair_table():
    # an unscreened call of one slab reads its pairs from a cached read-only
    # table; the (1, 2) transpose of a one-pair table is contiguous, so an
    # output that took it as it is would be that table
    import flatproc.flat_geometry as flat_geometry
    from flatproc.flat_geometry import pair_segments

    one_pair = 0
    for first, second in layout_cases():
        other = first if second is None else second
        raw = pair_segments(first.bases, first.offsets, other.bases, other.offsets,
                            second is None, 1.0)
        seg = proximity(first, second, delta=1.0)
        table = flat_geometry._pair_table(len(first), len(other), second is None)
        one_pair += table.shape[1] == 1 and len(seg) == 1
        for arr in (*raw, seg.midpoints, seg.lengths, seg.directions, seg.pairs):
            assert not np.shares_memory(arr, table)
    assert one_pair == 1  # the two-line sample


def test_zero_leading_direction_coordinates_walk_like_scalar():
    # lines with directions in span(e1, e2) at different heights: the common
    # perpendicular of each pair is +-e3, whose first two coordinates are 0
    # or within round-off of 0, so the sign walks past them; some pairs of
    # generic lines go in the same blocks
    from flatproc.flat_geometry import _sign_rows

    rng = np.random.default_rng(321)
    theta = rng.uniform(0.0, np.pi, 12)
    directions = [np.array([np.cos(t), np.sin(t), 0.0]) for t in theta]
    points = [np.array([*rng.uniform(-0.5, 0.5, 2), z]) for z in rng.uniform(-0.4, 0.4, 12)]
    directions += list(rng.standard_normal((6, 3)))
    points += list(rng.uniform(-0.5, 0.5, (6, 3)))
    sample = lines_sample([d / np.linalg.norm(d) for d in directions], points)
    seg = proximity(sample, delta=1.0)
    lead = np.abs(seg.directions[:, 0])
    assert np.count_nonzero(lead <= 1e-12) >= 20 and np.count_nonzero(lead > 1e-12) >= 5
    assert np.all(seg.directions[lead <= 1e-12, 2] > 0)
    assert_matches_scalar(seg, scalar_segments(sample, None, 1.0))
    # each block's signs as canonical_units gives them row by row
    rows = seg.directions * np.where(np.arange(len(seg)) % 2, -1.0, 1.0)[:, None]
    assert np.array_equal(_sign_rows(rows.copy()),
                          np.concatenate([canonical_units(r[None]) for r in rows]))


def test_touch_cut_reads_the_larger_offset_norm():
    # lines 5e-12 apart near p = 1000 e3, one with offset p (norm 1000), the
    # other nearly along p (offset norm about 10): the cut of the larger
    # norm, (n + 58) eps 1000 = 1.4e-11, drops the pair, as closest_pair
    # does; that of the smaller norm, 1e-12, would keep it
    t = 0.01
    tilted = np.array([np.sin(t), 0.0, np.cos(t)])
    normal = np.cross(E[1], tilted)
    p = 1000.0 * E[2]
    sample = lines_sample([E[1], tilted, E[0]], [p, p + 5e-12 * normal, 0.3 * E[1]],
                          radius=1001.0)
    assert np.linalg.norm(sample.offsets[1]) < 20.0
    ref = scalar_segments(sample, None, 1.0)
    assert (0, 1) not in ref and len(ref) == 1
    assert_matches_scalar(proximity(sample, delta=1.0), ref)
    first, second = (lines_sample([d], [x], radius=1001.0)
                     for d, x in ((E[1], p), (tilted, p + 5e-12 * normal)))
    for a, b in ((first, second), (second, first)):
        assert len(proximity(a, b, delta=1.0)) == 0 and scalar_segments(a, b, 1.0) == {}


def test_folded_touch_cut_equals_touch_cut_bit_for_bit():
    # pair_segments reads the larger of the two flats' _touch_scale over the
    # volume: the cut of the larger offset norm, reach below 1 included
    from flatproc.flat_geometry import _touch_cut, _touch_scale

    rng = np.random.default_rng(322)
    norms = np.concatenate([rng.uniform(0.0, 1.0, 4000), 1.0 + rng.uniform(-1e-12, 1e-12, 2000),
                            10.0 ** rng.uniform(-3, 4, 4000), [0.0, 1.0, 1.0, 2.5, 2.5]])
    i, j = rng.integers(0, norms.size, (2, 50_000))
    volume = 10.0 ** rng.uniform(-10, 0, 50_000)
    for n in (3, 4, 8):
        folded = np.maximum(np.maximum(_touch_scale(norms, n)[i], _touch_scale(norms, n)[j])
                            / volume, 1e-12)
        reach = np.maximum(norms[i], norms[j])
        assert np.array_equal(folded, _touch_cut(reach, volume, n))
        # and the cut's formula written out in one expression
        assert np.array_equal(
            folded, np.maximum((n + 58) * 2.0 ** -53 * np.maximum(reach, 1.0) / volume, 1e-12))


def test_large_line_window_matches_brute_force():
    # a radius-16.5 window of about 850 lines (mean pi 16.5^2 = 855), as in
    # the large-window checks, against the distance formula for skew lines
    # in R^3, |(a_i - a_j) . (u_i x u_j)| / |u_i x u_j|, over all pairs at once
    spec = FlatProcessSpec(3, 1, 1.0, GrassmannMeasure.isotropic(3, 1, 1.0))
    sample = sample_poisson(spec, 16.5, 314)
    assert 750 <= len(sample) <= 950
    seg = proximity(sample, delta=1.0)
    u, a = sample.bases[:, 0, :], sample.offsets
    i, j = np.triu_indices(len(sample), k=1)
    cross = np.cross(u[i], u[j])
    norm = np.linalg.norm(cross, axis=1)
    ok = norm > 1e-10
    gap = np.abs(np.einsum("mn,mn->m", a[i][ok] - a[j][ok], cross[ok])) / norm[ok]
    keep = (gap > 1e-12) & (gap <= 1.0)
    assert seg.pairs.tolist() == np.stack([i[ok][keep], j[ok][keep]], axis=1).tolist()
    assert np.max(np.abs(seg.lengths - gap[keep])) <= 1e-10


def test_proximity_mixed_dimension_cross_samples():
    # lines against planes in R^4, in both orders, against the scalar solver
    spec1 = FlatProcessSpec(4, 1, 1.0, GrassmannMeasure.isotropic(4, 1, 1.0))
    spec2 = FlatProcessSpec(4, 2, 0.8, GrassmannMeasure.isotropic(4, 2, 1.0))
    lines = sample_poisson(spec1, 1.5, 148)
    planes = sample_poisson(spec2, 1.5, 149)
    for a, b in ((lines, planes), (planes, lines)):
        seg = proximity(a, b, delta=2.0)
        assert len(seg) > 0
        assert_matches_scalar(seg, scalar_segments(a, b, 2.0))


EPS = 2.0 ** -53
# (n, k1, k2) of the projection solve: flats against flats and lines against
# flats, k1 = k2 and k1 < k2 (whose reversed calls put the larger flat as E)
PROJECTION_CASES = [(4, 1, 2), (5, 2, 2), (5, 1, 3), (6, 2, 3), (7, 3, 3), (6, 2, 2)]


def pair_terms(first, second, pairs):
    """Per pair (i, j) of the stacks first and second: the Gram volume
    V = [E, F], the reach R = max(|a|, |b|, 1) and the touch cut."""
    from flatproc.flat_geometry import _touch_cut, gram_volumes

    i, j = pairs.T
    volume = gram_volumes(np.concatenate([first.bases[i], second.bases[j]], axis=1))
    reach = np.maximum(np.linalg.norm(first.offsets[i], axis=1),
                       np.linalg.norm(second.offsets[j], axis=1))
    return volume, np.maximum(reach, 1.0), _touch_cut(reach, np.maximum(volume, 1e-300), first.n)


def assert_matches_gram_oracle(first, second, delta):
    """pair_segments on one sample (second None) or on two, against the
    stacked Gram solve it replaced (`gram_pair_segments`).

    Bounds, first order in eps = 2^-53, with V = [E, F] = prod sin(theta_i)
    over the principal angles (so V <= sin(theta_1)), R = max(|a|, |b|, 1),
    |d| = |a - b| <= 2R and K = k1 + k2.  The oracle solves the normal
    equations G w = -B d of the stacked rows B = [B_E; -B_F], G = B B^T.
    G's eigenvalues are 1 +- cos(theta_i) and 1, so |G^-1| <= 1 / (1 -
    cos(theta_1)) <= 2 / V^2; sigma_min(B) >= V / sqrt(2), so |w| <= sqrt(2)
    |d| / V.  Forming G and B d errs by n eps an entry, |dG| <= K n eps and
    |d(B d)| <= sqrt(K) n eps |d|, so |dw| <= (2 / V^2) K n eps (sqrt(2) / V
    + 1) |d| <= 5 K n eps |d| / V^3 <= 10 K n eps R / V^3.  A midpoint moves
    by at most |dw|.  The gap d + B^T w moves by |B^T G^-1 e| <= (sqrt(2) /
    V) |e| for the same residual e: at most 3.5 K n eps |d| / V^2 <= 7 K n
    eps R / V^2, and so does a length.  The projection solve is backward
    stable: its own error, O(n eps R / V^2) for a midpoint and O(n eps R /
    V) for a length, is a factor V below the oracle's.  Bounds: 12 K n eps
    R / V^3 for midpoints, 8 K n eps R / V^2 for lengths and gap rows, and
    twice the gap's over the length for directions.  A pair in one output
    only lies within its length bound of delta, or of the touch cut widened
    by the oracle's relative volume error K n eps / V^2, or has a volume
    within sqrt(K n eps), the resolution of sqrt(det G), of
    GENERAL_POSITION_TOL."""
    from flatproc.flat_geometry import GENERAL_POSITION_TOL, pair_segments

    from _reference import gram_pair_segments

    other = first if second is None else second
    args = (first.bases, first.offsets, other.bases, other.offsets, second is None, delta)
    outputs = pair_segments(*args), gram_pair_segments(*args)
    (mids, lengths, dirs, pairs), (ref_mids, ref_lengths, ref_dirs, ref_pairs) = outputs
    n, k = first.n, first.k + other.k
    found = {key: row for row, key in enumerate(map(tuple, pairs.tolist()))}
    expected = {key: row for row, key in enumerate(map(tuple, ref_pairs.tolist()))}
    both = [key for key in expected if key in found]
    assert both == [key for key in found if key in expected]  # one order
    new, ref = [found[key] for key in both], [expected[key] for key in both]
    volume, reach, _ = pair_terms(first, other, ref_pairs[ref])
    length_bound = 8 * k * n * EPS * reach / volume ** 2
    assert np.all(np.abs(lengths[new] - ref_lengths[ref]) <= length_bound)
    assert np.all(np.abs(mids[new] - ref_mids[ref]).max(axis=1)
                  <= 12 * k * n * EPS * reach / volume ** 3)
    assert np.all(np.abs(dirs[new] - ref_dirs[ref]).max(axis=1)
                  <= 2 * length_bound / ref_lengths[ref])
    for keys, rows, source in ((set(found) - set(expected), found, lengths),
                               (set(expected) - set(found), expected, ref_lengths)):
        for key in keys:
            v, r, cut = (x[0] for x in pair_terms(first, other, np.array([key])))
            length, bound = source[rows[key]], 8 * k * n * EPS * r / max(v, 1e-300) ** 2
            assert (abs(length - delta) <= bound
                    or abs(length - cut) <= bound + cut * k * n * EPS / max(v, 1e-300) ** 2
                    or abs(v - GENERAL_POSITION_TOL) <= math.sqrt(k * n * EPS)), key
    return len(both)


def isotropic_spec(n, k):
    return FlatProcessSpec(n, k, 1.0, GrassmannMeasure.isotropic(n, k, 1.0))


@pytest.mark.parametrize("n, k1, k2", PROJECTION_CASES)
def test_projection_solve_matches_the_gram_oracle(n, k1, k2):
    # single calls on each sample whose flats pair (2k < n), and cross calls
    # in both orders, so that E is the smaller flat in one and the larger in
    # the other
    for seed in range(3):
        a = sample_poisson(isotropic_spec(n, k1), 2.0, [960, n, k1, k2, seed, 0])
        b = sample_poisson(isotropic_spec(n, k2), 2.0, [960, n, k1, k2, seed, 1])
        calls = [(x, None) for x in (a, b) if 2 * x.k < n] + [(a, b), (b, a)]
        for first, second in calls:
            assert assert_matches_gram_oracle(first, second, 1.5) > 0


def test_projection_solve_matches_the_gram_oracle_beyond_one_block():
    # planes of R^5 at radius 4.5: 379 planes, 71,631 pairs, solved in five
    # blocks
    from flatproc.flat_geometry import BLOCK_ROWS

    planes = sample_poisson(isotropic_spec(5, 2), 4.5, [961])
    assert len(planes) * (len(planes) - 1) // 2 > 3 * BLOCK_ROWS
    assert assert_matches_gram_oracle(planes, None, 1.0) > BLOCK_ROWS


def test_projection_solve_does_not_depend_on_block_size(monkeypatch):
    # single calls and cross calls in both orders,
    # at the default block and blocks of 7, 2 and 1 pairs: the same arrays.
    # At block 1 a single call's last slab holds one pair, which the solve
    # takes as two columns
    import flatproc.flat_geometry as flat_geometry
    from flatproc.flat_geometry import BLOCK_ROWS

    calls = []
    for n, k1, k2 in PROJECTION_CASES:
        a = sample_poisson(isotropic_spec(n, k1), 1.6, [964, n, k1, k2, 0])
        b = sample_poisson(isotropic_spec(n, k2), 1.6, [964, n, k1, k2, 1])
        calls += [(x, None) for x in (a, b) if 2 * x.k < n] + [(a, b), (b, a)]
    outputs = []
    for block in (BLOCK_ROWS, 7, 2, 1):
        monkeypatch.setattr(flat_geometry, "BLOCK_ROWS", block)
        outputs.append([proximity(first, second, delta=1.5) for first, second in calls])
    for default, *others in zip(*outputs):
        assert len(default) > 2
        for seg in others:
            for name in ("midpoints", "lengths", "directions", "pairs"):
                assert np.array_equal(getattr(seg, name), getattr(default, name))


def test_projection_solve_on_empty_and_one_flat_samples():
    # no pairs, and no rows on one side: empty arrays of the usual shapes
    planes = sample_poisson(isotropic_spec(5, 2), 1.6, [965])
    lines = sample_poisson(isotropic_spec(5, 1), 1.6, [965, 1])
    assert len(planes) > 2 and len(lines) > 2
    for count in (0, 1):
        few = FlatSample(5, 2, planes.radius, planes.bases[:count], planes.offsets[:count], "few")
        for first, second in ((few, None), (few, planes), (planes, few), (few, lines),
                              (lines, few)):
            seg = proximity(first, second, delta=10.0)
            if count == 0 or second is None:
                assert len(seg) == 0
            assert seg.midpoints.shape == (len(seg), 5) and seg.pairs.shape == (len(seg), 2)


def planted_flat(rows, point, rotation):
    """The flat spanned by the rotated rows through the rotated point."""
    return through_point(Subspace(rows @ rotation.T), rotation @ point)


@pytest.mark.parametrize("volume", [1e-9, 1e-7, 1e-5, 1e-3, 1e-2])
def test_projection_lengths_match_an_svd_projection_on_planted_plane_pairs(volume):
    # planes of R^5: E = span(e1, e2) and F = span(cos(t) e1 + sin(t) e3,
    # e4), sin(t) = volume = [E, F], each basis turned within its plane, the
    # pair rotated, through points a common shift away (|shift| up to 1e6)
    # and h e5 apart, h above the touch cut.  The length is |N d| for the
    # complement row N of the stacked bases by a full SVD.  Each solve
    # projects d off E + F: the projection's rows W err by (k2 + 1) n eps, so
    # Q turns by about 3 n eps / V and Q Q^T d moves by 6 n eps |d| / V; the
    # SVD's complement turns by about 2 n eps / sigma_min, sigma_min >= V /
    # sqrt(2), moving |N d| by 3 n eps |d| / V; with the plain rounding of
    # the projections: 10 n eps max(|d|, 1) / V
    from flatproc.flat_geometry import pair_segments

    from _reference import random_rotation, svd_complement_bases

    n, e = 5, np.eye(5)
    rng = np.random.default_rng([962, round(-math.log10(volume))])
    cos_t = math.sqrt(1.0 - volume * volume)
    for shift in (0.0, 1.0, 1e3, 1e6):
        firsts, seconds = [], []
        for _ in range(5):
            rotation = random_rotation(n, rng)
            turn_e, turn_f = random_rotation(2, rng), random_rotation(2, rng)
            common = shift * rng.standard_normal(n) / math.sqrt(n)
            cut = (n + 58) * EPS * max(2 * shift, 1.0) / volume
            h = max(1.0, 100 * cut) * rng.uniform(1.0, 2.0)
            within = rng.uniform(-1, 1, (2, n)) * [1, 1, 1, 1, 0]  # in E + F
            firsts.append(planted_flat(turn_e @ e[:2], common + within[0], rotation))
            seconds.append(planted_flat(turn_f @ np.stack([cos_t * e[0] + volume * e[2], e[3]]),
                                        common + within[1] + h * e[4], rotation))
        for side, other in ((firsts, seconds), (seconds, firsts)):
            bases_a = np.stack([f.direction.basis for f in side])
            bases_b = np.stack([f.direction.basis for f in other])
            offs_a = np.stack([f.offset for f in side])
            offs_b = np.stack([f.offset for f in other])
            i = np.arange(len(side))
            mids, lengths, dirs, pairs = pair_segments(bases_a, offs_a, bases_b, offs_b,
                                                       False, math.inf)
            diagonal = pairs[:, 0] == pairs[:, 1]
            assert pairs[diagonal, 0].tolist() == i.tolist()  # every planted pair kept
            normal = svd_complement_bases(np.concatenate([bases_a, bases_b], axis=1))[:, 0]
            gap = offs_a - offs_b
            expected = np.abs(np.einsum("mn,mn->m", normal, gap))
            bound = 10 * n * EPS * np.maximum(np.linalg.norm(gap, axis=1), 1.0) / volume
            assert np.all(np.abs(lengths[diagonal] - expected) <= bound)


@pytest.mark.parametrize("n, k1, k2", [(4, 1, 2), (5, 2, 2), (6, 2, 3)])
def test_planted_pairs_that_share_a_direction_are_dropped(n, k1, k2):
    # E and F share the direction s, which neither basis holds as a row: each
    # basis is turned within its span.  The residual of E's basis off F then
    # has rank k1 - 1 and its Gram-Schmidt volume reads about eps, below
    # GENERAL_POSITION_TOL, in both orders; so does the Householder volume of
    # the reference closest_pair, which drops the pair too.  Control: s
    # tilted by 1e-3 in F gives a pair in general position, which both keep
    from flatproc.flat_geometry import DegeneratePairError, closest_pair, pair_segments

    from _reference import random_rotation

    rng = np.random.default_rng([963, n, k1, k2])
    e = np.eye(n)
    for tilt, kept in ((0.0, 0), (1e-3, 1)):
        for _ in range(10):
            rotation = random_rotation(n, rng)
            shared = math.sqrt(1.0 - tilt * tilt) * e[0] + tilt * e[n - 1]
            rows_e = random_rotation(k1, rng) @ e[:k1] if k1 > 1 else e[:1]
            rows_f = np.concatenate([shared[None], e[k1:k1 + k2 - 1]])
            rows_f = random_rotation(k2, rng) @ rows_f
            flats = [planted_flat(rows, rng.uniform(-1, 1, n), rotation)
                     for rows in (rows_e, rows_f)]
            stacks = [(f.direction.basis[None], f.offset[None]) for f in flats]
            for (bases_a, offs_a), (bases_b, offs_b) in (stacks, stacks[::-1]):
                out = pair_segments(bases_a, offs_a, bases_b, offs_b, False, math.inf)
                assert len(out[1]) == kept
            for first, second in (flats, flats[::-1]):
                if kept:
                    assert closest_pair(first, second).length == pytest.approx(
                        out[1][0], rel=1e-9)
                else:
                    with pytest.raises(DegeneratePairError):
                        closest_pair(first, second)


def test_translation_equivariance_exact():
    spec = FlatProcessSpec(3, 1, 1.0, GrassmannMeasure.isotropic(3, 1, 1.0))
    sample = sample_poisson(spec, 2.0, 44)
    z = np.array([0.25, -1.0, 0.5])
    shifted = translate(sample, z)
    seg = proximity(sample, delta=1.0)
    seg_shifted = proximity(shifted, delta=1.0)
    assert len(seg) == len(seg_shifted)
    assert np.allclose(seg_shifted.midpoints, seg.midpoints + z, atol=1e-9)
    assert seg_shifted.lengths == pytest.approx(seg.lengths, abs=1e-10)
    assert np.allclose(seg_shifted.directions, seg.directions, atol=1e-9)


def test_enumeration_complete_when_window_doubles():
    # restrict one realization sampled in a doubled window to the required
    # window; the qualifying segment set with midpoint in A must not change
    spec = FlatProcessSpec(3, 1, 1.5, GrassmannMeasure.isotropic(3, 1, 1.0))
    window = WindowDescriptor.unit_cube(3)
    delta = 1.0
    needed = window.circumradius() + delta / 2.0
    for i in range(100):
        big = sample_poisson(spec, 2.0 * needed, [45, i])
        keep = np.linalg.norm(big.offsets, axis=1) <= needed
        small = FlatSample(3, 1, needed, big.bases[keep], big.offsets[keep], big.seed)
        def qualifying(sample):
            seg = proximity(sample, delta=delta)
            keep = window.contains(seg.midpoints) if len(seg) else np.zeros(0, bool)
            return sorted(np.round(seg.lengths[keep], 10).tolist())
        assert qualifying(big) == qualifying(small)


def test_intersections_two_planes_line():
    planes = FlatSample(
        3, 2, 2.0,
        np.stack([E[:2], np.stack([E[0], E[2]])]),
        np.stack([0.3 * E[2], -0.2 * E[1]]), "x")
    inter = intersections(planes, order=2)
    assert inter.q == 1 and len(inter) == 1
    line = inter.flats[0]
    for flat in planes.flats:
        assert contains_flat(flat, line, tol=1e-8)


def test_intersections_parallel_hyperplanes_empty():
    planes = FlatSample(3, 2, 3.0, np.stack([E[:2]] * 3),
                        np.stack([0.1 * E[2], 0.7 * E[2], 1.4 * E[2]]), "x")
    inter = intersections(planes, order=2)
    assert len(inter) == 0


def test_intersections_three_hyperplanes_point():
    flats = [through_point(Subspace(E[:2]), 0.2 * E[2]),
             through_point(Subspace(E[1:]), 0.1 * E[0]),
             through_point(Subspace(E[[0, 2]]), -0.3 * E[1])]
    sample = FlatSample(3, 2, 1.0, np.stack([f.direction.basis for f in flats]),
                        np.stack([f.offset for f in flats]), "x")
    inter = intersections(sample, order=3)
    assert inter.q == 0 and len(inter) == 1
    # 3x3 solve oracle
    assert np.allclose(inter.flats[0].offset, [0.1, -0.3, 0.2], atol=1e-12)


def test_intersections_across_independent_samples():
    spec = FlatProcessSpec(3, 2, 1.0, GrassmannMeasure.isotropic(3, 2, 1.0))
    a = sample_poisson(spec, 1.0, 46)
    b = sample_poisson(spec, 1.0, 47)
    inter = intersections([a, b])
    assert inter.q == 1
    for flat, (i, j) in zip(inter.flats, inter.tuples):
        assert contains_flat(a.flats[i], flat, tol=1e-8)
        assert contains_flat(b.flats[j], flat, tol=1e-8)


def test_sample_flats_are_views_of_the_checked_stack():
    # FlatSample.flats and IntersectionSample.flats wrap the rows of the
    # basis and offset stacks that the sample checked when it was made
    from flatproc.derived_processes import IntersectionSample

    spec = FlatProcessSpec(3, 2, 3.0, GrassmannMeasure.isotropic(3, 2, 1.0))
    sample = sample_poisson(spec, 1.5, 323)
    inter = intersections(sample, order=2)
    for source in (sample, inter):
        assert len(source.flats) == len(source) > 3
        for flat, basis, offset in zip(source.flats, source.bases, source.offsets):
            assert np.array_equal(flat.direction.basis, basis)
            assert flat.direction.basis.base is source.flats[0].direction.basis.base
            assert np.array_equal(flat.direction.projector(), Subspace(basis).projector())
            assert np.array_equal(flat.offset, offset) and not flat.offset.flags.writeable
    # rows 3e-10 off orthonormal and an offset 1e-12 off orthogonal: both
    # samples reject them when they are made
    tilted = np.array([[E[0]], [[0.0, 1.0 + 3e-10, 0.0]]])
    leaning = np.array([[1e-12, 0.0, 0.0], [0.0, 0.0, 5e-10]])
    cases = [(tilted, np.zeros((2, 3)), "not orthonormal"),
             (E[:2, None], leaning, "not orthogonal")]
    for bases, offsets, message in cases:
        with pytest.raises(ValueError, match=message):
            FlatSample(3, 1, 2.0, bases, offsets, "x")
        with pytest.raises(ValueError, match=message):
            IntersectionSample(3, 1, bases, offsets, np.zeros((2, 2), dtype=int))


@pytest.mark.parametrize("bases, offsets, tuples, message", [
    (np.array([[E[0]], [[0.0, 1.0 + 3e-10, 0.0]]]), np.zeros((2, 3)), np.zeros((2, 2), int),
     "basis rows are not orthonormal"),                      # a row 3e-10 off unit length
    (E[:2, None], np.array([[5e-10, 0.3, 0.0], [0.0, 0.0, 0.4]]), np.zeros((2, 2), int),
     "offset is not orthogonal"),                             # an offset 5e-10 off E[0]'s complement
    (E[:2, None], np.array([[0.0, np.nan, 0.0], [0.0, 0.0, 0.4]]), np.zeros((2, 2), int),
     "offset is not orthogonal"),                             # NaN
    (E[:2, None], np.zeros((2, 3)), np.zeros((3, 2), int),
     "one row of generator indices per intersection flat"),  # three tuples, two flats
    (E[:2, None], np.zeros((2, 3)), np.zeros(2, int),
     "one row of generator indices per intersection flat"),  # tuples not 2-D
])
def test_intersection_sample_checks_its_stacks_when_it_is_made(bases, offsets, tuples, message):
    from flatproc.derived_processes import IntersectionSample

    with pytest.raises(ValueError, match=message):
        IntersectionSample(3, 1, bases, offsets, tuples)
    IntersectionSample(3, 1, E[:2, None], np.zeros((2, 3)), np.zeros((2, 2), int))


@pytest.mark.parametrize("bases, offsets, message", [
    (E[None, :2], np.zeros((1, 3)), r"bases must be .* = \(m, 1, 3\) stack, got shape \(1, 2, 3"),
    (np.eye(4)[None, :1], np.zeros((1, 4)), r"bases must be .* got shape \(1, 1, 4\)"),
    (E[0], np.zeros((1, 3)), r"bases must be .* got shape \(3,\)"),
    (E[None, :1], np.zeros((2, 3)), r"offsets must be .* = \(1, 3\) stack, got shape \(2, 3\)"),
])
def test_intersection_sample_rejects_stacks_of_the_wrong_shape(bases, offsets, message):
    # two orthonormal rows for a 1-flat, rows of R^4 at n = 3 and 1-D bases
    # each constructed or failed inside numpy, as did two offsets for one
    # basis: each is one ValueError now, raised before any other check
    from flatproc.derived_processes import IntersectionSample

    with pytest.raises(ValueError, match=message):
        IntersectionSample(3, 1, bases, offsets, np.zeros((len(offsets), 2), int))


@pytest.fixture
def orthonormal_checks(monkeypatch):
    """Arguments of every `check_orthonormal` call, through each module that calls it."""
    from flatproc import derived_processes, flat_geometry, measures, simulator

    calls, check = [], flat_geometry.check_orthonormal
    for module in (flat_geometry, simulator, measures, derived_processes):
        monkeypatch.setattr(module, "check_orthonormal",
                            lambda *args: calls.append(args) or check(*args))
    return calls


def test_views_check_nothing_and_intersections_of_a_sample_check_once(orthonormal_checks):
    from flatproc.measures import integrate, t_lift

    spec = FlatProcessSpec(3, 2, 3.0, GrassmannMeasure.isotropic(3, 2, 1.0))
    sample = sample_poisson(spec, 1.5, 333)
    for r in (2, 3):
        orthonormal_checks.clear()
        inter = intersections(sample, order=r)
        assert len(orthonormal_checks) == 1 and len(inter) > 0
        orthonormal_checks.clear()
        assert len(inter.flats) == len(inter)
        assert orthonormal_checks == []
    atoms = GrassmannMeasure(3, 2, sample.bases, np.ones(len(sample)))
    mixture = t_lift(GrassmannMeasure(3, 2, sample.bases, np.ones(len(sample))))  # own atoms
    orthonormal_checks.clear()
    assert len(sample.flats) == len(atoms.atoms) == len(mixture.subspheres) == len(sample) > 3
    integrate(GrassmannMeasure.isotropic(4, 2, 1.0), lambda sub: sub.k, rng=334, samples=50)
    assert orthonormal_checks == []


@pytest.mark.parametrize("r", [2, 3])
def test_intersections_take_one_complement_per_sample(monkeypatch, r):
    from flatproc import flat_geometry
    from flatproc.flat_geometry import subset_indices, tuple_intersections

    spec = FlatProcessSpec(3, 2, 3.0, GrassmannMeasure.isotropic(3, 2, 1.0))
    samples = [sample_poisson(spec, 1.5, [335, i]) for i in range(r)]
    calls, complements = [], flat_geometry.complement_bases
    monkeypatch.setattr(flat_geometry, "complement_bases",
                        lambda bases: calls.append(bases.shape) or complements(bases))
    single = intersections(samples[0], order=r)
    assert len(calls) == 1 and len(single) > 0
    calls.clear()
    assert len(intersections(samples)) > 0 and len(calls) == r
    # the lone stack serves every position: r copies of it give the same bits
    s = samples[0]
    copies = tuple_intersections([s.bases] * r, [s.offsets] * r, subset_indices(len(s), r))
    assert [a.tobytes() for a in copies] == [single.bases.tobytes(), single.offsets.tobytes(),
                                             single.tuples.tobytes()]


@pytest.mark.parametrize("case", ["no samples", "one sample in a list", "two n", "order 0",
                                  "order -1", "order 1", "order 2.0", "order True",
                                  "order 2.0 with a list", "order 3 with two samples"])
def test_intersections_reject_a_bad_order_or_sample_list(case):
    planes = sample_poisson(FlatProcessSpec(3, 2, 3.0, GrassmannMeasure.isotropic(3, 2, 1.0)),
                            1.0, 336)
    solids = sample_poisson(FlatProcessSpec(4, 3, 3.0, GrassmannMeasure.isotropic(4, 3, 1.0)),
                            1.0, 337)
    samples, order, message = {
        "no samples": ([], None, "samples must be at least 2"),
        "one sample in a list": ([planes], None, "samples must be at least 2"),
        "two n": ([planes, solids], None, "samples must be at least 2 flat samples of one"),
        "order 0": (planes, 0, "order must be an integer >= 2, got order=0"),
        "order -1": (planes, -1, "order must be an integer >= 2, got order=-1"),
        "order 1": (planes, 1, "order must be an integer >= 2, got order=1"),
        "order 2.0": (planes, 2.0, "order must be an integer >= 2, got order=2.0"),
        "order True": (planes, True, "order must be an integer >= 2, got order=True"),
        "order 2.0 with a list": ([planes, planes], 2.0, "order must be an integer >= 2"),
        "order 3 with two samples": ([planes, planes], 3, "order must match the number"),
    }[case]
    with pytest.raises(ValueError, match=f"^{message}"):
        intersections(samples, order=order)


def test_near_parallel_plane_pairs_give_their_intersection_flats():
    # planes of R^3 whose normals meet at angles log-uniform in [1e-9, 1e-5]
    # cut in a line up to 2 / angle away; its offset's round-off along the
    # line grows with that distance, and every kept line still is a Flat
    rng = np.random.default_rng(329)
    kept, far = 0, 0.0
    for angle in 10.0 ** rng.uniform(-9.0, -5.0, 250):
        normal, tilt = haar_bases(1, 3, 2, rng)[0]
        normals = np.array([normal, math.cos(angle) * normal + math.sin(angle) * tilt])
        bases = complement_bases(normals[:, None])
        offsets = rng.uniform(-1.0, 1.0, (2, 1)) * normals
        inter = intersections(FlatSample(3, 2, 1.0, bases, offsets, "x"), order=2)
        for flat, basis, offset in zip(inter.flats, inter.bases, inter.offsets):
            assert np.array_equal(flat.direction.basis, basis)
            assert np.array_equal(flat.offset, offset)
        kept += len(inter)
        far = max(far, np.linalg.norm(inter.offsets, axis=1).max(initial=0.0))
    assert kept > 200 and far > 1e8


def caller_arrays(kind):
    """Arrays a caller hands to the containers, as (given, owner) pairs:
    given is passed in, and the caller can write through owner afterwards,
    setting its writeable flag back to True where the caller cleared it."""
    values = (E[:2, None], np.array([[0.0, 0.5, 0.0], [0.0, 0.0, 0.5]]), np.zeros((1, 3)),
              np.array([0.5]), E[:1], np.array([[0, 1]]), np.array([[0, 1], [1, 0]]),
              np.array([0.5, 0.0, 0.5]))
    out = []
    for value in values:
        owner = np.array(value, order="F" if kind == "F-ordered" else "C")
        given = owner.view() if "view" in kind else owner
        if kind in ("read-only", "read-only view of read-only memory"):
            owner.flags.writeable = False
        if "read-only" in kind:
            given.flags.writeable = False
        out.append((given, owner))
    return out


def test_containers_keep_their_own_copy_of_a_callers_arrays():
    # each container holds a read-only C-ordered copy of its own: a caller
    # who writes through the arrays it passed, or through the memory they
    # view, after setting a cleared writeable flag back to True, changes
    # nothing a container checked
    from flatproc.derived_processes import IntersectionSample
    from flatproc.simulator import FactorialDistribution

    for kind in ("writable", "F-ordered", "read-only", "read-only view of writable memory",
                 "read-only view of read-only memory"):
        arrays = caller_arrays(kind)
        (bases, offsets, midpoints, lengths, directions, pairs, tuples,
         probabilities) = (given for given, _ in arrays)
        held = [FlatSample(3, 1, 1.0, bases, offsets, "x"),
                IntersectionSample(3, 1, bases, offsets, tuples),
                SegmentProcessSample(3, 1.0, 1.0, midpoints, lengths, directions, pairs),
                subspace_views(bases),
                FactorialDistribution(2, probabilities)]
        before = [copy_arrays(h) for h in held]
        callers = [arr for pair in arrays for arr in pair]
        for _, owner in arrays:
            owner.flags.writeable = True
            owner[...] = 5
        assert [copy_arrays(h) for h in held] == before, kind
        for a in (a for h in held for a in arrays_of(h)):
            assert a.flags.c_contiguous and not a.flags.writeable, kind
            assert not any(np.shares_memory(a, b) for b in callers), kind


def test_read_only_view_of_writable_memory_is_copied():
    # clearing a view's writeable flag leaves the array it views writable: a
    # sample built from such a view takes its own copy
    bases = E[:2, None].copy()
    offsets = np.array([[0.0, 0.5, 0.0], [0.0, 0.0, 0.5]])
    view = offsets.view()
    view.flags.writeable = False
    sample = FlatSample(3, 1, 1.0, bases, view, "x")
    assert not np.shares_memory(sample.offsets, offsets)
    offsets[...] = 5.0
    assert sample.offsets.tolist() == [[0.0, 0.5, 0.0], [0.0, 0.0, 0.5]]


def arrays_of(held):
    if isinstance(held, tuple):
        return [view.basis for view in held]
    return [v for v in vars(held).values() if isinstance(v, np.ndarray)]


def copy_arrays(held):
    return [(a.tobytes(), a.flags.writeable) for a in arrays_of(held)]


def scalar_intersections(samples, order=None):
    """Reference intersections: intersect_flats on every tuple, one at a time."""
    from itertools import combinations, product

    from _reference import intersect_flats
    from flatproc.flat_geometry import DegeneratePairError

    if order is None:
        flat_lists = [s.flats for s in samples]
        tuples = product(*[range(len(s)) for s in samples])
    else:
        flat_lists = [samples.flats] * order
        tuples = combinations(range(len(samples)), order)
    out = {}
    for idx in tuples:
        try:
            out[idx] = intersect_flats([flat_lists[p][i] for p, i in enumerate(idx)])
        except DegeneratePairError:
            continue
    return out


def assert_intersections_match(inter, ref):
    tuples = list(map(tuple, inter.tuples.tolist()))
    assert sorted(tuples) == sorted(ref)
    for idx, flat in zip(tuples, inter.flats):
        assert np.max(np.abs(flat.offset - ref[idx].offset)) <= 1e-9
        assert np.max(np.abs(flat.direction.projector()
                             - ref[idx].direction.projector())) <= 1e-9


@pytest.mark.parametrize("n, k, order, radius", [(3, 2, 2, 1.5), (4, 3, 3, 1.2),
                                                 (4, 2, 2, 1.2)])
def test_intersections_batched_match_scalar_reference(n, k, order, radius):
    spec = FlatProcessSpec(n, k, 5.0, GrassmannMeasure.isotropic(n, k, 1.0))
    sample = sample_poisson(spec, radius, [307, n, k])
    inter = intersections(sample, order=order)
    assert inter.q == order * k - (order - 1) * n and len(inter) > 0
    assert_intersections_match(inter, scalar_intersections(sample, order))


def test_intersections_two_samples_match_scalar_reference():
    spec = FlatProcessSpec(3, 2, 3.0, GrassmannMeasure.isotropic(3, 2, 1.0))
    a, b = sample_poisson(spec, 1.5, 308), sample_poisson(spec, 1.5, 309)
    inter = intersections([a, b])
    assert len(inter) == len(a) * len(b) > 0
    assert_intersections_match(inter, scalar_intersections([a, b]))


def test_degenerate_tuples_dropped_like_scalar():
    # planes of R^3: 0 and 1 parallel; the normals of 0, 2, 3 are coplanar,
    # so the triple (0, 2, 3) meets in no point
    normals = [E[2], E[2], E[0], (E[0] + E[2]) / np.sqrt(2.0), E[1]]
    flats = [through_point(complement(Subspace.span(u)), 0.2 * i * u)
             for i, u in enumerate(normals)]
    sample = FlatSample(3, 2, 2.0, np.stack([f.direction.basis for f in flats]),
                        np.stack([f.offset for f in flats]), "x")
    for order in (2, 3):
        ref = scalar_intersections(sample, order)
        assert ((0, 1) if order == 2 else (0, 2, 3)) not in ref
        assert_intersections_match(intersections(sample, order=order), ref)


def test_intersections_dimension_precondition():
    spec = FlatProcessSpec(3, 1, 1.0, GrassmannMeasure.isotropic(3, 1, 1.0))
    lines = sample_poisson(spec, 1.0, 48)
    with pytest.raises(ValueError, match=">= \\(r-1\\) n"):
        intersections(lines, order=2)


def test_f_alpha_counts_and_single_length():
    window = WindowDescriptor.unit_cube(3)
    seg = SegmentProcessSample(
        3, 1.0, 10.0,
        midpoints=np.array([[0.1, 0.0, 0.0], [3.0, 0.0, 0.0]]),
        lengths=np.array([0.3, 0.5]),
        directions=np.stack([E[2], E[2]]),
        pairs=np.array([[0, 1], [0, 2]]))
    assert f_alpha(seg, 0.0, window) == 1.0  # only the midpoint inside counts
    assert f_alpha(seg, 1.0, window) == pytest.approx(0.3, abs=1e-15)
    cap = DirectionSet.double_cap(E[0], 0.9)
    assert f_alpha(seg, 0.0, window, cap) == 0.0


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -1.0])
def test_f_alpha_rejects_bad_alpha(alpha):
    seg = proximity(skew_orthogonal_lines(0.5), delta=1.0)
    with pytest.raises(ValueError, match="alpha"):
        f_alpha(seg, alpha, WindowDescriptor.unit_cube(3))


def test_f_alpha_window_precondition():
    seg = SegmentProcessSample(3, 1.0, 1.0, np.zeros((0, 3)), np.zeros(0),
                               np.zeros((0, 3)), np.zeros((0, 2), dtype=int))
    with pytest.raises(ValueError, match="window too small"):
        f_alpha(seg, 0.0, WindowDescriptor.unit_cube(3))


def test_order_statistics_padding_and_minimum():
    window = WindowDescriptor.unit_cube(3)
    empty = SegmentProcessSample(3, 1.0, 10.0, np.zeros((0, 3)), np.zeros(0),
                                 np.zeros((0, 3)), np.zeros((0, 2), dtype=int))
    assert np.all(np.isinf(order_statistics(empty, 1.0, window, 3)))
    seg = SegmentProcessSample(
        3, 1.0, 10.0,
        midpoints=np.zeros((3, 3)),
        lengths=np.array([0.5, 0.2, 0.9]),
        directions=np.stack([E[2]] * 3),
        pairs=np.array([[0, 1], [0, 2], [1, 2]]))
    stats = order_statistics(seg, 1.0, window, 2)
    assert stats.tolist() == [0.2, 0.5]
    assert order_statistics(seg, 1.0, window, 1)[0] == min(seg.lengths)
    squared = order_statistics(seg, 2.0, window, 1)[0]
    assert squared == pytest.approx(0.04, abs=1e-15)


def test_functionals_share_one_window_mask_per_window():
    # f_alpha and order_statistics interleaved on one sample, across windows
    # and direction sets, each against a fresh sample (no memo) and a full sort
    raw = proximity(sample_poisson(FlatProcessSpec(3, 1, 1.0, GrassmannMeasure.isotropic(3, 1, 1.0)),
                                   16.5, 71), delta=1.0)

    def fresh():  # lengths on a grid of 1/20, so that many tie
        return SegmentProcessSample(3, 1.0, raw.radius, raw.midpoints,
                                    np.ceil(raw.lengths * 20.0) / 20.0, raw.directions, raw.pairs)

    seg = fresh()
    windows = [WindowDescriptor.ball(16.0), WindowDescriptor.ball(16.0).rescaled(0.5),
               WindowDescriptor.box([20.0, 12.0, 8.0])]
    for sweep in range(2):  # the second sweep reads every mask from the memo
        for window in windows:
            for direction_set in (None, DirectionSet.double_cap(E[2], 0.5)):
                keep = window.contains(seg.midpoints)
                if direction_set is not None:
                    keep &= direction_set.contains(seg.directions)
                count = int(keep.sum())
                assert 3 < count and np.unique(seg.lengths[keep]).size < count
                for alpha in (0.0, 1.0):
                    assert (f_alpha(seg, alpha, window, direction_set)
                            == f_alpha(fresh(), alpha, window, direction_set))
                assert f_alpha(seg, 0.0, window, direction_set) == count
                values = np.sort(seg.lengths[keep] ** 1.5)
                for m in (1, 3, count, count + 2):
                    reference = np.full(m, np.inf)
                    reference[:min(m, count)] = values[:m]
                    for sample in (seg, fresh()):
                        out = order_statistics(sample, 1.5, window, m, direction_set)
                        assert np.array_equal(out, reference)
                mask = seg.window_mask(window)
                assert not mask.flags.writeable
                assert np.array_equal(mask, window.contains(seg.midpoints))
                with pytest.raises(ValueError, match="read-only"):
                    mask[0] = not mask[0]
    # one mask per window value: an equal descriptor reads the same array
    assert seg.window_mask(WindowDescriptor.ball(16.0)) is seg.window_mask(windows[0])
    box = WindowDescriptor("box", sides=[20.0, 12.0, 8.0])  # sides given as a list
    assert seg.window_mask(box) is seg.window_mask(windows[2])
    assert len({id(seg.window_mask(w)) for w in windows}) == 3


def test_functionals_equal_the_plain_formulas_bit_for_bit():
    # f_alpha and order_statistics skip the power at alpha 0 and 1 and the
    # sort at m = 1, and read one memoized array of window-qualified lengths
    spec = FlatProcessSpec(3, 1, 1.0, GrassmannMeasure.isotropic(3, 1, 1.0))
    seg = proximity(sample_poisson(spec, 6.5, 73), delta=1.0)
    windows = [WindowDescriptor.ball(6.0), WindowDescriptor.box([7.0, 6.0, 5.0]),
               WindowDescriptor.ball(1e-6)]
    direction_sets = [None, DirectionSet.full_sphere(3), DirectionSet.double_cap(E[2], 0.5)]
    for window in windows:
        for direction_set in direction_sets:
            keep = window.contains(seg.midpoints)
            if direction_set is not None and direction_set.kind != "full":
                keep &= direction_set.contains(seg.directions)
            v = seg.lengths[keep]
            assert (v.size > 5) == (window.circumradius() > 1.0)
            for alpha in (0.0, 0.5, 1.0, 2.0):
                value = f_alpha(seg, alpha, window, direction_set)
                assert type(value) is float
                assert value.hex() == float(np.add.reduce(v ** alpha)).hex()
                if alpha == 0:
                    continue
                for m in (1, 2, 5):
                    reference = np.full(m, np.inf)
                    smallest = np.sort(v ** alpha)[:m]
                    reference[:smallest.size] = smallest
                    assert order_statistics(seg, alpha, window, m,
                                            direction_set).tobytes() == reference.tobytes()
        lengths = seg.window_lengths(window)
        assert lengths is seg.window_lengths(window) and not lengths.flags.writeable
        assert lengths.tobytes() == seg.lengths[seg.window_mask(window)].tobytes()


@pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.0, -1.0])
def test_order_statistics_rejects_bad_alpha(alpha):
    seg = proximity(skew_orthogonal_lines(0.5), delta=1.0)
    with pytest.raises(ValueError, match="length power"):
        order_statistics(seg, alpha, WindowDescriptor.unit_cube(3), 1)


@pytest.mark.parametrize("m", [0, -1, 2.5, 2.0, True, np.float64(3.0)])
def test_order_statistics_rejects_bad_count(m):
    seg = proximity(skew_orthogonal_lines(0.5), delta=1.0)
    with pytest.raises(ValueError, match="got m="):
        order_statistics(seg, 1.0, WindowDescriptor.unit_cube(3), m)


def test_segment_sample_validation():
    with pytest.raises(ValueError, match="\\(0, delta\\]"):
        SegmentProcessSample(3, 1.0, 10.0, np.zeros((1, 3)), np.array([1.5]),
                             np.array([E[2]]), np.array([[0, 1]]))
    for lengths in ([np.nan], [0.5, np.nan]):
        with pytest.raises(ValueError, match="\\(0, delta\\]"):
            SegmentProcessSample(3, 1.0, 10.0, np.zeros((len(lengths), 3)), np.array(lengths),
                                 np.tile(E[2], (len(lengths), 1)), np.zeros((len(lengths), 2)))
    with pytest.raises(ValueError, match="unit vectors"):
        SegmentProcessSample(3, 1.0, 10.0, np.zeros((1, 3)), np.array([0.5]),
                             np.array([[np.nan, 0.0, 1.0]]), np.array([[0, 1]]))
    with pytest.raises(ValueError, match="unit vectors"):
        SegmentProcessSample(3, 1.0, 10.0, np.zeros((1, 3)), np.array([0.5]),
                             np.array([[0.0, 0.0, 1.0 + 2e-9]]), np.array([[0, 1]]))


def test_segment_directions_pass_exactly_when_u_dot_u_is_within_the_tolerance_of_1():
    # the container reads |u.u - 1| <= 1e-9 (2 - 1e-9) as bounds on u.u: the
    # same accepted set, checked on 60 consecutive doubles x around each end
    # (u = (x, 0, 0), u.u = x^2) and on lengths at 0 and at delta + 1e-12
    tol = 1e-9 * (2.0 - 1e-9)

    def accepted(direction, length=0.5):
        try:
            SegmentProcessSample(3, 1.0, 10.0, np.zeros((2, 3)), np.array([0.5, length]),
                                 np.array([E[2], direction]), np.array([[0, 1], [0, 2]]))
        except ValueError as error:
            assert str(error) in ("segment directions must be unit vectors",
                                  "segment lengths must lie in (0, delta]")
            return False
        return True

    verdicts = []
    for end in (1.0 - tol, 1.0 + tol):
        x = math.sqrt(end)
        for _ in range(30):
            x = np.nextafter(x, 0.0)
        for _ in range(60):
            verdicts.append(accepted(np.array([x, 0.0, 0.0])))
            assert verdicts[-1] == (abs(x * x - 1.0) <= tol)
            x = np.nextafter(x, 2.0)
    # each scan crosses its end once: rejected then accepted below 1, the reverse above
    low, high = verdicts[:60], verdicts[60:]
    assert low == sorted(low) and high == sorted(high, reverse=True)
    assert 0 < low.count(True) < 60 and 0 < high.count(True) < 60
    delta_cut = 1.0 + 1e-12
    assert accepted(E[0], delta_cut) and not accepted(E[0], np.nextafter(delta_cut, 2.0))
    assert accepted(E[0], 5e-324) and not accepted(E[0], 0.0) and not accepted(E[0], -0.0)


def test_segments_csv_format(tmp_path):
    seg = proximity(skew_orthogonal_lines(0.8), delta=2.0)
    path = tmp_path / "segments.csv"
    write_segments_csv(seg, path, seed="99")
    lines = path.read_text().splitlines()
    assert lines[0] == "# n=3 delta=2.0 seed=99"
    assert lines[1] == "mx,my,mz,d,ux,uy,uz,i,j"
    fields = lines[2].split(",")
    assert len(fields) == 9
    assert float(fields[3]) == pytest.approx(0.8, abs=1e-12)
    assert fields[7] == "0" and fields[8] == "1"


def line_paths(monkeypatch, bases_a, offs_a, bases_b, offs_b, single, delta):
    """pair_segments with the small line path forced off (SMALL_LINE_PAIRS
    -1, which sends even calls without pairs to the vectorized solve) and on
    (inf): the small path's arrays, which must be the vectorized solve's
    bytes."""
    import flatproc.flat_geometry as flat_geometry

    args = (bases_a, offs_a, bases_b, offs_b, single, delta)
    with monkeypatch.context() as patch:
        patch.setattr(flat_geometry, "SMALL_LINE_PAIRS", -1)
        ref = flat_geometry.pair_segments(*args)
        patch.setattr(flat_geometry, "SMALL_LINE_PAIRS", math.inf)
        out = flat_geometry.pair_segments(*args)
    for ours, theirs in zip(out, ref):
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes()
    return out


def test_small_line_path_gives_the_vectorized_bytes_on_seeded_samples(monkeypatch):
    # the first N lines of a seeded sample for every N up to two past the
    # threshold, alone and against a second sample in both orders
    from flatproc.flat_geometry import SMALL_LINE_PAIRS

    spec = FlatProcessSpec(3, 1, 1.0, GrassmannMeasure.isotropic(3, 1, 1.0))
    big, other = sample_poisson(spec, 4.0, 350), sample_poisson(spec, 1.5, 351)
    assert len(big) >= SMALL_LINE_PAIRS + 2 and len(other) >= 4
    kept = 0
    for size in range(SMALL_LINE_PAIRS + 3):
        a = (big.bases[:size], big.offsets[:size])
        b = (other.bases, other.offsets)
        for args in ((*a, *a, True), (*a, *b, False), (*b, *a, False)):
            kept += len(line_paths(monkeypatch, *args, 1.0)[1])
    assert kept > 500


def planted_line_cases():
    """{name: (bases, offsets, delta)} of lines in R^3 at the edges of the solve."""
    rng = np.random.default_rng(352)
    cases = []
    generic = lines_sample([E[0], E[1] + E[2], E[0] - 2.0 * E[1] + 0.3 * E[2]],
                           [np.zeros(3), 0.4 * E[2], 0.2 * E[1]])
    twin = lines_sample([E[0], E[0], E[2]], [0.3 * E[1], 0.3 * E[1], 0.2 * E[0]])
    parallel = lines_sample([E[0], E[0], E[2]], [np.zeros(3), 0.5 * E[1], 0.2 * E[1]])
    touching = lines_sample([E[0], E[0] + E[1], E[2]], [np.zeros(3), np.zeros(3), 0.2 * E[1]])
    cases += [("identical", twin), ("parallel", parallel), ("touching", touching)]
    cases = [(name, s.bases, s.offsets, 1.0) for name, s in cases]
    # a pair at distance exactly delta, and delta one ulp short of it
    length = float(line_pair_length(generic.bases[:2], generic.offsets[:2]))
    cases += [("at delta", generic.bases, generic.offsets, length),
              ("one ulp beyond", generic.bases, generic.offsets, np.nextafter(length, 0.0))]
    # offsets of norm about 1e6, at distances around the touch cut 61 eps 1e6 / [L, M]
    directions, points = [], []
    for dist in 10.0 ** rng.uniform(-10.0, -6.0, 5):
        pair_dirs, pair_points = far_line_pair(rng, 3, np.sin(rng.uniform(0.3, 1.5)), dist,
                                               scale=1e4)
        directions += pair_dirs
        points += pair_points
    far = lines_sample(directions, points, radius=3e6)
    assert np.min(np.linalg.norm(far.offsets, axis=1)) > 1e6
    cases.append(("offsets 1e6", far.bases, far.offsets, 1.0))
    # offsets of norm below 1, which the cut reads as 1: pairs at angles
    # about 1e-3 and distances around 61 eps / 1e-3 = 6.8e-12
    directions, points = [], []
    for dist in 10.0 ** rng.uniform(-12.0, -10.5, 5):
        pair_dirs, pair_points = far_line_pair(rng, 3, 1e-3, dist, scale=1e-3)
        directions += pair_dirs
        points += pair_points
    near = lines_sample(directions, points, radius=1.0)
    cases.append(("offsets below 1", near.bases, near.offsets, 1.0))
    # common perpendiculars whose first coordinate is 0 or within 1e-12 of
    # it, where the sign walks to the next coordinate, and one just past it
    directions, points = [], []
    for x in (0.0, 1e-13, -1e-13, 9e-13, -9e-13, -2e-12):
        w = np.array([x, 0.6, -0.8])
        u = np.cross(w, E[0])
        v = np.cross(w, u) + 0.3 * u
        directions += [u / np.linalg.norm(u), v / np.linalg.norm(v)]
        points += [np.zeros(3), 0.4 * w]
    lead = lines_sample(directions, points)
    cases.append(("leading zero", lead.bases, lead.offsets, 1.0))
    # c = u.v = 1 and -1 exactly while the volume test passes: det = 1 - c^2
    # = 0.  Both solves drop the pair before they divide by det, so it is
    # dropped even at delta = inf, and under the suite's error::RuntimeWarning
    # no division warns.  Raw rows, as pair_segments takes them
    rng = np.random.default_rng(358)
    while True:
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        w = np.cross(v, rng.standard_normal(3))
        u = v + 3e-8 * w / np.linalg.norm(w)
        x, y = u.tolist(), v.tolist()
        if x[0] * y[0] + 0.0 + x[2] * y[2] + x[1] * y[1] == 1.0 and np.abs([u, v]).min() > 0.1:
            break
    bases = np.array([u, v, -v, w / np.linalg.norm(w)])[:, None]
    offsets = np.array([[0.0, 0.0, 0.3], [0.0, 0.2, 0.0], [0.1, 0.0, 0.0], [0.0, 0.1, 0.1]])
    cases += [("det 0", bases, offsets, 1.0), ("det 0, delta inf", bases, offsets, math.inf)]
    return {name: case for name, *case in cases}


def line_pair_length(bases, offsets):
    from flatproc.flat_geometry import pair_segments

    return pair_segments(bases, offsets, bases, offsets, True, math.inf)[1][0]


@pytest.mark.parametrize("name", ["identical", "parallel", "touching", "at delta",
                                  "one ulp beyond", "offsets 1e6", "offsets below 1",
                                  "leading zero", "det 0",
                                  "det 0, delta inf"])
def test_small_line_path_gives_the_vectorized_bytes_on_planted_lines(name, monkeypatch):
    bases, offsets, delta = planted_line_cases()[name]
    n_a = len(offsets)
    out = line_paths(monkeypatch, bases, offsets, bases, offsets, True, delta)
    pairs = out[3].tolist()
    for i in range(1, n_a):  # and across two samples, in both orders
        line_paths(monkeypatch, bases[:i], offsets[:i], bases[i:], offsets[i:], False, delta)
        line_paths(monkeypatch, bases[i:], offsets[i:], bases[:i], offsets[:i], False, delta)
    if name in ("identical", "parallel", "touching"):
        assert [0, 1] not in pairs and len(pairs) == 2
    if name == "at delta":
        assert [0, 1] in pairs and out[1][pairs.index([0, 1])] == delta
    if name == "one ulp beyond":
        assert [0, 1] not in pairs
    if name.startswith("offsets"):  # the cut drops some of the planted pairs and keeps others
        kept = {(2 * p, 2 * p + 1) for p in range(n_a // 2)} & set(map(tuple, pairs))
        assert 0 < len(kept) < n_a // 2
    if name == "leading zero":
        lead = np.abs(out[2][:, 0])
        assert np.count_nonzero(lead <= 1e-12) >= 5 and np.count_nonzero(lead > 1e-12) >= 1
    if name.startswith("det 0"):
        for i, j in ((0, 1), (0, 2)):
            u, v = bases[i, 0].tolist(), bases[j, 0].tolist()
            c = u[0] * v[0] + 0.0 + u[2] * v[2] + u[1] * v[1]
            assert 1.0 - c * c == 0.0 and abs(c) == 1.0
            assert math.sqrt(sum(x * x for x in u) * sum(x * x for x in v) - c * c) > 1e-10
            assert [i, j] not in pairs
        assert [0, 3] in pairs


def test_small_line_path_is_chosen_by_k_n_and_pair_count(monkeypatch):
    # the small path serves lines of R^3 with at most SMALL_LINE_PAIRS pairs
    # and nothing else, single and across two samples
    import flatproc.flat_geometry as flat_geometry
    from flatproc.flat_geometry import SMALL_LINE_PAIRS

    small = flat_geometry._small_line_segments
    calls = []

    def spy(*args):
        calls.append(args)
        return small(*args)

    monkeypatch.setattr(flat_geometry, "_small_line_segments", spy)
    lines = sample_poisson(FlatProcessSpec(3, 1, 1.0, GrassmannMeasure.isotropic(3, 1, 1.0)),
                           4.0, 353)
    assert len(lines) > SMALL_LINE_PAIRS + 1
    rows = max(m for m in range(len(lines)) if m * (m - 1) // 2 <= SMALL_LINE_PAIRS)
    def head(sample, m):
        return FlatSample(sample.n, sample.k, sample.radius, sample.bases[:m],
                          sample.offsets[:m], "head")

    for count, chosen in ((SMALL_LINE_PAIRS, True), (SMALL_LINE_PAIRS + 1, False)):
        for first, second in ((head(lines, 1), head(lines, count)),
                              (head(lines, count), head(lines, 1))):
            calls.clear()
            proximity(first, second, delta=1.0)
            assert len(calls) == chosen
    for size, chosen in ((rows, True), (rows + 1, False)):
        calls.clear()
        proximity(head(lines, size), delta=1.0)
        assert len(calls) == chosen
    # lines of R^4, planes of R^5, lines against planes of R^4: few pairs,
    # never the small path
    others = [sample_poisson(FlatProcessSpec(n, k, 1.0, GrassmannMeasure.isotropic(n, k, 1.0)),
                             radius, 357)
              for n, k, radius in ((4, 1, 1.1), (5, 2, 1.1), (4, 2, 1.3))]
    calls.clear()
    for first, second in ((others[0], None), (others[1], None), (others[0], others[2]),
                          (others[2], others[0])):
        count = len(first) * (len(first) - 1) // 2 if second is None else len(first) * len(second)
        assert 0 < count <= SMALL_LINE_PAIRS
        proximity(first, second, delta=1.0)
    assert not calls
