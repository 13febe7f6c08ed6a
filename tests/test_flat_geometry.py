import itertools
import math

import numpy as np
import pytest

from flatproc import zonoid_engine
from flatproc.flat_geometry import (DegeneratePairError, Flat, Subspace, _principal_angles,
                                    canonical_unit, canonical_units,
                                    closest_pair, complement, complement_bases,
                                    gram_volumes, grassmann_distance,
                                    haar_bases, orthonormalize,
                                    product_indices, row_dots, row_norms, subset_indices,
                                    subspace_determinant, subspace_views, tuple_intersections)
from flatproc.measures import SphereMeasure

import _reference
from _reference import (contains_flat, distance_to_point, grassmann_metric, haar_sample,
                        parallelepiped_volume, random_rotation, rotate_subspace,
                        svd_complement_bases, through_point)

E = np.eye(3)


def gram_schmidt_oracle(vectors, tol=1e-10):
    """Independent reference orthonormalization (classic, no pivot tricks)."""
    basis = []
    for v in vectors:
        w = np.array(v, dtype=float)
        for b in basis:
            w = w - (w @ b) * b
        if np.linalg.norm(w) > tol:
            basis.append(w / np.linalg.norm(w))
    return np.array(basis)


def test_orthonormalize_keeps_orthonormal_input():
    sub = orthonormalize([E[0], E[1]])
    assert sub.k == 2
    assert np.allclose(sub.basis, E[:2])


def test_orthonormalize_drops_dependent_input():
    sub = orthonormalize([E[0], E[0]])
    assert sub.k == 1
    assert np.allclose(np.abs(sub.basis[0]), E[0])


def test_orthonormalize_matches_gram_schmidt_projector():
    vectors = [np.array([1.0, 1.0, 0.0]), np.array([0.0, 1.0, 0.0])]
    sub = orthonormalize(vectors)
    oracle = gram_schmidt_oracle(vectors)
    assert sub.k == 2
    assert np.allclose(sub.projector(), oracle.T @ oracle, atol=1e-12)
    assert np.allclose(sub.projector(), np.diag([1.0, 1.0, 0.0]), atol=1e-12)


def test_subspace_invariants_enforced():
    with pytest.raises(ValueError):
        Subspace(np.array([[1.0, 1.0, 0.0]]))  # not unit
    with pytest.raises(ValueError):
        Subspace(np.array([[1, 0, 0], [1, 0, 0]], dtype=float))  # not orthogonal
    with pytest.raises(ValueError):
        Subspace(np.array([[1.0 + 4e-6, 0.0, 0.0]]))  # off by more than 1e-10
    with pytest.raises(ValueError):
        Subspace(np.array([[np.nan, 0.0, 0.0]]))
    # every Gram entry within 1e-11 of the identity passes
    Subspace(np.array([[1.0 + 5e-12, 1e-11, 0.0], [0.0, 1.0, 0.0]]))


@pytest.mark.parametrize("rows", [
    [[1.0, 0.0, 0.0], [0.0, np.nan, 0.0]],            # NaN in a later row
    [[np.nan, 0.0, 0.0], [0.0, 1.0, 0.0]],            # NaN on the diagonal
    [[1.0, 0.0, 0.0], [2e-10, 1.0, 0.0]],             # off-diagonal 2e-10
    [[1.0, 0.0, 0.0], [0.0, 1.0 + 2e-10, 0.0]],       # diagonal 4e-10 above 1
    [[0.6, 0.8, 0.0], [0.8, 0.6, 0.0]],               # unit rows, not orthogonal
])
def test_subspace_rejects_nan_and_non_orthonormal_rows(rows):
    with pytest.raises(ValueError, match="not orthonormal"):
        Subspace(np.array(rows))


def test_projector_is_cached_read_only_and_exact():
    for sub in (haar_sample(5, 2, np.random.default_rng(21)), Subspace(E[:1]),
                Subspace.trivial(3)):
        p = sub.projector()
        assert p is sub.projector()
        assert not p.flags.writeable
        assert np.array_equal(p, sub.basis.T @ sub.basis)
        with pytest.raises(ValueError):
            p[0, 0] = 2.0


def test_subspace_views_share_the_read_only_stack_and_match_subspace():
    for n, k in ((3, 1), (4, 2), (5, 3)):
        stack = haar_bases(9, n, k, np.random.default_rng([23, n]))
        # writable input is copied and left writable
        copied = subspace_views(stack)
        assert stack.flags.writeable and len(copied) == 9
        for view, row in zip(copied, stack):
            assert not np.shares_memory(view.basis, stack) and not view.basis.flags.writeable
            assert np.array_equal(view.basis, row)
        # read-only input
        stack.flags.writeable = False
        views = subspace_views(stack)
        assert len(views) == 9
        for view, row in zip(views, stack):
            assert type(view) is Subspace and (view.n, view.k) == (n, k)
            assert view.basis.base is views[0].basis.base and not view.basis.flags.writeable
            assert np.array_equal(view.basis, row)
            assert view.projector().tobytes() == Subspace(row.copy()).projector().tobytes()
            assert not view.projector().flags.writeable
        with pytest.raises(ValueError):
            views[0].basis[0, 0] = 0.5
    assert subspace_views(np.zeros((0, 2, 5))) == ()
    with pytest.raises(ValueError, match="stack of bases"):
        subspace_views(np.eye(3))


def stack_containers(stack):
    """The containers that take an (m, 2, 4) basis stack in, each with zero
    offsets and generator indices where it needs them."""
    from flatproc.derived_processes import IntersectionSample
    from flatproc.measures import GrassmannMeasure

    m = len(stack)
    return (lambda: GrassmannMeasure(4, 2, stack, np.ones(m)),
            lambda: IntersectionSample(4, 2, stack, np.zeros((m, 4)), np.zeros((m, 2), int)))


@pytest.mark.parametrize("row", [0, 4])
def test_stack_containers_reject_a_stack_with_one_bad_row_as_subspace_does(row):
    # the containers that take a stack in check it; views of it check nothing
    stack = haar_bases(5, 4, 2, np.random.default_rng(24))
    stack[row, 1] += 2e-10 * stack[row, 0]  # one Gram entry 2e-10 off the identity
    with pytest.raises(ValueError) as single:
        Subspace(stack[row])
    for make in stack_containers(stack):
        with pytest.raises(ValueError) as stacked:
            make()
        assert str(stacked.value) == str(single.value) == "basis rows are not orthonormal"
    for make in stack_containers(np.delete(stack, row, axis=0)):  # the other rows pass
        make()
    stack[row, 1, 0] = np.nan
    # offsets are tested first: beside its offsets, a NaN row fails their test
    for make, message in zip(stack_containers(stack), ("basis rows are not orthonormal",
                                                       "offset is not orthogonal")):
        with pytest.raises(ValueError, match=message):
            make()


def test_same_span_matches_the_projector_norm_at_the_tolerance():
    rng = np.random.default_rng(25)
    for n, k in ((3, 1), (4, 2), (5, 3)):
        for tol in (1e-10, 1e-8, 1e-3):
            for b in haar_bases(4, n, k, rng):
                w = complement(Subspace(b)).basis[0]
                for d in (tol * (1 - 1e-6), tol, tol * (1 + 1e-6)):
                    theta = math.asin(d / math.sqrt(2.0))  # ||P - P'||_F = sqrt(2) sin(theta)
                    turned = b.copy()
                    turned[0] = math.cos(theta) * b[0] + math.sin(theta) * w
                    s1, s2 = Subspace(b), subspace_views(turned[None])[0]
                    expected = bool(np.linalg.norm(s1.projector() - s2.projector()) < tol)
                    assert s1.same_span(s2, tol) is expected
                    assert s2.same_span(s1, tol) is expected
    eye = np.eye(5)
    for a, b in ((eye[:2], eye[:3]), (eye[:3], eye[:2]), (eye[:2], np.eye(4)[:2]),
                 (eye[:1], eye[:0])):
        assert Subspace(a).same_span(Subspace(b), tol=10.0) is False
    assert Subspace(eye[:0]).same_span(Subspace.trivial(5)) is True


@pytest.mark.parametrize("theta", [1e-12, 1e-9, 1e-6, 1e-3, 0.7, math.pi / 2])
def test_principal_angles_keep_small_angles(theta):
    # a plane of R^4 turned by theta in one direction: one principal angle
    # theta, one 0; arccos of the cosine reads 0 below about 1e-8
    turned = np.array([[math.cos(theta), 0.0, math.sin(theta), 0.0], [0.0, 1.0, 0.0, 0.0]])
    angles = _principal_angles(np.eye(4)[:2], turned)
    assert angles[0] == 0.0
    assert angles[1] == pytest.approx(theta, rel=1e-14)
    assert grassmann_metric(Subspace(np.eye(4)[:2]), Subspace(turned)) == pytest.approx(
        2.0 * math.sqrt(2.0) * math.sin(theta / 2.0), rel=1e-14)


def test_determinant_orthogonal_and_equal_lines():
    assert subspace_determinant([Subspace.span(E[0]), Subspace.span(E[1])]) == 1.0
    assert subspace_determinant([Subspace.span(E[0]), Subspace.span(E[0])]) == 0.0


def test_determinant_hand_gram_oracle():
    u = (E[0] + E[1]) / math.sqrt(2)
    # Gram matrix [[1, c], [c, 1]] with c = 1/sqrt(2): det = 1/2
    value = subspace_determinant([Subspace.span(E[0]), Subspace.span(u)])
    assert abs(value - math.sqrt(0.5)) < 1e-12


def test_determinant_dimension_error():
    sub = Subspace(np.eye(4)[:2])
    with pytest.raises(ValueError, match="determinant undefined"):
        subspace_determinant([sub, sub, sub])  # 6 not <= 4 and not >= 8


def test_determinant_symmetry_and_rotation_invariance():
    rng = np.random.default_rng(7)
    for _ in range(20):
        subs = [haar_sample(4, 1, rng), haar_sample(4, 2, rng), haar_sample(4, 1, rng)]
        base = subspace_determinant(subs)
        perm = [subs[i] for i in rng.permutation(3)]
        assert abs(subspace_determinant(perm) - base) < 1e-10
        rot = random_rotation(4, rng)
        rotated = [rotate_subspace(s, rot) for s in subs]
        assert abs(subspace_determinant(rotated) - base) < 1e-10


def test_determinant_complement_identity():
    rng = np.random.default_rng(8)
    for _ in range(20):
        l_sub = haar_sample(5, 2, rng)
        m_sub = haar_sample(5, 3, rng)
        direct = subspace_determinant([l_sub, m_sub])
        via_perp = subspace_determinant([complement(l_sub), complement(m_sub)])
        assert abs(direct - via_perp) < 1e-10


def test_nabla_is_line_determinant_special_case():
    rng = np.random.default_rng(9)
    for _ in range(10):
        units = rng.standard_normal((3, 4))
        units /= np.linalg.norm(units, axis=1, keepdims=True)
        via_lines = subspace_determinant([Subspace.span(u) for u in units])
        assert abs(parallelepiped_volume(units) - via_lines) < 1e-12


def test_closest_pair_example():
    e_flat = through_point(Subspace.span(E[0]), np.zeros(3))
    f_flat = through_point(Subspace.span(E[1]), E[2])
    seg = closest_pair(e_flat, f_flat)
    assert abs(seg.length - 1.0) < 1e-12
    assert np.allclose(seg.midpoint, [0.0, 0.0, 0.5])
    assert np.allclose(np.abs(seg.direction), E[2])


def test_closest_pair_returns_a_plain_record():
    e_flat = through_point(Subspace.span(E[0]), np.zeros(3))
    f_flat = through_point(Subspace.span(E[1]), 2.0 * E[2])
    midpoint, length, direction = seg = closest_pair(e_flat, f_flat)
    assert type(seg)._fields == ("midpoint", "length", "direction")
    assert length == 2.0 and np.array_equal(midpoint, E[2])
    assert np.array_equal(direction, E[2])


def test_subspace_and_flat_keep_read_only_copies_of_writable_input():
    basis, offset = E[:2].copy(), 2.0 * E[2]
    flat = Flat(Subspace(basis), offset)
    basis[0, 0], offset[2] = 5.0, 7.0  # the caller's arrays stay writable
    assert np.array_equal(flat.direction.basis, E[:2]) and np.array_equal(flat.offset, 2 * E[2])
    for stored in (flat.direction.basis, flat.offset):
        assert not stored.flags.writeable
        with pytest.raises(ValueError):
            stored[0] = 1.0


def test_flat_offset_tolerance_scales_with_the_offset_norm():
    # |B a| < 1e-12 max(1, |a|): a far offset may carry more round-off
    # along its direction than a near one
    line = Subspace(E[:1])
    far = Flat(line, np.array([1e-10, 1e6, 0.0]))
    assert far.offset[0] == 1e-10
    with pytest.raises(ValueError, match="offset is not orthogonal"):
        Flat(line, np.array([5e-10, 0.5, 0.0]))
    with pytest.raises(ValueError, match="offset is not orthogonal"):
        Flat(line, np.array([1e-12, 0.0, 0.0]))
    plane = Subspace(E[:2])
    Flat(plane, np.array([3e-10, -2e-10, 4e5]))
    with pytest.raises(ValueError, match="offset is not orthogonal"):
        Flat(plane, np.array([0.0, 3e-10, 100.0]))


def test_closest_pair_parallel_lines_degenerate():
    e_flat = through_point(Subspace.span(E[0]), np.zeros(3))
    f_flat = through_point(Subspace.span(E[0]), E[1])
    with pytest.raises(DegeneratePairError, match="degenerate pair"):
        closest_pair(e_flat, f_flat)


def one_intersection(flats):
    """One tuple of tuple_intersections as a Flat, or None when the tuple is
    not in general position."""
    bases, offsets, _ = tuple_intersections([f.direction.basis[None] for f in flats],
                                            [f.offset[None] for f in flats],
                                            np.zeros((1, len(flats)), dtype=np.intp))
    return Flat(Subspace(bases[0]), offsets[0]) if len(offsets) else None


def test_two_hyperplanes_intersect_in_line():
    u1, u2 = E[2], (E[0] + E[2]) / math.sqrt(2)
    h1 = through_point(complement(Subspace.span(u1)), np.zeros(3))
    h2 = through_point(complement(Subspace.span(u2)), 0.4 * u2)
    flat = one_intersection([h1, h2])
    assert flat.k == 1
    # null-space oracle: direction solves u1.x = 0 and u2.x = 0
    normal_stack = np.vstack([u1, u2])
    assert np.max(np.abs(normal_stack @ flat.direction.basis[0])) < 1e-10
    assert contains_flat(h1, flat) and contains_flat(h2, flat)


def test_closest_pair_feet_properties_random():
    rng = np.random.default_rng(11)
    for _ in range(30):
        e_flat = through_point(haar_sample(4, 1, rng), rng.standard_normal(4))
        f_flat = through_point(haar_sample(4, 2, rng), rng.standard_normal(4))
        seg = closest_pair(e_flat, f_flat)
        half = 0.5 * seg.length * seg.direction
        feet = (seg.midpoint + half, seg.midpoint - half)
        hits = {min(distance_to_point(e_flat, p) for p in feet) < 1e-9,
                min(distance_to_point(f_flat, p) for p in feet) < 1e-9}
        assert hits == {True}
        for basis in (e_flat.direction.basis, f_flat.direction.basis):
            assert np.max(np.abs(basis @ seg.direction)) < 1e-9


@pytest.mark.parametrize("m", [0, 1, 2, 7])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_index_tuples_match_itertools(m, r):
    for got, want in ((subset_indices(m, r), itertools.combinations(range(m), r)),
                      (product_indices([m] * r), itertools.product(range(m), repeat=r))):
        want = list(want)
        assert got.dtype == np.intp and got.shape == (len(want), r)
        assert got.tolist() == [list(t) for t in want]


def test_one_tuple_intersection_matches_scalar_reference():
    # one tuple of tuple_intersections against the lstsq-and-SVD oracle, at
    # the tolerances of the batched-vs-scalar intersection tests
    rng = np.random.default_rng(181)
    checked = 0
    # r <= n: more than n flats of dimension below n do not meet in general position
    for n, r in ((3, 2), (3, 3), (4, 2), (4, 3), (4, 4), (5, 2), (5, 3), (5, 4)):
        for _ in range(40):
            dims = rng.integers(1, n, size=r)
            while dims.sum() < (r - 1) * n:
                dims = rng.integers(1, n, size=r)
            flats = [through_point(haar_sample(n, int(k), rng), rng.standard_normal(n))
                     for k in dims]
            ref = _reference.intersect_flats(flats)
            got = one_intersection(flats)
            assert got.k == ref.k == dims.sum() - (r - 1) * n
            assert np.max(np.abs(got.offset - ref.offset)) <= 1e-9
            assert np.max(np.abs(got.direction.projector()
                                 - ref.direction.projector())) <= 1e-9
            checked += 1
    assert checked == 320


def test_one_tuple_intersection_drops_parallel_planes():
    planes = [through_point(Subspace(E[:2]), np.zeros(3)),
              through_point(Subspace(E[:2]), E[2])]
    assert one_intersection(planes) is None


def test_closest_pair_rejects_mixed_spaces_and_dimension_sums_of_n():
    # k1 + k2 >= n pairs intersect: tuple_intersections solves them
    plane = through_point(Subspace(E[:2]), np.zeros(3))
    line = through_point(Subspace(E[:1]), np.zeros(3))
    for pair in ((plane, plane), (plane, through_point(Subspace(E[1:]), E[0])),
                 (line, through_point(Subspace(np.eye(4)[:1]), np.zeros(4)))):
        with pytest.raises(ValueError, match="closest_pair needs flats of one R"):
            closest_pair(*pair)


def test_complement_examples_and_projector_sum():
    comp = complement(Subspace.span(E[0]))
    assert comp.k == 2
    assert np.allclose(comp.projector(), np.diag([0.0, 1.0, 1.0]), atol=1e-12)
    assert complement(Subspace.full(3)).k == 0
    rng = np.random.default_rng(12)
    for _ in range(10):
        sub = haar_sample(5, 2, rng)
        comp = complement(sub)
        assert np.allclose(sub.projector() + comp.projector(), np.eye(5), atol=1e-12)
        assert complement(comp).same_span(sub)


def complement_residuals(bases, comps):
    """Largest |C C^T - I| and largest |C B^T| over a stack of bases B and
    their complements C."""
    eye = np.eye(comps.shape[1])
    return (np.abs(comps @ np.swapaxes(comps, 1, 2) - eye).max(initial=0.0),
            np.abs(comps @ np.swapaxes(bases, 1, 2)).max(initial=0.0))


def projectors(comps):
    return np.swapaxes(comps, 1, 2) @ comps


def unit_rows(rng, count, k, n):
    rows = rng.standard_normal((count, k, n))
    return rows / np.linalg.norm(rows, axis=2, keepdims=True)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_complement_bases_match_the_svd_oracle(n):
    # orthonormal rows and unit rows that are not orthonormal, for every k:
    # the complement of independent rows is unique, so its projector is the
    # SVD's
    rng = np.random.default_rng([300, n])
    for k in range(n + 1):
        for bases in (haar_bases(20, n, k, rng), unit_rows(rng, 20, k, n)):
            comps = complement_bases(bases)
            assert comps.shape == (20, n - k, n)
            assert max(complement_residuals(bases, comps)) <= 1e-12
            oracle = projectors(svd_complement_bases(bases))
            assert np.abs(projectors(comps) - oracle).max(initial=0.0) <= 1e-12


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_complement_bases_of_dependent_subsets_as_lower_bound_check_sees_them(n):
    # n + 2 atoms, one of them twice (u and -u have one canonical unit): the
    # (n-1)-subsets holding both span n - 2 dimensions, whose complement is a
    # plane, so any unit normal of it is a valid row and the QR's need not be
    # the SVD's.  Every row is still orthonormal and orthogonal to the
    # subset, the independent subsets keep the SVD's projectors, and the
    # least cosine moment over the normals, lower_bound_check's value, is
    # the SVD's
    rng = np.random.default_rng([301, n])
    units = unit_rows(rng, 1, n + 1, n)[0]
    mu = SphereMeasure.atoms(n, list(zip(np.vstack([units, -units[:1]]),
                                         0.2 + rng.random(n + 2))))
    stacks = mu.units[subset_indices(n + 2, n - 1)]
    comps, oracle = complement_bases(stacks), svd_complement_bases(stacks)
    assert max(complement_residuals(stacks, comps)) <= 1e-12
    dependent = gram_volumes(stacks) <= 1e-10
    assert 0 < dependent.sum() < len(stacks)
    assert np.abs(projectors(comps[~dependent]) - projectors(oracle[~dependent])).max() <= 1e-12
    least, oracle_least = (mu.cosine_moment(c[:, 0]).min() for c in (comps, oracle))
    assert abs(least - oracle_least) <= 1e-12
    assert mu.cosine_moment(comps[dependent, 0]).min() >= least - 1e-12


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_complement_bases_just_above_the_drop_cut(n):
    # k unit rows, two of them at an angle of 1.5e-10 to 1e-9, so that their
    # volume (the product of the singular values) is just above DROP_TOL.
    # Rows stay orthonormal and orthogonal to the input within 1e-12, but the
    # complement itself is determined only to about eps / s_min (s_min the
    # least singular value) by any backward-stable method; the projectors
    # agree with the SVD's within 16 eps / s_min
    rng = np.random.default_rng([302, n])
    for k in sorted({2, n - 1}):
        bases = haar_bases(20, n, k, rng)
        theta = rng.uniform(1.5e-10, 1e-9, 20)
        bases[:, 1] = np.cos(theta)[:, None] * bases[:, 0] + np.sin(theta)[:, None] * bases[:, 1]
        sing = np.linalg.svd(bases, compute_uv=False)
        assert np.all(sing.prod(axis=1) > zonoid_engine.DROP_TOL)
        comps, oracle = complement_bases(bases), svd_complement_bases(bases)
        assert max(complement_residuals(bases, comps)) <= 1e-12
        s_min = sing[:, -1]
        gap = np.abs(projectors(comps) - projectors(oracle)).max(axis=(1, 2))
        assert np.all(gap <= 16 * 2.0 ** -52 / s_min)


def test_haar_projector_mean_is_isotropic():
    rng = np.random.default_rng(13)
    n, k, reps = 3, 1, 30_000
    acc = np.zeros((n, n))
    for _ in range(reps):
        acc += haar_sample(n, k, rng).projector()
    assert np.max(np.abs(acc / reps - np.eye(n) / 3.0)) < 0.01


def test_haar_line_angle_uniform_in_plane():
    rng = np.random.default_rng(14)
    reps = 30_000
    angles = np.empty(reps)
    for i in range(reps):
        u = haar_sample(2, 1, rng).basis[0]
        angles[i] = math.atan2(u[1], u[0]) % math.pi
    angles.sort()
    ecdf = np.arange(1, reps + 1) / reps
    ks = np.max(np.abs(ecdf - angles / math.pi))
    assert ks < 0.01


def test_haar_lines_span_the_qr_lines_of_the_same_draws():
    for n in (2, 3, 5):
        lines = haar_bases(500, n, 1, [16, n])
        g = np.random.default_rng([16, n]).standard_normal((500, 1, n))
        q = np.swapaxes(np.linalg.qr(np.swapaxes(g, 1, 2))[0], 1, 2)
        proj = np.einsum("mki,mkj->mij", lines, lines)
        assert np.max(np.abs(proj - np.einsum("mki,mkj->mij", q, q))) <= 1e-15


def test_haar_sample_satisfies_subspace_invariants():
    rng = np.random.default_rng(15)
    for n, k in ((3, 1), (4, 2), (5, 3)):
        sub = haar_sample(n, k, rng)
        assert sub.k == k
        assert np.allclose(sub.basis @ sub.basis.T, np.eye(k), atol=1e-12)
    with pytest.raises(ValueError):
        haar_sample(3, 0, rng)
    with pytest.raises(ValueError):
        haar_sample(3, 3, rng)


def brute_force_direct_rotation(u1: np.ndarray, u2: np.ndarray,
                                grid: int = 400_001) -> float:
    """Minimize the squared deviation |rho| over rotations in R^3 mapping
    span(u1) to span(u2), by a dense grid search over the two components of
    the stabilizer of the target line (rotations about it, and half-turns
    about axes perpendicular to it), composed with one particular solution.
    """
    def rot(axis, angle):
        axis = axis / np.linalg.norm(axis)
        K = np.array([[0, -axis[2], axis[1]],
                      [axis[2], 0, -axis[0]],
                      [-axis[1], axis[0], 0]])
        return np.eye(3) + math.sin(angle) * K + (1 - math.cos(angle)) * (K @ K)

    c = float(np.clip(u1 @ u2, -1.0, 1.0))
    if abs(c) > 1 - 1e-12:
        base = np.eye(3) if c > 0 else rot(_any_perp(u1), math.pi)
    else:
        base = rot(np.cross(u1, u2), math.acos(c))
    psi = np.linspace(0.0, 2 * math.pi, grid)
    sin_p, cos_p = np.sin(psi), np.cos(psi)
    axis = u2 / np.linalg.norm(u2)
    K = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    # component 1: R(u2, psi) @ base, vectorized over psi
    stab = (np.eye(3)[None] + sin_p[:, None, None] * K[None]
            + (1 - cos_p)[:, None, None] * (K @ K)[None])
    sizes1 = np.sum((stab @ base - np.eye(3)) ** 2, axis=(1, 2))
    # component 2: half-turn about cos(psi) p1 + sin(psi) p2 (axes perp to u2)
    perp1 = _any_perp(u2)
    perp2 = np.cross(u2, perp1)
    axes = cos_p[:, None] * perp1 + sin_p[:, None] * perp2
    halfturn = 2 * axes[:, :, None] * axes[:, None, :] - np.eye(3)[None]
    sizes2 = np.sum((halfturn @ base - np.eye(3)) ** 2, axis=(1, 2))
    return float(min(sizes1.min(), sizes2.min()))


def _any_perp(u):
    pick = np.eye(3)[np.argmin(np.abs(u))]
    w = pick - (pick @ u) * u
    return w / np.linalg.norm(w)


def test_grassmann_distance_identity_and_plane_example():
    sub = Subspace.span(E[0], E[1])
    assert grassmann_distance(sub, sub) == 0.0
    e2 = np.eye(2)
    assert abs(grassmann_distance(Subspace(e2[:1]), Subspace(e2[1:])) - 4.0) < 1e-12


def test_grassmann_distance_against_rotation_search():
    rng = np.random.default_rng(16)
    worst = 0.0
    for _ in range(50):
        u1 = haar_sample(3, 1, rng).basis[0]
        u2 = haar_sample(3, 1, rng).basis[0]
        formula = grassmann_distance(Subspace.span(u1), Subspace.span(u2))
        oracle = brute_force_direct_rotation(u1, u2)
        assert oracle >= formula - 1e-6, "rotation search beat the closed form"
        worst = max(worst, abs(oracle - formula))
    assert worst < 1e-6


def test_grassmann_distance_planes_via_normals():
    rng = np.random.default_rng(17)
    for _ in range(10):
        p1 = haar_sample(3, 2, rng)
        p2 = haar_sample(3, 2, rng)
        direct = grassmann_distance(p1, p2)
        via_normals = grassmann_distance(complement(p1), complement(p2))
        assert abs(direct - via_normals) < 1e-9


def test_grassmann_distance_symmetry_nonneg_identity():
    rng = np.random.default_rng(18)
    for _ in range(20):
        a = haar_sample(4, 2, rng)
        b = haar_sample(4, 2, rng)
        assert grassmann_distance(a, b) >= 0.0
        assert abs(grassmann_distance(a, b) - grassmann_distance(b, a)) < 1e-12
        assert grassmann_distance(a, a) < 1e-12
        if grassmann_distance(a, b) < 1e-12:
            assert a.same_span(b)
    with pytest.raises(ValueError):
        grassmann_distance(haar_sample(4, 1, rng), haar_sample(4, 2, rng))


def test_grassmann_metric_is_square_root():
    rng = np.random.default_rng(19)
    a, b = haar_sample(3, 1, rng), haar_sample(3, 1, rng)
    assert abs(grassmann_metric(a, b) ** 2 - grassmann_distance(a, b)) < 1e-12


def test_principal_angles_clamped():
    sub = haar_sample(4, 2, np.random.default_rng(20))
    assert np.allclose(_principal_angles(sub.basis, sub.basis), 0.0)
    with pytest.raises(ValueError, match="equal dimension"):
        grassmann_distance(sub, Subspace(np.eye(4)[:1]))


def test_canonical_unit_sign_convention():
    u = np.array([0.0, -0.3, 0.4])
    canon = canonical_unit(u)
    assert canon[1] > 0  # first nonzero coordinate positive
    assert np.allclose(canon, -u / np.linalg.norm(u))
    assert np.allclose(canonical_unit(-u), canon)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 12])
def test_row_norms_match_numpy_bit_for_bit(n):
    # column sums below 8 columns, np.linalg.norm itself at 8 and above
    rng = np.random.default_rng(40 + n)
    x = rng.standard_normal((200_000, n)) * 10.0 ** rng.uniform(-8, 8, (200_000, 1))
    assert np.array_equal(row_norms(x), np.linalg.norm(x, axis=1))
    # the same bits from a transposed view of coordinate rows
    assert np.array_equal(row_norms(x.T.copy().T), np.linalg.norm(x, axis=1))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_row_dots_match_einsum_bit_for_bit(n):
    # even and odd coordinates summed apart below 8, einsum itself at 8; the
    # signed-zero rows check that -0 sums come out as einsum's +0
    rng = np.random.default_rng(50 + n)
    x, y = (rng.standard_normal((200_000, n)) * 10.0 ** rng.uniform(-8, 8, (200_000, 1))
            for _ in range(2))
    assert np.array_equal(row_dots(x.T.copy(), y.T.copy()), np.einsum("mn,mn->m", x, y))
    assert np.array_equal(row_dots(x.T.copy(), x.T.copy()), np.einsum("mn,mn->m", x, x))
    pool = np.array([0.0, -0.0, 1e-12, -1e-12, 0.3, -0.3])
    x, y = rng.choice(pool, (20_000, n)), rng.choice(pool, (20_000, n))
    dots, ref = row_dots(x.T.copy(), y.T.copy()), np.einsum("mn,mn->m", x, y)
    assert np.array_equal(dots, ref) and np.array_equal(np.signbit(dots), np.signbit(ref))


def test_canonical_units_match_the_masked_flip():
    def reference(units):
        units = np.array(units, dtype=float)
        lead = units[:, 0]
        for col in units.T[1:]:
            lead = np.where(np.abs(lead) <= 1e-12, col, lead)
        np.multiply(units, -1.0, out=units, where=(lead < -1e-12)[:, None])
        return units

    rng = np.random.default_rng(41)
    # leading coordinates of 0, -0, +-1e-12 (within the cut) and +-2e-12
    # (beyond it), then anything, zeros included
    pool = np.array([0.0, -0.0, 1e-12, -1e-12, 2e-12, -2e-12, 0.3, -0.3])
    units = np.concatenate([rng.choice(pool, (5000, 4)), rng.standard_normal((500, 4))])
    out = canonical_units(units)
    assert np.array_equal(out, reference(units))
    assert np.array_equal(np.signbit(out), np.signbit(reference(units)))


def test_canonical_units_without_a_zero_lead_match_the_walk():
    # when every first coordinate exceeds 1e-12 in magnitude the signs are
    # those of the first coordinates; NaN and 1e-12 leads take the walk
    from flatproc.flat_geometry import _sign_rows

    def walk(units):
        units = np.array(units, dtype=float)
        lead = units[:, 0]
        for col in units.T[1:]:
            lead = np.where(np.abs(lead) <= 1e-12, col, lead)
        return units * np.where(lead < -1e-12, -1.0, 1.0)[:, None]

    rng = np.random.default_rng(42)
    units = rng.standard_normal((5000, 4))
    units[:50, 0] = np.where(rng.random(50) < 0.5, -1.0, 1.0) * 2e-12
    units[50:60, 1:] = rng.choice([0.0, -0.0, np.nan], (10, 3))
    for rows in (units, units[:1], units[:0]):
        ref = walk(rows)
        for out in (canonical_units(rows), _sign_rows(rows.copy())):
            assert np.array_equal(out, ref, equal_nan=True)
            assert np.array_equal(np.signbit(out), np.signbit(ref))
    for lead in (np.nan, 1e-12, -0.0):
        rows = units[:20].copy()
        rows[7, 0] = lead
        assert np.array_equal(canonical_units(rows), walk(rows), equal_nan=True)


@pytest.mark.parametrize("n", [1, 3, 4, 7, 8, 9])
def test_row_dots_broadcast_columns_match_einsum(n):
    # (n, 2, m) rows against (n, 1, m) rows: one row_dots call gives the
    # dot products of both families, as einsum gives each
    rng = np.random.default_rng(60 + n)
    x = rng.standard_normal((n, 2, 300)) * 10.0 ** rng.uniform(-8, 8, (1, 2, 300))
    y = rng.standard_normal((n, 1, 300))
    out = row_dots(x, y)
    assert out.shape == (2, 300)
    for k in range(2):
        assert np.array_equal(out[k], np.einsum("mn,mn->m", x[:, k].T.copy(), y[:, 0].T.copy()))


def test_flat_offset_orthogonality_enforced():
    with pytest.raises(ValueError):
        Flat(Subspace.span(E[0]), np.array([0.5, 0.0, 0.0]))
    flat = through_point(Subspace.span(E[0]), np.array([0.5, 1.0, 0.0]))
    assert np.allclose(flat.offset, [0.0, 1.0, 0.0])
