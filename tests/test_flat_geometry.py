import math

import numpy as np
import pytest

from flatproc.flat_geometry import (DegeneratePairError, Flat, Subspace,
                                    canonical_unit, canonical_units,
                                    closest_pair, complement,
                                    grassmann_distance, grassmann_metric,
                                    haar_bases, haar_sample, orthonormalize,
                                    parallelepiped_volume, principal_angles,
                                    random_rotation, rotate_subspace,
                                    row_dots, row_norms, subspace_determinant)

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


@pytest.mark.parametrize("theta", [1e-12, 1e-9, 1e-6, 1e-3, 0.7, math.pi / 2])
def test_principal_angles_keep_small_angles(theta):
    # a plane of R^4 turned by theta in one direction: one principal angle
    # theta, one 0; arccos of the cosine reads 0 below about 1e-8
    turned = np.array([[math.cos(theta), 0.0, math.sin(theta), 0.0], [0.0, 1.0, 0.0, 0.0]])
    angles = principal_angles(Subspace(np.eye(4)[:2]), Subspace(turned))
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
    e_flat = Flat.through_point(Subspace.span(E[0]), np.zeros(3))
    f_flat = Flat.through_point(Subspace.span(E[1]), E[2])
    seg = closest_pair(e_flat, f_flat)
    assert abs(seg.length - 1.0) < 1e-12
    assert np.allclose(seg.midpoint, [0.0, 0.0, 0.5])
    assert np.allclose(np.abs(seg.direction), E[2])


def test_closest_pair_parallel_lines_degenerate():
    e_flat = Flat.through_point(Subspace.span(E[0]), np.zeros(3))
    f_flat = Flat.through_point(Subspace.span(E[0]), E[1])
    with pytest.raises(DegeneratePairError, match="degenerate pair"):
        closest_pair(e_flat, f_flat)


def test_closest_pair_hyperplanes_intersect_in_line():
    u1, u2 = E[2], (E[0] + E[2]) / math.sqrt(2)
    h1 = Flat.through_point(complement(Subspace.span(u1)), np.zeros(3))
    h2 = Flat.through_point(complement(Subspace.span(u2)), 0.4 * u2)
    flat = closest_pair(h1, h2)
    assert isinstance(flat, Flat)
    assert flat.k == 1
    # null-space oracle: direction solves u1.x = 0 and u2.x = 0
    normal_stack = np.vstack([u1, u2])
    assert np.max(np.abs(normal_stack @ flat.direction.basis[0])) < 1e-10
    assert h1.contains_flat(flat) and h2.contains_flat(flat)


def test_closest_pair_feet_properties_random():
    rng = np.random.default_rng(11)
    for _ in range(30):
        e_flat = Flat.through_point(haar_sample(4, 1, rng), rng.standard_normal(4))
        f_flat = Flat.through_point(haar_sample(4, 2, rng), rng.standard_normal(4))
        seg = closest_pair(e_flat, f_flat)
        half = 0.5 * seg.length * seg.direction
        feet = (seg.midpoint + half, seg.midpoint - half)
        hits = {min(e_flat.distance_to_point(p) for p in feet) < 1e-9,
                min(f_flat.distance_to_point(p) for p in feet) < 1e-9}
        assert hits == {True}
        for basis in (e_flat.direction.basis, f_flat.direction.basis):
            assert np.max(np.abs(basis @ seg.direction)) < 1e-9


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
    assert np.allclose(principal_angles(sub, sub), 0.0)


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


def test_flat_offset_orthogonality_enforced():
    with pytest.raises(ValueError):
        Flat(Subspace.span(E[0]), np.array([0.5, 0.0, 0.0]))
    flat = Flat.through_point(Subspace.span(E[0]), np.array([0.5, 1.0, 0.0]))
    assert np.allclose(flat.offset, [0.0, 1.0, 0.0])
