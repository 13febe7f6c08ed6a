import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from flatproc import constants, flat_geometry, measures, zonoid_engine
from flatproc.closed_form import hyperplane_intersection
from flatproc.flat_geometry import Subspace, complement_bases, haar_bases, orthonormalize
from flatproc.measures import SphereMeasure, integrate, t_lift
from flatproc.zonoid_engine import (MERGE_TOL, Zonotope, _merge, area_measure, from_measure,
                                    intrinsic_volume, merge_grassmann_atoms, mu_Q_r, support)

from _reference import (area_measure_total_mass, merge_all_pairs, mu_Q_r_total_mass,
                        parallelepiped_volume, random_rotation)

E = np.eye(3)


def cube_measure(n=3):
    eye = np.eye(n)
    return SphereMeasure.atoms(n, [(eye[i], 1.0 / n) for i in range(n)])


def random_even_measure(n, count, rng):
    units = rng.standard_normal((count, n))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    weights = 0.2 + rng.random(count)
    return SphereMeasure.atoms(n, list(zip(units, weights)))


def mu_q_r_bruteforce(q: SphereMeasure, r: int):
    """Defining integral evaluated directly: iterate over all ordered
    r-tuples of signed atoms (each +-pair contributes two points of half the
    pair mass) and accumulate nabla_r times the product of point masses on
    the intersection subspace.  Tuples reusing a pair span parallel vectors,
    so their parallelepiped volume is exactly zero and they are skipped
    (floating-point determinants of singular Grams are not reliably zero).
    """
    points = []
    for pair_id, (u, w) in enumerate(zip(q.units, q.weights.tolist())):
        points.append((pair_id, u, w / 2.0))
        points.append((pair_id, -u, w / 2.0))
    atoms = []
    for tup in product(points, repeat=r):
        ids = [i for i, _, _ in tup]
        if len(set(ids)) != r:
            continue
        units = [u for _, u, _ in tup]
        mass = float(np.prod([w for _, _, w in tup]))
        vol = parallelepiped_volume(units)
        if vol <= 1e-10:
            continue
        span = orthonormalize(units)
        from flatproc.flat_geometry import complement

        atoms.append((complement(span), vol * mass))
    return merge_grassmann_atoms(atoms)


def test_mu_q_r_matches_bruteforce_ordered_enumeration():
    rng = np.random.default_rng(21)
    cases = [(random_even_measure(n, count, rng), r)
             for n, r, count in ((3, 2, 4), (4, 2, 4), (4, 3, 4), (5, 2, 3), (5, 3, 5))]
    # three directions in the xy-plane: their three pairs share the
    # complement span(e2) and merge into one atom, next to the three pairs
    # with e2
    coplanar = SphereMeasure.atoms(3, [(E[0], 0.3), (E[1], 0.5),
                                       ((E[0] + E[1]) / np.sqrt(2.0), 0.7), (E[2], 0.4)])
    assert len(mu_Q_r(coplanar, 2).atoms) == 4
    for q, r in cases + [(coplanar, 2)]:
        fast = mu_Q_r(q, r)
        slow = mu_q_r_bruteforce(q, r)
        assert len(fast.atoms) == len(slow)
        for sub, w in fast.atoms:
            match = [w2 for s2, w2 in slow if s2.same_span(sub, tol=1e-8)]
            assert match, "fast-path atom missing from the defining integral"
            assert abs(w - match[0]) < 1e-12


def test_mu_q_r_cube_atoms_and_total_mass():
    q = cube_measure()
    mu = mu_Q_r(q, 2)
    assert len(mu.atoms) == 3
    # direct double sum over the 6 signed atoms: 24 ordered unit-volume
    # pairs, each of mass (1/6)^2
    assert mu.total_mass == pytest.approx(24.0 / 36.0, abs=1e-14)
    for sub, w in mu.atoms:
        assert w == pytest.approx(2.0 / 9.0, abs=1e-14)
        assert sub.k == 1


def test_mu_q_r_repeated_pair_contributes_nothing():
    q = SphereMeasure.atoms(3, [(E[0], 1.0)])
    assert mu_Q_r_total_mass(q, 2) == 0.0
    assert mu_Q_r(q, 2).total_mass == 0.0


def test_mu_q_r_range_validation():
    with pytest.raises(ValueError):
        mu_Q_r(cube_measure(), 1)
    with pytest.raises(ValueError):
        mu_Q_r(cube_measure(), 3)


@pytest.mark.parametrize("call, message", [
    (lambda q: mu_Q_r(q, 2.0), "r=2.0"), (lambda q: area_measure(q, 2.0), "r=2.0"),
    (lambda q: area_measure(q, True), "r=True"),
    (lambda q: intrinsic_volume(from_measure(q), 1.5), "m=1.5"),
    (lambda q: intrinsic_volume(from_measure(q), True), "m=True")])
def test_orders_must_be_integers(call, message):
    # a float order raised a TypeError from subset_indices, and m = True
    # returned V_1
    with pytest.raises(ValueError, match=f"need an integer .* got {message}"):
        call(cube_measure())


def test_numpy_integer_orders_are_orders():
    q = random_even_measure(4, 6, np.random.default_rng(57))
    assert intrinsic_volume(from_measure(q), np.int64(2)) == intrinsic_volume(from_measure(q), 2)
    assert np.array_equal(mu_Q_r(q, np.int64(3)).weights, mu_Q_r(q, 3).weights)
    assert np.array_equal(area_measure(q, np.int64(2)).components[0].weights,
                          area_measure(q, 2).components[0].weights)


@pytest.mark.parametrize("call", [lambda q: mu_Q_r(q, 2), lambda q: area_measure(q, 2),
                                  lambda q: hyperplane_intersection(4, 1.5, q, 2)],
                         ids=["mu_Q_r", "area_measure", "hyperplane_intersection"])
def test_each_zonoid_call_checks_one_stack(call, monkeypatch):
    # each call builds one GrassmannMeasure and checks its stack once
    checked, check_orthonormal = [], measures.check_orthonormal

    def spy(bases):
        checked.append(bases.shape)
        check_orthonormal(bases)

    monkeypatch.setattr(measures, "check_orthonormal", spy)
    monkeypatch.setattr(flat_geometry, "check_orthonormal", spy)
    call(random_even_measure(4, 6, np.random.default_rng(58)))
    assert len(checked) == 1 and checked[0][1:] == (2, 4)


def test_from_measure_single_segment():
    mu = SphereMeasure.atoms(3, [(E[0], 1.0)])
    z = from_measure(mu)
    assert len(z.units) == 1
    assert support(z, E[0]) == pytest.approx(0.5, abs=1e-15)


def test_from_measure_cube_support_values():
    z = from_measure(cube_measure())
    assert support(z, E[0]) == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert support(z, np.ones(3)) == pytest.approx(0.5, abs=1e-15)
    # hand oracle: (1/2) sum over signed atoms of mass |<v, x>|
    x = np.array([0.2, -0.7, 1.3])
    mu = cube_measure()
    direct = 0.5 * sum((w / 2.0) * (abs(u @ x) + abs(-u @ x))
                       for u, w in zip(mu.units, mu.weights.tolist()))
    assert support(z, x) == pytest.approx(direct, abs=1e-15)


def test_from_measure_empty_gives_origin():
    z = from_measure(SphereMeasure.atoms(3, []))
    assert support(z, np.ones(3)) == 0.0
    assert intrinsic_volume(z, 1) == 0.0
    with pytest.raises(ValueError):
        from_measure(SphereMeasure.uniform(3, 1.0))


def test_support_zero_and_homogeneity():
    z = from_measure(cube_measure())
    assert support(z, np.zeros(3)) == 0.0
    rng = np.random.default_rng(22)
    for _ in range(10):
        x = rng.standard_normal(3)
        assert support(z, 2.0 * x) == pytest.approx(2.0 * support(z, x), rel=1e-14)
        # sublinearity
        y = rng.standard_normal(3)
        assert support(z, x + y) <= support(z, x) + support(z, y) + 1e-14


def test_intrinsic_volume_segment_and_cube():
    seg = from_measure(SphereMeasure.atoms(3, [(E[0], 1.0)]))
    assert intrinsic_volume(seg, 0) == 1.0
    assert intrinsic_volume(seg, 1) == pytest.approx(1.0, abs=1e-15)
    assert intrinsic_volume(seg, 2) == 0.0
    z = from_measure(cube_measure())
    assert intrinsic_volume(z, 1) == pytest.approx(1.0, abs=1e-14)
    assert intrinsic_volume(z, 2) == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert intrinsic_volume(z, 3) == pytest.approx(1.0 / 27.0, abs=1e-14)


def hull_membership_volume(z: Zonotope, rng, samples=200_000):
    """Monte Carlo volume via hull facet membership of box-sampled points."""
    signs = np.array(list(product((-1.0, 1.0), repeat=len(z.units))))
    vertices = signs @ (z.units * z.half_lengths[:, None])
    hull = ConvexHull(vertices)
    lo, hi = vertices.min(axis=0), vertices.max(axis=0)
    pts = rng.random((samples, z.n)) * (hi - lo) + lo
    inside = np.all(pts @ hull.equations[:, :-1].T + hull.equations[:, -1] <= 1e-12,
                    axis=1)
    box = float(np.prod(hi - lo))
    frac = inside.mean()
    return box * frac, box * math.sqrt(frac * (1 - frac) / samples), hull.volume


def test_volume_against_hull_membership_oracle():
    rng = np.random.default_rng(23)
    z = from_measure(cube_measure())
    mc, se, exact_hull = hull_membership_volume(z, rng)
    v3 = intrinsic_volume(z, 3)
    assert abs(mc - v3) < max(3.0 * se, 0.01 * v3)
    assert abs(exact_hull - v3) < 1e-12
    zr = from_measure(random_even_measure(3, 5, rng))
    mc, se, exact_hull = hull_membership_volume(zr, rng)
    v3 = intrinsic_volume(zr, 3)
    assert abs(exact_hull - v3) < 1e-10 * max(1.0, v3)
    assert abs(mc - v3) < max(3.0 * se, 0.01 * v3)


def test_surface_area_against_hull_oracle():
    rng = np.random.default_rng(24)
    z = from_measure(random_even_measure(3, 5, rng))
    signs = np.array(list(product((-1.0, 1.0), repeat=len(z.units))))
    vertices = signs @ (z.units * z.half_lengths[:, None])
    hull = ConvexHull(vertices)
    assert intrinsic_volume(z, 2) == pytest.approx(hull.area / 2.0, rel=1e-10)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([0.5, 2.0]), st.integers(min_value=1, max_value=3))
def test_homogeneity_of_intrinsic_volumes(t, m):
    z = from_measure(cube_measure())
    scaled = z.scaled(t)
    assert intrinsic_volume(scaled, m) == pytest.approx(
        t ** m * intrinsic_volume(z, m), rel=1e-12)


def test_area_measure_homogeneity_exact():
    q = cube_measure()
    for t in (2.0, 0.5):
        total = area_measure_total_mass(q, 2)
        scaled_total = area_measure_total_mass(q.scaled(t), 2)
        assert scaled_total == pytest.approx(t ** 2 * total, rel=1e-13)


def test_rotation_equivariance():
    rng = np.random.default_rng(25)
    q = random_even_measure(3, 4, rng)
    rot = random_rotation(3, rng)
    rotated = SphereMeasure.atoms(3, [(rot @ u, w) for u, w in zip(q.units, q.weights.tolist())])
    z, zr = from_measure(q), from_measure(rotated)
    for m in range(4):
        assert intrinsic_volume(zr, m) == pytest.approx(
            intrinsic_volume(z, m), rel=1e-10, abs=1e-12)
    x = rng.standard_normal(3)
    assert support(zr, rot @ x) == pytest.approx(support(z, x), rel=1e-12)
    mix, mix_r = area_measure(q, 2), area_measure(rotated, 2)
    for (s1, w1), (s2, w2) in zip(mix.subspheres, mix_r.subspheres):
        assert abs(w1 - w2) < 1e-12
        rotated_sub = Subspace(s1.basis @ rot.T)
        assert rotated_sub.same_span(s2, tol=1e-10)


def test_area_measure_total_mass_volume_relation():
    # total-mass relation between the r-th area measure and V_r
    rng = np.random.default_rng(26)
    for n in (3, 4, 5):
        for _ in range(5):
            q = random_even_measure(n, n + 2, rng)
            z = from_measure(q)
            for r in range(2, n):
                total = area_measure_total_mass(q, r)
                lhs = math.comb(n, r) / (n * constants.ball_volume(n - r)) * total
                assert abs(lhs - intrinsic_volume(z, r)) < 1e-10


def test_area_measure_single_pair_is_zero():
    q = SphereMeasure.atoms(3, [(E[0], 1.0)])
    mix = area_measure(q, 2)
    assert mix.total_mass == 0.0


def test_area_measure_is_scaled_lift():
    q = cube_measure()
    r = 2
    lift = t_lift(mu_Q_r(q, r))
    mix = area_measure(q, r)
    scale = math.factorial(r) * math.comb(2, r)
    f = lambda u: np.abs(u[:, 0]) + u[:, 2] ** 2
    v_lift, _ = integrate(lift, f)
    v_mix, _ = integrate(mix, f)
    assert v_lift == pytest.approx(scale * v_mix, rel=1e-13)


def test_merge_grassmann_atoms_sums_signed_weights():
    # opposite weights on one span (the second basis rotated in the plane)
    # cancel to 0; an atom without a partner keeps its weight
    turn = np.array([[0.6, -0.8], [0.8, 0.6]])
    merged = merge_grassmann_atoms([(Subspace(E[:2]), 0.7), (Subspace(E[1:]), -0.4),
                                    (Subspace(turn @ E[:2]), -0.7)])
    assert len(merged) == 2
    assert merged[0][0].same_span(Subspace(E[:2])) and merged[0][1] == 0.0
    assert merged[1][0].same_span(Subspace(E[1:])) and merged[1][1] == -0.4


def merge_by_loop(projectors, tol):
    """The atom merge as a plain loop, the reference for `_merge`: in input
    order each projector joins the first representative within tol of it in
    Frobenius norm, else it starts a class."""
    reps, labels = [], np.empty(len(projectors), dtype=np.intp)
    for i, p in enumerate(projectors):
        hit = np.flatnonzero(np.linalg.norm(projectors[reps] - p, axis=(1, 2)) < tol)
        if hit.size:
            labels[i] = hit[0]
        else:
            labels[i] = len(reps)
            reps.append(i)
    return reps, labels


def planted_projectors(n, k, count, rng, tol, scales=(0.0, 0.5, 2.0, 0.6, 1.2)):
    """Projectors of `count` Haar k-planes of R^n and, for each, turned copies
    at Frobenius distances scale * tol, in shuffled order.  The default
    scales give a copy at 0.5 tol (one class with it), 2 tol (a class of its
    own) and a chain 0.6 tol, 1.2 tol (near the copy at 0.6 tol, not the
    original)."""
    bases = haar_bases(count, n, k, rng)
    out = []
    for b in bases:
        w = complement_bases(b[None])[0, 0]
        for d in np.multiply(scales, tol).tolist():
            theta = math.asin(d / math.sqrt(2.0))  # |P - P'| = sqrt(2) sin(theta)
            turned = b.copy()
            turned[0] = math.cos(theta) * b[0] + math.sin(theta) * w
            out.append(turned.T @ turned)
    return np.array(out)[rng.permutation(len(scales) * count)]


@pytest.mark.parametrize("block_rows", [1, 90, 400, zonoid_engine.BLOCK_ROWS])
@pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (5, 3)])
def test_merge_matches_the_loop(n, k, block_rows, monkeypatch):
    # the stack of 40 in blocks of 1, 2 and 10 rows, and in one block
    monkeypatch.setattr(zonoid_engine, "BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(90 + n)
    projectors = planted_projectors(n, k, 8, rng, MERGE_TOL)
    reps, labels = _merge(projectors, MERGE_TOL)
    ref_reps, ref_labels = merge_by_loop(projectors, MERGE_TOL)
    assert reps == ref_reps and np.array_equal(labels, ref_labels)
    assert 8 < len(reps) < 40  # the planted pairs give both outcomes


# the tolerances `_merge` runs at: atoms, Grassmann supports, sphere supports
MERGE_TOLS = [MERGE_TOL, 1e-10, math.sqrt(2.0) * 1e-12]


def assert_merge_is_the_all_pairs_rule(stack, tol):
    reps, labels = _merge(stack, tol)
    ref_reps, ref_labels = merge_all_pairs(stack, tol)
    assert reps == ref_reps and labels.dtype == ref_labels.dtype
    assert np.array_equal(labels, ref_labels)
    return reps


@pytest.mark.parametrize("tol", MERGE_TOLS)
@pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (5, 3)])
def test_merge_matches_the_all_pairs_rule_at_its_tolerances(n, k, tol):
    # copies planted just inside and just outside the tolerance, the Gram
    # screen's worst case, give the all-pairs rule's classes
    rng = np.random.default_rng([92, n, k])
    stack = planted_projectors(n, k, 8, rng, tol, (0.0, 1 - 1e-6, 1 + 1e-6))
    reps = assert_merge_is_the_all_pairs_rule(stack, tol)
    if tol >= 1e-10:  # the turned copies resolve 1e-6 of tol: both outcomes occur
        assert 8 < len(reps) < 24


@pytest.mark.parametrize("tol", MERGE_TOLS)
def test_merge_of_empty_one_row_and_duplicate_stacks_matches_the_all_pairs_rule(tol):
    rng = np.random.default_rng(93)
    planes = haar_bases(5, 4, 2, rng)
    base = np.swapaxes(planes, 1, 2) @ planes
    for stack in (np.zeros((0, 4, 4)), base[:1], np.repeat(base, 3, axis=0),
                  np.tile(base, (3, 1, 1)), np.zeros((4, 4, 4))):
        assert_merge_is_the_all_pairs_rule(stack, tol)
    assert _merge(np.repeat(base, 3, axis=0), tol)[0] == [0, 3, 6, 9, 12]


def test_merge_of_a_stack_of_several_row_blocks_matches_the_all_pairs_rule():
    stack = planted_projectors(4, 2, 60, np.random.default_rng(94), MERGE_TOL)
    assert len(stack) > zonoid_engine.BLOCK_ROWS // len(stack)  # more than one block
    assert_merge_is_the_all_pairs_rule(stack, MERGE_TOL)


def test_mu_q_r_temporaries_stay_bounded_by_the_row_blocks():
    # 30 atoms in R^4 at r = 3: 4,060 kept subsets, whose table of all pairs
    # would hold 4,060^2 doubles, 132 MB, unblocked (at 50 atoms, 3 GB)
    q = random_even_measure(4, 30, np.random.default_rng(95))
    tracemalloc.start()
    try:
        mu = mu_Q_r(q, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(mu.bases) == math.comb(30, 3)
    assert peak < 16 << 20


def test_merge_of_empty_and_one_atom_input():
    reps, labels = _merge(np.zeros((0, 3, 3)), MERGE_TOL)
    assert reps == [] and labels.shape == (0,)
    assert np.array_equal(np.bincount(labels, np.zeros(0), len(reps)), np.zeros(0))
    reps, labels = _merge(np.eye(3)[None], MERGE_TOL)
    assert reps == [0] and labels.tolist() == [0]
