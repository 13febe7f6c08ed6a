import math
import re

import numpy as np
import pytest
from scipy.integrate import trapezoid

from flatproc import closed_form, constants, flat_geometry
from flatproc.closed_form import (WindowDescriptor, asymptotic_covariance,
                                  ball_chord_power_integral,
                                  ball_cross_section_integral, c_constant,
                                  covariance_cpi_form, cross_sections,
                                  hyperplane_intersection, intersection_density,
                                  isoperimetric_bound, mean_F_alpha, pair_integral,
                                  proximity_directional,
                                  proximity_directional_measure,
                                  proximity_intensity, proximity_intensity_two,
                                  proximity_length_interval,
                                  weibull_beta, weibull_cdf,
                                  weibull_limit_intensity)
from flatproc.flat_geometry import Subspace
from flatproc.measures import (DirectionSet, GrassmannMeasure, SphereMeasure,
                               symmetrize_line_measure)
from flatproc.zonoid_engine import area_measure, from_measure, intrinsic_volume

from _reference import random_rotation, rotate_subspace

E = np.eye(3)


def axes_lines(n=3):
    eye = np.eye(n)
    return GrassmannMeasure.discrete(
        [(Subspace(eye[i:i + 1]), 1.0 / n) for i in range(n)])


def random_line_measure(n, count, rng):
    units = rng.standard_normal((count, n))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    w = rng.random(count) + 0.2
    w /= w.sum()
    return GrassmannMeasure.discrete(
        [(Subspace(units[i:i + 1]), w[i]) for i in range(count)])


def test_c_constant_values_and_symmetry():
    assert c_constant(3, 1, 1) == pytest.approx(math.pi / 4.0, abs=1e-14)
    assert c_constant(4, 1, 1) == pytest.approx(8.0 / (3.0 * math.pi), abs=1e-14)
    for n in range(2, 9):
        for r in range(1, n):
            for s in range(1, n - r + 1):
                assert c_constant(n, r, s) == c_constant(n, s, r)
    with pytest.raises(ValueError):
        c_constant(3, 3, 1)
    with pytest.raises(ValueError):
        c_constant(3, 2, 2)


def test_proximity_intensity_isotropic_and_axes():
    iso = GrassmannMeasure.isotropic(3, 1, 1.0)
    assert proximity_intensity(3, 1, 1.0, iso, 1.0) == pytest.approx(
        math.pi / 4.0, abs=1e-14)
    assert proximity_intensity(3, 1, 1.0, axes_lines(), 1.0) == pytest.approx(
        2.0 / 3.0, abs=1e-14)
    assert proximity_intensity(3, 1, 0.0, axes_lines(), 1.0) == 0.0
    with pytest.raises(ValueError, match="2k < n"):
        proximity_intensity(4, 2, 1.0, GrassmannMeasure.isotropic(4, 2, 1.0), 1.0)


def test_proximity_intensity_rotation_invariant_exact():
    rng = np.random.default_rng(51)
    q = random_line_measure(4, 5, rng)
    rot = random_rotation(4, rng)
    rotated = GrassmannMeasure.discrete(
        [(rotate_subspace(s, rot), w) for s, w in q.atoms])
    assert proximity_intensity(4, 1, 1.3, q, 0.7) == pytest.approx(
        proximity_intensity(4, 1, 1.3, rotated, 0.7), rel=1e-12)


def test_proximity_intensity_two_examples():
    iso3 = GrassmannMeasure.isotropic(3, 1, 1.0)
    single = proximity_intensity(3, 1, 1.0, iso3, 1.0)
    assert proximity_intensity_two(3, 1, 1, 1.0, 1.0, iso3, iso3, 1.0) \
        == pytest.approx(2.0 * single, abs=1e-14)
    assert proximity_intensity_two(3, 1, 1, 0.0, 1.0, iso3, iso3, 1.0) == 0.0
    iso4 = GrassmannMeasure.isotropic(4, 1, 1.0)
    assert proximity_intensity_two(4, 1, 1, 1.0, 1.0, iso4, iso4, 1.0) \
        == pytest.approx(8.0 / 3.0, abs=1e-13)
    with pytest.raises(ValueError):
        proximity_intensity_two(3, 1, 2, 1.0, 1.0, iso3,
                                GrassmannMeasure.isotropic(3, 2, 1.0), 1.0)


def test_proximity_directional_full_sphere_is_one():
    value, se = proximity_directional(3, 1, axes_lines(),
                                      DirectionSet.full_sphere(3))
    assert value == 1.0 and se == 0.0


def test_proximity_directional_isotropic_rotation_invariant():
    iso = GrassmannMeasure.isotropic(3, 1, 1.0)
    rng = np.random.default_rng(52)
    values = []
    for _ in range(3):
        axis = rng.standard_normal(3)
        cap = DirectionSet.double_cap(axis, 0.6)
        value, se = proximity_directional(3, 1, iso, cap, rng=rng, samples=4_000)
        values.append((value, se))
    for (v1, s1), (v2, s2) in zip(values, values[1:]):
        assert abs(v1 - v2) < 3.0 * math.hypot(s1, s2)


def test_proximity_directional_matches_area_measure_route():
    # ratio form vs the normalized second-order area data of the zonotope
    rng = np.random.default_rng(53)
    for n in (3, 4):
        q = random_line_measure(n, 4, rng)
        axis = rng.standard_normal(n)
        cap = DirectionSet.double_cap(axis, 0.5)
        direct, se = proximity_directional(n, 1, q, cap)
        assert se == 0.0
        mixture = proximity_directional_measure(n, q)
        via_mixture = 0.0
        for sub, w in mixture.subspheres:
            sigma, sigma_se = cap.subsphere_measure(sub)
            assert sigma_se == 0.0
            via_mixture += w * sigma
        total = sum(w * constants.sphere_surface(s.k)
                    for s, w in mixture.subspheres)
        assert abs(direct - via_mixture / total * total) < 1e-10
        assert abs(direct - via_mixture) < 1e-10  # mixture is normalized


def test_directional_measure_equals_normalized_area_measure():
    # proximity_directional_measure is mu_Q_2 of the symmetrized law, so this
    # checks only its normalization against the area measure; the independent
    # check is test_proximity_directional_matches_area_measure_route, which
    # goes through pair_integral
    rng = np.random.default_rng(59)
    for n in (3, 4):
        q = random_line_measure(n, 5, rng)
        mixture = proximity_directional_measure(n, q)
        s2 = area_measure(symmetrize_line_measure(q), 2)
        total = sum(w * constants.sphere_surface(s.k) for s, w in s2.subspheres)
        normalized = [(s, w / total) for s, w in s2.subspheres]
        assert len(mixture.subspheres) == len(normalized)
        for sub, weight in mixture.subspheres:
            match = [w for s, w in normalized if s.same_span(sub, tol=1e-8)]
            assert match and abs(weight - match[0]) < 1e-10


def test_proximity_zonoid_identity_for_lines():
    # proximity equals gamma^2 kappa_{n-2} delta^{n-2} V_2 of the zonotope
    rng = np.random.default_rng(54)
    for n in (3, 4, 5):
        q = random_line_measure(n, n + 1, rng)
        gamma, delta = 0.8, 1.3
        pi_value = proximity_intensity(n, 1, gamma, q, delta)
        z = from_measure(symmetrize_line_measure(q))
        rhs = gamma ** 2 * constants.ball_volume(n - 2) * delta ** (n - 2) \
            * intrinsic_volume(z, 2)
        assert abs(pi_value - rhs) < 1e-12


def test_intersection_density_fixed_planes():
    l1, l2 = Subspace(E[:2]), Subspace(E[[0, 2]])
    value, se = intersection_density(
        3, [2, 2], [1.0, 1.0],
        [GrassmannMeasure.discrete([(l1, 1.0)]),
         GrassmannMeasure.discrete([(l2, 1.0)])])
    from flatproc.flat_geometry import subspace_determinant

    assert se == 0.0
    assert value == pytest.approx(subspace_determinant([l1, l2]), abs=1e-14)


def test_intersection_density_identical_atoms_vanish():
    q = GrassmannMeasure.discrete([(Subspace(E[:2]), 1.0)])
    value, _ = intersection_density(3, [2, 2], [1.0, 1.0], [q, q],
                                    same_process=True)
    assert value == 0.0


def test_intersection_density_g_on_views_equals_per_row_subspaces(monkeypatch):
    from flatproc import closed_form

    rng = np.random.default_rng(34)
    planes = GrassmannMeasure.discrete([(Subspace(b), 0.2 + rng.random())
                                        for b in flat_geometry.haar_bases(5, 3, 2, rng)])
    iso32, iso43 = GrassmannMeasure.isotropic(3, 2, 1.0), GrassmannMeasure.isotropic(4, 3, 0.5)
    hyperplanes = GrassmannMeasure.discrete([(Subspace(b), 1.0)
                                             for b in flat_geometry.haar_bases(3, 4, 3, rng)])
    g = lambda sub: abs(float(sub.basis[0] @ np.arange(1.0, sub.n + 1.0))) + sub.k
    calls = [lambda: intersection_density(3, [2, 2], [1.0, 2.0], [iso32, iso32], g,
                                          rng=35, samples=900),
             lambda: intersection_density(3, [2, 2], [1.0, 1.0], [iso32, planes], g,
                                          rng=36, samples=900),
             lambda: intersection_density(3, [2, 2], [1.0, 1.0], [planes, planes], g),
             lambda: intersection_density(4, [3, 3, 3], [1.0] * 3, [iso43, hyperplanes, iso43],
                                          g, same_process=False, rng=37, samples=900)]
    viewed = [call() for call in calls]
    monkeypatch.setattr(closed_form, "subspace_views",
                        lambda bases: tuple(Subspace(b) for b in bases))
    assert viewed == [call() for call in calls]
    assert all(se > 0.0 for _, se in viewed[:2]) and viewed[2][1] == 0.0


def test_intersection_density_isotropic_plane_mc():
    iso = GrassmannMeasure.isotropic(2, 1, 1.0)
    value, se = intersection_density(2, [1, 1], [1.0, 1.0], [iso, iso],
                                     same_process=True, rng=3, samples=30_000)
    assert abs(value - 1.0 / math.pi) < 3.0 * se


def test_intersection_density_directional_functional():
    # g restricted to the intersection line of two fixed planes
    l1, l2 = Subspace(E[:2]), Subspace(E[[0, 2]])
    g = lambda sub: float(np.abs(sub.basis[0] @ E[0]))
    value, _ = intersection_density(
        3, [2, 2], [2.0, 1.0],
        [GrassmannMeasure.discrete([(l1, 1.0)]),
         GrassmannMeasure.discrete([(l2, 1.0)])], g=g)
    from flatproc.flat_geometry import subspace_determinant

    assert value == pytest.approx(2.0 * subspace_determinant([l1, l2]) * 1.0,
                                  abs=1e-12)


def test_hyperplane_intersection_scaling_and_mass():
    cube = SphereMeasure.atoms(3, [(E[i], 1.0 / 3.0) for i in range(3)])
    measure = hyperplane_intersection(3, 1.0, cube, 2)
    assert measure.total_mass == pytest.approx(1.0 / 3.0, abs=1e-14)
    single = SphereMeasure.atoms(3, [(E[0], 1.0)])
    assert hyperplane_intersection(3, 1.0, single, 2).total_mass == 0.0
    doubled = hyperplane_intersection(3, 2.0, cube, 2)
    assert doubled.total_mass == pytest.approx(4.0 / 3.0, abs=1e-14)


@pytest.mark.parametrize("n, gamma, message", [
    (4, 1.0, "^n=4 does not match"), (3, -1.0, "^gamma must be finite and nonnegative"),
    (3, math.nan, "^gamma must be finite and nonnegative"),
    (3, math.inf, "^gamma must be finite and nonnegative")])
def test_hyperplane_intersection_checks_n_and_gamma_first(n, gamma, message, monkeypatch):
    # a measure on R^3 with n = 4, and gamma = -1, which gave the gamma = 1
    # weights at r = 2, fail by name before any atom is built
    def no_atoms(*args):
        raise AssertionError("built atoms before checking n and gamma")

    monkeypatch.setattr(closed_form, "_hyperplane_atoms", no_atoms)
    cube = SphereMeasure.atoms(3, [(E[i], 1.0 / 3.0) for i in range(3)])
    with pytest.raises(ValueError, match=message):
        hyperplane_intersection(n, gamma, cube, 2)


@pytest.mark.parametrize("gamma, r", [(1e200, 2), (1e-200, 2), (1e155, 2), (1e110, 3),
                                      (1e-110, 3)])
def test_hyperplane_intersection_names_gamma_when_its_weights_leave_the_float_range(gamma, r):
    # gamma^r / r! over- or underflows; before, 1e200 raised OverflowError
    # and 1e-200 failed on the weights without naming gamma
    q = SphereMeasure.atoms(4, [(np.eye(4)[i], 0.25) for i in range(4)])
    with pytest.raises(ValueError, match=re.escape(
            f"gamma={gamma!r} at r={r} puts the atom weights gamma^r / r! * mu_Q_r "
            "outside the float range")):
        hyperplane_intersection(4, gamma, q, r)


@pytest.mark.parametrize("gamma", [1e150, 1e-150])
def test_hyperplane_intersection_at_extreme_representable_gamma(gamma):
    q = SphereMeasure.atoms(3, [(E[i], 1.0 / 3.0) for i in range(3)])
    unit = hyperplane_intersection(3, 1.0, q, 2)
    scaled = hyperplane_intersection(3, gamma, q, 2)
    np.testing.assert_array_equal(scaled.bases, unit.bases)
    np.testing.assert_allclose(scaled.weights, unit.weights * gamma ** 2, rtol=1e-15)


@pytest.mark.parametrize("n, r", [(3, 2), (4, 2), (4, 3)])
def test_hyperplane_intersection_at_gamma_zero_is_the_zero_measure(n, r):
    rng = np.random.default_rng([56, n])
    units = rng.standard_normal((n + 1, n))
    q = SphereMeasure.atoms(n, list(zip(units, 0.5 + rng.random(n + 1))))
    zero = hyperplane_intersection(n, 0.0, q, r)
    assert (zero.n, zero.k, zero.bases.shape, zero.total_mass) == (n, n - r, (0, n - r, n), 0.0)
    with pytest.raises(ValueError, match="r=1"):
        hyperplane_intersection(n, 0.0, q, 1)


def test_hyperplane_intersection_total_mass_vs_iterated_c_product():
    # isotropic total mass: (gamma^r / r!) prod_j c(n, j, 1), checked by
    # Monte Carlo over Haar-uniform normal tuples
    rng = np.random.default_rng(55)
    n, r, gamma = 4, 3, 1.0
    closed = gamma ** r / math.factorial(r)
    for j in range(1, r):
        closed *= c_constant(n, j, 1)
    samples = 20_000
    units = rng.standard_normal((samples, r, n))
    units /= np.linalg.norm(units, axis=2, keepdims=True)
    from _reference import parallelepiped_volume

    vols = np.array([parallelepiped_volume(units[i]) for i in range(samples)])
    mc = gamma ** r / math.factorial(r) * vols.mean()
    se = gamma ** r / math.factorial(r) * vols.std(ddof=1) / math.sqrt(samples)
    assert abs(mc - closed) < 3.0 * se


def test_mean_f_alpha_collapses_to_proximity():
    iso = GrassmannMeasure.isotropic(3, 1, 1.0)
    window = WindowDescriptor.unit_cube(3)
    value, se = mean_F_alpha(3, 1, 1.0, iso, 1.0, 0.0, window)
    assert se == 0.0
    assert value == pytest.approx(proximity_intensity(3, 1, 1.0, iso, 1.0),
                                  abs=1e-14)
    one, _ = mean_F_alpha(3, 1, 1.0, iso, 1.0, 1.0, window)
    assert one == pytest.approx(math.pi / 8.0, abs=1e-14)
    scaled, _ = mean_F_alpha(3, 1, 1.0, iso, 1.0, 0.0, window.rescaled(2.0))
    assert scaled == pytest.approx(8.0 * value, rel=1e-14)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -1.0])
def test_mean_f_alpha_rejects_bad_alpha(alpha):
    iso = GrassmannMeasure.isotropic(3, 1, 1.0)
    with pytest.raises(ValueError, match="alpha"):
        mean_F_alpha(3, 1, 1.0, iso, 1.0, alpha, WindowDescriptor.unit_cube(3))


def test_mean_f_alpha_monte_carlo_cross_check():
    from flatproc.derived_processes import f_alpha, proximity
    from flatproc.simulator import FlatProcessSpec, sample_poisson

    iso = GrassmannMeasure.isotropic(3, 1, 1.0)
    window = WindowDescriptor.unit_cube(3)
    spec = FlatProcessSpec(3, 1, 1.0, iso)
    radius = window.circumradius() + 0.5
    values = []
    for i in range(4_000):
        sample = sample_poisson(spec, radius, [56, i])
        seg = proximity(sample, delta=1.0)
        values.append(f_alpha(seg, 1.0, window))
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1)) / math.sqrt(len(values))
    target, _ = mean_F_alpha(3, 1, 1.0, iso, 1.0, 1.0, window)
    assert abs(mean - target) < 3.0 * se


def test_cross_section_ball_radial_oracle():
    # int_0^1 4(1-r^2) 2 pi r dr = 2 pi
    assert ball_cross_section_integral(3, 1, 1.0) == pytest.approx(
        2.0 * math.pi, abs=1e-12)
    grid = np.linspace(0.0, 1.0, 200_001)
    chords_sq = 4.0 * (1.0 - grid ** 2)
    quad = trapezoid(chords_sq * 2.0 * math.pi * grid, grid)
    assert ball_cross_section_integral(3, 1, 1.0) == pytest.approx(quad, rel=1e-8)


def test_cross_section_box_axis_aligned_value_is_exact():
    # axis-aligned direction: every chord of the unit cube has length 1 over
    # a unit-square offset region, so the squared cross-section integral is 1
    window = WindowDescriptor.unit_cube(3)
    assert cross_sections(3, 1, window, E[None, :1])[0] == pytest.approx(1.0, abs=1e-12)


def squared_chords(u, half, points):
    """Squared chord lengths of the lines points + t u in the box [-half, half],
    for points in u-perp and a direction u with no zero coordinate."""
    lo, hi = (-half - points) / u, (half - points) / u
    enter, leave = np.minimum(lo, hi).max(axis=-1), np.maximum(lo, hi).min(axis=-1)
    return np.maximum(leave - enter, 0.0) ** 2


def box_shadow(u, half):
    """An orthonormal basis of u-perp, and the box's corners and edges (pairs
    of corner indices) projected there."""
    perp = np.linalg.svd(u[None])[2][1:]
    signs = np.array(np.meshgrid(*[(-1.0, 1.0)] * u.size, indexing="ij")).reshape(u.size, -1).T
    edges = [(a, b) for a in range(len(signs)) for b in range(a + 1, len(signs))
             if np.sum(signs[a] != signs[b]) == 1]
    return perp, signs * half @ perp.T, edges


def box_cross_section_by_quadrature(u, half):
    """integral over u-perp of the squared chord of the box, by scipy quad over
    the shadow, cut at the projected corners (n = 2) or, for n = 3, nested:
    the inner integral cut where the projected edges cross its line, the outer
    one at the projected corners and the crossings of projected edges."""
    from scipy.integrate import quad

    perp, corners, edges = box_shadow(u, half)
    tol = dict(epsabs=0.0, epsrel=1e-13, limit=200)
    if u.size == 2:
        ys = np.sort(corners[:, 0])
        return quad(lambda y: squared_chords(u, half, y * perp[0]), ys[0], ys[-1],
                    points=ys[1:-1], **tol)[0]

    def inner(y1):
        cuts = [corners[a, 1] + (y1 - corners[a, 0]) * (corners[b, 1] - corners[a, 1])
                / (corners[b, 0] - corners[a, 0]) for a, b in edges
                if min(corners[a, 0], corners[b, 0]) <= y1 <= max(corners[a, 0], corners[b, 0])]
        cuts = np.sort(cuts)
        if cuts[-1] - cuts[0] <= 0.0:
            return 0.0
        return quad(lambda y2: squared_chords(u, half, y1 * perp[0] + y2 * perp[1]),
                    cuts[0], cuts[-1], points=cuts[1:-1], **tol)[0]

    cuts = list(corners[:, 0])
    for i, (a, b) in enumerate(edges):
        for c, d in edges[i + 1:]:
            step = np.column_stack([corners[b] - corners[a], corners[c] - corners[d]])
            if abs(np.linalg.det(step)) > 1e-12:
                s, t = np.linalg.solve(step, corners[c] - corners[a])
                if 0.0 < s < 1.0 and 0.0 < t < 1.0:
                    cuts.append(corners[a, 0] + s * (corners[b, 0] - corners[a, 0]))
    cuts = np.unique(cuts)
    return quad(inner, cuts[0], cuts[-1], points=cuts[1:-1], **tol)[0]


@pytest.mark.parametrize("n, sides, count", [(2, (1.0, 2.5), 3), (3, (1.0, 2.0, 0.5), 2)])
def test_box_cross_sections_match_quadrature(n, sides, count):
    from flatproc.flat_geometry import haar_bases

    window = WindowDescriptor.box(sides, scale=1.3)
    bases = haar_bases(count, n, 1, 20 + n)
    exact = cross_sections(n, 1, window, bases)
    for basis, value in zip(bases, exact):
        assert cross_sections(n, 1, window, basis[None])[0] == value
        quadrature = box_cross_section_by_quadrature(basis[0], 0.65 * np.array(sides))
        assert value == pytest.approx(quadrature, rel=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_box_cross_sections_scale_with_rho_to_the_n_plus_1(n):
    from flatproc.flat_geometry import haar_bases

    sides = np.linspace(0.5, 2.0, n)
    bases = np.concatenate([haar_bases(20, n, 1, 30 + n), np.eye(n)[:, None]])
    unit = cross_sections(n, 1, WindowDescriptor.box(sides), bases)
    for rho in (0.01, 3.0, 250.0):
        scaled = cross_sections(n, 1, WindowDescriptor.box(sides, scale=rho), bases)
        assert np.allclose(scaled, rho ** (n + 1) * unit, rtol=1e-13, atol=0.0)


def test_b_factor_isotropic_full():
    from flatproc.closed_form import _b_factors

    iso = GrassmannMeasure.isotropic(3, 1, 1.0)
    value = _b_factors(iso, DirectionSet.full_sphere(3), None)(np.empty((1, 1, 3)), None, None)
    assert value == pytest.approx(math.pi / 2.0, abs=1e-14)


def test_asymptotic_covariance_isotropic_ball():
    iso = GrassmannMeasure.isotropic(3, 1, 1.0)
    value, se = asymptotic_covariance(3, 1, 1.0, iso, 1.0, 0.0, 0.0,
                                      WindowDescriptor.ball(1.0))
    assert se == 0.0
    assert value == pytest.approx(math.pi ** 3 / 2.0, abs=1e-12)
    empty = DirectionSet.double_cap(E[0], 1.5)  # empty cap
    zero, _ = asymptotic_covariance(3, 1, 1.0, axes_lines(), 1.0, 0.0, 0.0,
                                    WindowDescriptor.ball(1.0), empty, empty)
    assert zero == 0.0


def test_asymptotic_covariance_discrete_box_window():
    # axes lines over the unit cube: b(M; full) = 4/3 per axis (exact), the
    # squared line cross-section integral is 1 per axis, so I = 16/9
    window = WindowDescriptor.unit_cube(3)
    value, se = asymptotic_covariance(3, 1, 1.0, axes_lines(), 1.0, 0.0, 0.0, window)
    assert value == pytest.approx(16.0 / 9.0, abs=1e-12)
    assert se == 0.0


@pytest.mark.parametrize("call", ["contains", "cross_sections",
                                  "asymptotic_covariance", "asymptotic_covariance_planes"])
def test_box_windows_reject_a_wrong_side_count_or_k(call, monkeypatch):
    import flatproc.closed_form as closed_form

    def no_draws(*args, **kwargs):
        raise AssertionError("drew Monte-Carlo samples before checking the box")

    monkeypatch.setattr(closed_form, "_draws", no_draws)
    monkeypatch.setattr(closed_form, "_pair_integrand", no_draws)
    flat_box = WindowDescriptor.box((1.0, 2.0))
    iso = GrassmannMeasure.isotropic(3, 1, 1.0)
    calls = {
        "contains": lambda: flat_box.contains(np.zeros((4, 3))),
        "cross_sections": lambda: cross_sections(3, 1, flat_box, E[None, :1]),
        "asymptotic_covariance": lambda: asymptotic_covariance(3, 1, 1.0, iso, 1.0, 0.0, 0.0,
                                                               flat_box),
        "asymptotic_covariance_planes": lambda: asymptotic_covariance(
            5, 2, 1.0, GrassmannMeasure.isotropic(5, 2, 1.0), 1.0, 0.0, 0.0,
            WindowDescriptor.unit_cube(5)),
    }
    match = "k = 1" if call.endswith("planes") else \
        "box side count must match the ambient dimension"
    with pytest.raises(ValueError, match=match):
        calls[call]()


def test_covariance_chord_power_identity():
    direct, _ = asymptotic_covariance(3, 1, 1.0,
                                      GrassmannMeasure.isotropic(3, 1, 1.0),
                                      1.0, 0.0, 0.0, WindowDescriptor.ball(1.0))
    assert abs(direct - covariance_cpi_form(3, 1, WindowDescriptor.ball(1.0))) < 1e-6
    # second ambient dimension for good measure
    direct5, _ = asymptotic_covariance(5, 2, 1.0,
                                       GrassmannMeasure.isotropic(5, 2, 1.0),
                                       1.0, 0.0, 0.0, WindowDescriptor.ball(1.0))
    assert abs(direct5 - covariance_cpi_form(5, 2, WindowDescriptor.ball(1.0))) < 1e-6


def test_chord_power_integral_ball_known_value():
    # p = n + 1 relates to the squared volume: for the unit ball in R^3,
    # int ell_1(B cap g)^4 d mu_1 = omega_2 int_0^1 (2 sqrt(1-r^2))^4 r dr
    direct = ball_chord_power_integral(3, 1.0, 4.0)
    exact = 2.0 * math.pi * 16.0 * (1.0 / 2.0 - 2.0 / 4.0 + 1.0 / 6.0)
    assert direct == pytest.approx(exact, rel=1e-10)


def test_weibull_beta_and_cdf():
    iso = GrassmannMeasure.isotropic(3, 1, 1.0)
    ball = WindowDescriptor.ball(1.0)
    beta, se = weibull_beta(3, 1, 1.0, iso, ball)
    assert se == 0.0
    assert beta == pytest.approx(math.pi ** 2 / 3.0, abs=1e-13)
    assert weibull_cdf(0.0, beta, 3, 1, 1.0) == 0.0
    assert weibull_cdf(-1.0, beta, 3, 1, 1.0) == 0.0
    xs = np.linspace(0.01, 5.0, 50)
    values = weibull_cdf(xs, beta, 3, 1, 1.0)
    assert np.all(np.diff(values) > 0.0) and values[-1] < 1.0
    beta2, _ = weibull_beta(3, 1, 2.0, iso, ball)
    assert beta2 == pytest.approx(4.0 * beta, rel=1e-14)
    mass = weibull_limit_intensity(beta, 3, 1, 1.0, 0.5, 2.0)
    assert mass == pytest.approx(beta * 1.5, rel=1e-14)


def test_isoperimetric_bound_examples():
    bound = isoperimetric_bound(3, 1.0, 1.0)
    assert bound == pytest.approx(math.pi / 4.0, abs=1e-14)
    iso = GrassmannMeasure.isotropic(3, 1, 1.0)
    assert proximity_intensity(3, 1, 1.0, iso, 1.0) / bound == pytest.approx(
        1.0, abs=1e-9)
    assert proximity_intensity(3, 1, 1.0, axes_lines(), 1.0) < bound
    # scales as gamma^2 delta^{n-2}
    assert isoperimetric_bound(4, 2.0, 3.0) == pytest.approx(
        4.0 * 9.0 * isoperimetric_bound(4, 1.0, 1.0), rel=1e-12)
    with pytest.raises(ValueError):
        isoperimetric_bound(2, 1.0, 1.0)


def test_isoperimetric_bound_dominates_random_measures():
    rng = np.random.default_rng(57)
    for _ in range(40):
        q = random_line_measure(3, 5, rng)
        assert proximity_intensity(3, 1, 1.0, q, 1.0) <= \
            isoperimetric_bound(3, 1.0, 1.0) + 1e-10


def test_proximity_length_interval():
    from flatproc.closed_form import proximity_length_interval

    iso = GrassmannMeasure.isotropic(3, 1, 1.0)
    full, se = proximity_length_interval(3, 1, 1.0, iso, 0.0, 1.0)
    assert se == 0.0
    assert full == pytest.approx(proximity_intensity(3, 1, 1.0, iso, 1.0),
                                 abs=1e-14)
    lower, _ = proximity_length_interval(3, 1, 1.0, iso, 0.0, 0.5)
    upper, _ = proximity_length_interval(3, 1, 1.0, iso, 0.5, 1.0)
    assert lower + upper == pytest.approx(full, rel=1e-14)
    # Monte Carlo: count segments with length in (0.5, 1.0] per unit volume
    from flatproc.derived_processes import proximity
    from flatproc.simulator import FlatProcessSpec, sample_poisson

    spec = FlatProcessSpec(3, 1, 1.0, iso)
    window = WindowDescriptor.unit_cube(3)
    radius = window.circumradius() + 0.5
    counts = []
    for i in range(3_000):
        sample = sample_poisson(spec, radius, [58, i])
        seg = proximity(sample, delta=1.0)
        keep = window.contains(seg.midpoints) if len(seg) else np.zeros(0, bool)
        counts.append(int(np.sum(keep & (seg.lengths > 0.5))))
    mean = float(np.mean(counts))
    mc_se = float(np.std(counts, ddof=1)) / math.sqrt(len(counts))
    assert abs(mean - upper) < 3.0 * mc_se


def test_pair_integral_mixed_atomic_isotropic_exact():
    iso = GrassmannMeasure.isotropic(3, 1, 1.0)
    value, se = pair_integral(axes_lines(), iso)
    assert se == 0.0
    assert value == pytest.approx(c_constant(3, 1, 1), abs=1e-14)


def test_stacked_pair_integrand_matches_scalar_reference():
    # no Monte Carlo: the stacked integrand against [L, M] times the scalar
    # sigma of the complement of orthonormalize(L; M), row by row
    from flatproc.closed_form import _pair_integrand
    from flatproc.flat_geometry import (complement, haar_bases, orthonormalize,
                                        subspace_determinant)

    rng = np.random.default_rng(60)
    for n, k1, k2 in ((5, 2, 2), (5, 1, 1), (4, 1, 2)):  # spheres S^0, S^2, S^0
        eye = np.eye(n)
        l_bases, m_bases = haar_bases(12, n, k1, rng), haar_bases(12, n, k2, rng)
        # dependent: one span inside the other
        if k1 >= k2:
            m_bases[0] = l_bases[0, :k2]
        else:
            l_bases[0] = m_bases[0, :k1]
        l_bases[1] = eye[:k1]  # the axis e_0 lies in L, orthogonal to (L+M)-perp
        sets = [None, DirectionSet.full_sphere(n)] + [
            DirectionSet.double_cap(eye[0], t) for t in (0.0, 1e-16, 0.4, 0.8, 1.5)]
        sets.append(DirectionSet.double_cap(rng.standard_normal(n), 0.3))
        for dset in sets:
            values = _pair_integrand(l_bases, m_bases, dset, None)
            for lb, mb, value in zip(l_bases, m_bases, values):
                subs = [Subspace(lb), Subspace(mb)]
                ref = subspace_determinant(subs)
                if dset is not None:
                    perp = complement(orthonormalize(np.vstack([lb, mb])))
                    ref *= dset.subsphere_measure(perp)[0]
                assert abs(value - ref) <= 1e-12
        assert values[0] == 0.0
        # the axis in L: all of S_U at threshold 0, none above it
        det = subspace_determinant([Subspace(l_bases[1]), Subspace(m_bases[1])])
        for t in (0.0, 1e-16, 0.5):
            value = _pair_integrand(l_bases[1:2], m_bases[1:2],
                                    DirectionSet.double_cap(eye[0], t), None)[0]
            assert value == (det * constants.sphere_surface(n - k1 - k2) if t == 0.0 else 0.0)


def test_stacked_tuple_integrand_matches_subspace_determinant():
    from flatproc.closed_form import _tuple_integrand
    from flatproc.flat_geometry import (complement, haar_bases, orthonormalize,
                                        subspace_determinant)

    rng = np.random.default_rng(61)
    for n, dims in ((3, [2, 2]), (2, [1, 1]), (4, [2, 2]), (4, [3, 3, 3]), (4, [3, 2])):
        bases = [haar_bases(10, n, k, rng) for k in dims]
        bases[1][0] = bases[0][0, :dims[1]]  # nested flats: determinant 0
        values = _tuple_integrand(bases)
        weights = _tuple_integrand(bases, g=lambda sub: sub.projector()[0, 0] + 1.0)
        for row in range(10):
            subs = [Subspace(b[row]) for b in bases]
            det = subspace_determinant(subs)
            assert abs(values[row] - det) <= 1e-12
            # the intersection through the scalar route: the complement of the
            # span of the complements
            inter = complement(orthonormalize(np.vstack([complement(s).basis for s in subs])))
            ref = det * (inter.projector()[0, 0] + 1.0) if det > 1e-14 else 0.0
            assert abs(weights[row] - ref) <= 1e-12
        assert values[0] == 0.0


def test_small_blocks_match_unblocked(monkeypatch):
    # many blocks of 7 rows, the last one partial: the isotropic draws form
    # one stream, and each atomic factor's choices and each custom set's
    # sphere points one stream of their own, each read in row order, so the
    # estimates do not depend on the block size
    import flatproc.flat_geometry as flat_geometry
    from flatproc.flat_geometry import subspace_determinant
    from flatproc.measures import integrate

    iso52, iso32 = GrassmannMeasure.isotropic(5, 2, 1.0), GrassmannMeasure.isotropic(3, 2, 1.0)
    iso31 = GrassmannMeasure.isotropic(3, 1, 1.0)
    cap = DirectionSet.double_cap(np.eye(5)[0], 0.5)
    custom = DirectionSet.custom(3, lambda u: np.abs(u[:, 2]) >= 0.4)
    e0 = Subspace(np.eye(5)[:3])
    planes = GrassmannMeasure.discrete([(Subspace(E[:2]), 0.5), (Subspace(E[[0, 2]]), 0.5),
                                        (Subspace(E[1:]), 1.0)])
    two_planes = GrassmannMeasure.discrete([(Subspace(E[:2]), 0.5), (Subspace(E[[0, 2]]), 0.5)])
    calls = [
        lambda: pair_integral(iso52, iso52, cap, rng=62, samples=53),
        lambda: pair_integral(axes_lines(), random_line_measure(3, 4, np.random.default_rng(1)),
                              custom, rng=62, samples=53),
        lambda: pair_integral(iso31, iso31, custom, rng=5, samples=53),
        lambda: pair_integral(iso31, axes_lines(), DirectionSet.double_cap(E[2], 0.4), rng=5,
                              samples=53),
        lambda: intersection_density(3, [2, 2], [1.0, 1.0], [iso32, two_planes], rng=5,
                                     samples=53),
        lambda: asymptotic_covariance(3, 1, 1.0, iso31, 1.0, 0.0, 0.0, WindowDescriptor.ball(1.0),
                                      custom, custom, rng=5, samples=53),
        lambda: intersection_density(3, [2, 2], [1.0, 1.0], [iso32, iso32], same_process=True,
                                     rng=63, samples=53),
        lambda: intersection_density(3, [2, 2, 2], [1.0, 1.0, 1.0], [planes] * 3,
                                     g=lambda sub: abs(sub.basis @ E[0]).sum()),
        lambda: integrate(iso52, lambda sub: subspace_determinant([e0, sub]), rng=64,
                          samples=53),
    ]
    whole = [call() for call in calls]
    monkeypatch.setattr(flat_geometry, "BLOCK_ROWS", 7)
    for call, (value, se) in zip(calls, whole):
        blocked, blocked_se = call()
        assert blocked == pytest.approx(value, rel=1e-12)
        assert blocked_se == pytest.approx(se, rel=1e-12)


def test_pair_integral_custom_set_matches_double_cap():
    # one point on each draw's sphere: unbiased, its noise in the outer SE
    iso = GrassmannMeasure.isotropic(5, 1, 1.0)
    axis = np.eye(5)[0]
    cap = DirectionSet.double_cap(axis, 0.5)
    custom = DirectionSet.custom(5, lambda u: np.abs(u @ axis) >= 0.5)
    exact, exact_se = pair_integral(iso, iso, cap, rng=65, samples=20_000)
    approx, approx_se = pair_integral(iso, iso, custom, rng=66, samples=20_000)
    assert approx_se > exact_se > 0.0
    assert abs(approx - exact) < 3.0 * math.hypot(exact_se, approx_se)


def test_asymptotic_covariance_threshold_zero_cap_matches_closed_form():
    # a threshold-0 double cap is the whole sphere, but takes the Monte-Carlo
    # route: rows of one Haar draw each of M, L_i and L_j
    iso = GrassmannMeasure.isotropic(3, 1, 1.0)
    ball = WindowDescriptor.ball(1.0)
    cap = DirectionSet.double_cap(E[2], 0.0)
    closed, _ = asymptotic_covariance(3, 1, 1.0, iso, 1.0, 0.0, 0.0, ball)
    value, se = asymptotic_covariance(3, 1, 1.0, iso, 1.0, 0.0, 0.0, ball, cap, cap,
                                      rng=67, samples=400_000)
    assert se > 0.0
    assert abs(value - closed) < 3.0 * se


@pytest.mark.parametrize("law", ["atomic", "isotropic"])
@pytest.mark.parametrize("sets", ["custom-custom", "cap-custom"])
def test_asymptotic_covariance_custom_set_matches_double_cap(law, sets):
    # a custom set equal to a double cap takes one sphere point per row; the
    # cap's covariance is exact for atomic q and Monte Carlo for isotropic q
    q = random_line_measure(4, 4, np.random.default_rng(78)) if law == "atomic" \
        else GrassmannMeasure.isotropic(4, 1, 1.0)
    axis = np.eye(4)[3]
    cap = DirectionSet.double_cap(axis, 0.5)
    custom = DirectionSet.custom(4, lambda u: np.abs(u @ axis) >= 0.5)
    box = WindowDescriptor.box((1.0, 2.0, 0.5, 1.5))
    exact, exact_se = asymptotic_covariance(4, 1, 1.0, q, 1.0, 0.0, 1.0, box, cap, cap,
                                            rng=79, samples=20_000)
    c_i = custom if sets == "custom-custom" else cap
    approx, approx_se = asymptotic_covariance(4, 1, 1.0, q, 1.0, 0.0, 1.0, box, c_i, custom,
                                              rng=80, samples=20_000)
    assert (exact_se == 0.0) == (law == "atomic")
    assert approx_se > 0.0
    assert abs(approx - exact) < 3.0 * math.hypot(exact_se, approx_se)


@pytest.mark.parametrize("law", ["atomic", "isotropic"])
@pytest.mark.parametrize("kind", ["full", "double_cap", "custom"])
@pytest.mark.parametrize("entry", ["pair_integral", "asymptotic_covariance", "mean_F_alpha",
                                   "proximity_directional"])
def test_direction_set_must_share_the_measures_dimension(entry, kind, law, monkeypatch):
    import flatproc.closed_form as closed_form

    def no_draws(*args, **kwargs):
        raise AssertionError("drew Monte-Carlo samples before checking the direction set")

    monkeypatch.setattr(closed_form, "_draws", no_draws)
    monkeypatch.setattr(closed_form, "_pair_integrand", no_draws)
    q = axes_lines() if law == "atomic" else GrassmannMeasure.isotropic(3, 1, 1.0)
    dset = {"full": DirectionSet.full_sphere(4),
            "double_cap": DirectionSet.double_cap(np.eye(4)[2], 0.5),
            "custom": DirectionSet.custom(4, lambda u: np.abs(u[:, 2]) >= 0.5)}[kind]
    calls = {
        "pair_integral": lambda: pair_integral(q, q, dset),
        "asymptotic_covariance": lambda: asymptotic_covariance(
            3, 1, 1.0, q, 1.0, 0.0, 0.0, WindowDescriptor.ball(1.0), None, dset),
        "mean_F_alpha": lambda: mean_F_alpha(3, 1, 1.0, q, 1.0, 0.0,
                                             WindowDescriptor.ball(1.0), dset),
        "proximity_directional": lambda: proximity_directional(3, 1, q, dset),
    }
    with pytest.raises(ValueError, match="measures and direction set must share the ambient"):
        calls[entry]()


@pytest.mark.parametrize("entry", ["pair_integral", "intersection_density",
                                   "asymptotic_covariance"])
def test_zero_measures_give_zero(entry):
    # a zero measure (no atoms) has nothing to draw from: every estimate is 0
    zero_lines, zero_planes = GrassmannMeasure.zero(3, 1), GrassmannMeasure.zero(3, 2)
    custom = DirectionSet.custom(3, lambda u: np.abs(u[:, 2]) >= 0.4)
    calls = {
        "pair_integral": lambda: pair_integral(zero_lines, zero_lines, custom, rng=1),
        "intersection_density": lambda: intersection_density(
            3, [2, 2], [1.0, 1.0], [GrassmannMeasure.isotropic(3, 2, 1.0), zero_planes], rng=1),
        "asymptotic_covariance": lambda: asymptotic_covariance(
            3, 1, 1.0, zero_lines, 1.0, 0.0, 0.0, WindowDescriptor.ball(1.0), None, custom,
            rng=1),
    }
    assert calls[entry]() == (0.0, 0.0)


@pytest.mark.parametrize("samples", [0, 1, -5, 2.5, True])
@pytest.mark.parametrize("entry", ["pair_integral", "intersection_density", "integrate",
                                   "asymptotic_covariance", "subsphere_measure"])
def test_monte_carlo_entry_points_reject_too_few_samples(entry, samples):
    from flatproc.measures import integrate

    iso = GrassmannMeasure.isotropic(3, 1, 1.0)
    cap = DirectionSet.double_cap(E[0], 0.5)
    calls = {
        "pair_integral": lambda: pair_integral(iso, iso, cap, samples=samples),
        "intersection_density": lambda: intersection_density(
            3, [2, 2], [1.0, 1.0], [GrassmannMeasure.isotropic(3, 2, 1.0)] * 2,
            samples=samples),
        "integrate": lambda: integrate(iso, lambda sub: 1.0, samples=samples),
        "asymptotic_covariance": lambda: asymptotic_covariance(
            3, 1, 1.0, iso, 1.0, 0.0, 0.0, WindowDescriptor.ball(1.0), cap, cap,
            samples=samples),
        "subsphere_measure": lambda: DirectionSet.custom(3, lambda u: u[:, 0] ** 2 > 0.5)
        .subsphere_measure(Subspace(E[:2]), samples=samples),
    }
    with pytest.raises(ValueError, match="samples must be an integer >= 2"):
        calls[entry]()


def test_custom_set_blocks_bound_sphere_points(monkeypatch):
    # pair_integral's rows and asymptotic_covariance's rows take one sphere
    # point each for a custom set: a block holds BLOCK_ROWS rows, so no
    # subsphere_measures call gets more than BLOCK_ROWS points, and the values
    # equal those of one block of all rows bit for bit
    q = random_line_measure(5, 5, np.random.default_rng(73))
    axis = np.eye(5)[4]
    custom = DirectionSet.custom(5, lambda u: np.abs(u @ axis) >= 0.5)
    points = []
    measures = DirectionSet.subsphere_measures
    monkeypatch.setattr(DirectionSet, "subsphere_measures",
                        lambda self, bases, rng=None: points.append(
                            bases.shape[0]) or measures(self, bases, rng))

    def values():
        return (pair_integral(q, q, custom, rng=74),
                asymptotic_covariance(5, 1, 1.0, q, 1.0, 0.0, 1.0, WindowDescriptor.ball(1.0),
                                      custom, custom, rng=75, samples=2000))

    bounded = values()
    assert 0 < max(points) <= flat_geometry.BLOCK_ROWS
    assert bounded[0][1] > 0.0  # the sphere draws carry noise
    monkeypatch.setattr(flat_geometry, "BLOCK_ROWS", 1 << 40)
    assert values() == bounded


def _bad_parameter_calls():
    iso, ball = GrassmannMeasure.isotropic(3, 1, 1.0), WindowDescriptor.ball(1.0)
    planes = [GrassmannMeasure.isotropic(3, 2, 1.0)] * 2
    nan = math.nan
    return {
        "covariance-alpha_i-pole": ("alpha_i", lambda: asymptotic_covariance(
            3, 1, 1.0, iso, 1.0, -1.0, 0.0, ball)),
        "covariance-alpha_j-nan": ("alpha_j", lambda: asymptotic_covariance(
            3, 1, 1.0, iso, 1.0, 0.0, nan, ball)),
        "covariance-delta-negative": ("delta", lambda: asymptotic_covariance(
            3, 1, 1.0, iso, -1.0, 0.0, 0.0, ball)),
        "covariance-gamma-nan": ("gamma", lambda: asymptotic_covariance(
            3, 1, nan, iso, 1.0, 0.0, 0.0, ball)),
        "weibull_cdf-alpha-zero": ("alpha", lambda: weibull_cdf(1.0, 1.0, 3, 1, 0.0)),
        "weibull_cdf-beta-nan": ("beta", lambda: weibull_cdf(1.0, nan, 3, 1, 1.0)),
        "weibull_limit_intensity-alpha-zero": ("alpha", lambda: weibull_limit_intensity(
            1.0, 3, 1, 0.0, 0.5, 2.0)),
        "weibull_limit_intensity-b1-inf": ("b1", lambda: weibull_limit_intensity(
            1.0, 3, 1, 1.0, 0.5, math.inf)),
        "weibull_beta-gamma-negative": ("gamma", lambda: weibull_beta(3, 1, -1.0, iso, ball)),
        "mean_F_alpha-delta-negative": ("delta", lambda: mean_F_alpha(
            3, 1, 1.0, iso, -1.0, 0.0, ball)),
        "mean_F_alpha-gamma-inf": ("gamma", lambda: mean_F_alpha(
            3, 1, math.inf, iso, 1.0, 0.0, ball)),
        "proximity_intensity-delta-nan": ("delta", lambda: proximity_intensity(
            3, 1, 1.0, iso, nan)),
        "proximity_intensity-gamma-negative": ("gamma", lambda: proximity_intensity(
            3, 1, -1.0, iso, 1.0)),
        "proximity_intensity_two-gamma2-nan": ("gamma2", lambda: proximity_intensity_two(
            3, 1, 1, 1.0, nan, iso, iso, 1.0)),
        "proximity_length_interval-b0-nan": ("b0", lambda: proximity_length_interval(
            3, 1, 1.0, iso, nan, 1.0)),
        "intersection_density-intensity-nan": ("intensities\\[1\\]", lambda: intersection_density(
            3, [2, 2], [1.0, nan], planes)),
        "isoperimetric_bound-delta-zero": ("delta", lambda: isoperimetric_bound(3, 1.0, 0.0)),
    }


@pytest.mark.parametrize("case", sorted(_bad_parameter_calls()))
def test_closed_forms_reject_bad_parameters_by_name(case, monkeypatch):
    # NaN, infinite, negative or (for delta and Weibull's alpha) zero inputs
    # fail with the parameter's name before any integral is evaluated
    def no_integral(*args, **kwargs):
        raise AssertionError("evaluated an integral before checking the parameters")

    for name in ("pair_integral", "_draws", "_atom_sum"):
        monkeypatch.setattr(closed_form, name, no_integral)
    name, call = _bad_parameter_calls()[case]
    with pytest.raises(ValueError, match=f"^{name} must be finite and"):
        call()
