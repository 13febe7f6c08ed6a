import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flatproc import constants
from flatproc.closed_form import WindowDescriptor
from flatproc.flat_geometry import Subspace
from flatproc.measures import (DirectionSet, GrassmannMeasure, SphereMeasure,
                               integrate, line_measure_from_sphere,
                               lower_bound_check, parse_directional_file,
                               symmetrize_hyperplane_measure,
                               symmetrize_line_measure, t_lift,
                               write_directional_file)
from flatproc.zonoid_engine import Zonotope

from _reference import haar_sample

E = np.eye(3)


def axes_line_measure(n=3, weight=None):
    eye = np.eye(n)
    w = weight if weight is not None else 1.0 / n
    return GrassmannMeasure.discrete(
        [(Subspace(eye[i:i + 1]), w) for i in range(n)])


@pytest.mark.parametrize("n, k", [(3, 5), (3, 4), (2, -1)])
def test_grassmann_measure_rejects_k_outside_0_to_n(n, k):
    # so no FlatProcessSpec(n, k, ...) can be built for such a k either
    message = f"need 0 <= k <= n, got n={n}, k={k}"
    with pytest.raises(ValueError, match=message):
        GrassmannMeasure.isotropic(n, k)
    with pytest.raises(ValueError, match=message):
        GrassmannMeasure(n, k, np.zeros((0, max(k, 0), n)), np.zeros(0))
    assert GrassmannMeasure.zero(n, 0).k == 0 and GrassmannMeasure.isotropic(n, n).k == n


def test_symmetrize_line_atom_becomes_pair_with_full_weight():
    q = GrassmannMeasure.discrete([(Subspace.span(E[0]), 1.0)])
    mu = symmetrize_line_measure(q)
    assert mu.is_atomic and len(mu.units) == 1
    unit, weight = mu.units[0], mu.weights.tolist()[0]
    assert np.allclose(np.abs(unit), E[0]) and weight == 1.0
    assert abs(mu.total_mass - q.total_mass) < 1e-15


def test_symmetrize_line_isotropic_becomes_uniform():
    mu = symmetrize_line_measure(GrassmannMeasure.isotropic(4, 1, 2.5))
    assert mu.uniform_mass == 2.5


def test_symmetrize_line_orthogonal_atom_has_zero_cosine_moment():
    q = GrassmannMeasure.discrete([(Subspace(np.eye(2)[1:]), 1.0)])
    mu = symmetrize_line_measure(q)
    value, se = integrate(mu, lambda u: np.abs(u[:, 0]))
    assert value == 0.0 and se == 0.0


def test_symmetrize_line_requires_lines():
    with pytest.raises(ValueError):
        symmetrize_line_measure(GrassmannMeasure.isotropic(3, 2, 1.0))


def test_symmetrize_hyperplane_maps_to_normals():
    q = GrassmannMeasure.discrete([(Subspace(E[:2]), 1.0)])  # e3-normal plane
    mu = symmetrize_hyperplane_measure(q)
    unit, weight = mu.units[0], mu.weights.tolist()[0]
    assert np.allclose(np.abs(unit), E[2]) and weight == 1.0
    iso = symmetrize_hyperplane_measure(GrassmannMeasure.isotropic(3, 2, 0.7))
    assert iso.uniform_mass == 0.7
    two = GrassmannMeasure.discrete([(Subspace(E[1:]), 0.5), (Subspace(E[[0, 2]]), 0.5)])
    sym = symmetrize_hyperplane_measure(two)
    units = sorted(tuple(np.round(np.abs(u), 12)) for u in sym.units)
    assert units == [(0.0, 1.0, 0.0), (1.0, 0.0, 0.0)]
    with pytest.raises(ValueError):
        symmetrize_hyperplane_measure(GrassmannMeasure.isotropic(3, 1, 1.0))


def test_integrate_total_mass_exact():
    mu = symmetrize_line_measure(axes_line_measure())
    value, se = integrate(mu, lambda u: np.ones(u.shape[0]))
    assert value == pytest.approx(1.0, abs=1e-15) and se == 0.0
    unif = SphereMeasure.uniform(3, 2.5)
    value, se = integrate(unif, lambda u: np.ones(u.shape[0]), rng=0)
    assert value == pytest.approx(2.5, abs=1e-12)


def test_integrate_uniform_cosine_moment():
    mu = SphereMeasure.uniform(3, constants.sphere_surface(3))
    value, se = integrate(mu, lambda u: np.abs(u[:, 0]), rng=1)
    assert abs(value - 2.0 * math.pi) < 3.0 * se


def test_integrate_one_dim_subsphere_exact():
    mixture = SphereMeasure.subsphere_mixture(3, [(Subspace.span(E[1]), 0.7)])
    value, se = integrate(mixture, lambda u: u[:, 1] ** 2 + 1.0)
    assert value == pytest.approx(0.7 * 4.0, abs=1e-14)  # 0.7 * (f(u)+f(-u))
    assert se == 0.0


def test_integrate_linearity_for_atoms():
    mu = symmetrize_line_measure(axes_line_measure())
    f = lambda u: np.abs(u[:, 0])
    g = lambda u: u[:, 1] ** 2
    vf, _ = integrate(mu, f)
    vg, _ = integrate(mu, g)
    vsum, _ = integrate(mu, lambda u: 2.0 * f(u) + g(u))
    assert vsum == pytest.approx(2.0 * vf + vg, abs=1e-14)
    v2, _ = integrate(mu.scaled(3.0), f)
    assert v2 == pytest.approx(3.0 * vf, abs=1e-14)


def test_integrate_linearity_holds_for_sampled_variants_with_shared_stream():
    mu = SphereMeasure.uniform(3, 1.7)
    f = lambda u: np.abs(u[:, 0])
    v1, _ = integrate(mu, f, rng=11, samples=5_000)
    v2, _ = integrate(mu, lambda u: 2.0 * f(u), rng=11, samples=5_000)
    assert v2 == pytest.approx(2.0 * v1, rel=1e-14)  # identical stream
    v3, _ = integrate(mu.scaled(3.0), f, rng=11, samples=5_000)
    assert v3 == pytest.approx(3.0 * v1, rel=1e-14)


@pytest.mark.parametrize("n, k", [(5, 2), (4, 2)])
@pytest.mark.parametrize("seed", [31, 32])
def test_isotropic_integrate_equals_per_row_subspaces_bit_for_bit(monkeypatch, n, k, seed):
    from flatproc import flat_geometry
    from flatproc._rng import as_generator
    from flatproc.flat_geometry import haar_bases, subspace_determinant
    from flatproc.measures import _mc_mean

    monkeypatch.setattr(flat_geometry, "BLOCK_ROWS", 700)  # three Haar blocks
    e0 = Subspace(np.eye(n)[:n - k])
    f = lambda sub: subspace_determinant([e0, sub])
    q = GrassmannMeasure.isotropic(n, k, 1.5)
    gen = as_generator(seed)  # each sample one public, checked Subspace
    expected = _mc_mean(lambda rows: [f(Subspace(b)) for b in haar_bases(rows, n, k, gen)],
                        1800, 1.5)
    assert integrate(q, f, rng=seed, samples=1800) == expected


def test_integrate_views_each_block_of_haar_bases_unchecked(monkeypatch):
    # Haar blocks are kernel output, orthonormal as q_factors made them:
    # integrate hands f read-only views of their rows and checks nothing
    from flatproc import flat_geometry, measures

    calls = []
    monkeypatch.setattr(flat_geometry, "BLOCK_ROWS", 40)  # blocks of 40 and 20
    monkeypatch.setattr(flat_geometry, "check_orthonormal", lambda *a: calls.append(a))
    monkeypatch.setattr(measures, "check_orthonormal", lambda *a: calls.append(a))
    q = GrassmannMeasure.isotropic(4, 2, 1.0)
    seen = []
    integrate(q, lambda sub: seen.append(sub) or 1.0, rng=33, samples=60)
    assert calls == [] and len(seen) == 60
    assert all(type(sub) is Subspace and not sub.basis.flags.writeable for sub in seen)


def test_lower_bound_check_uniform_attains_cosine_constant():
    mu = SphereMeasure.uniform(3, constants.sphere_surface(3))
    assert lower_bound_check(mu, 2.0 * math.pi - 0.01)
    assert not lower_bound_check(mu, 2.0 * math.pi + 0.01)


def test_direction_grid_is_one_read_only_seeded_draw_per_dimension():
    from flatproc.flat_geometry import haar_bases
    from flatproc.measures import _direction_grid

    grid = _direction_grid(4)
    assert grid is _direction_grid(4) and not grid.flags.writeable
    draw = haar_bases(10_000, 4, 1, np.random.default_rng(0xB0B + 4))[:, 0]
    assert grid.tobytes() == draw.tobytes()


def test_lower_bound_check_degenerate_pair_fails():
    mu = SphereMeasure.atoms(3, [(E[0], 1.0)])
    assert not lower_bound_check(mu, 1e-3)


def test_lower_bound_check_axes_minimum_at_poles():
    mu = symmetrize_line_measure(axes_line_measure())
    assert lower_bound_check(mu, 0.3)
    assert not lower_bound_check(mu, 1.0 / 3.0 + 0.01)


def test_t_lift_one_dim_atom_total_mass():
    mu = GrassmannMeasure.discrete([(Subspace.span(E[0]), 1.0)])
    lift = t_lift(mu)
    assert lift.total_mass == pytest.approx(2.0, abs=1e-14)  # omega_1 = 2


def test_t_lift_total_mass_scaling():
    rng = np.random.default_rng(3)
    mu = GrassmannMeasure.discrete([(haar_sample(4, 2, rng), 0.4),
                                    (haar_sample(4, 2, rng), 1.1)])
    lift = t_lift(mu)
    value, _ = integrate(lift, lambda u: np.ones(u.shape[0]), rng=1)
    assert value == pytest.approx(constants.sphere_surface(2) * mu.total_mass,
                                  abs=1e-10)


def test_t_lift_quadratic_moment_matches_projector_trace():
    rng = np.random.default_rng(4)
    subs = [(haar_sample(3, 2, rng), 1.0), (haar_sample(3, 2, rng), 1.0)]
    mu = GrassmannMeasure.discrete(subs)
    lift = t_lift(mu)
    a = np.array([0.3, -1.2, 0.5])
    value, se = integrate(lift, lambda u: (u @ a) ** 2, rng=2, samples=200_000)
    # per subsphere: omega_d * |P_U a|^2 / d
    expected = sum(w * constants.sphere_surface(s.k)
                   * float(a @ s.projector() @ a) / s.k for s, w in subs)
    assert abs(value - expected) < 3.0 * se + 1e-12


def test_t_lift_additivity_as_mixture():
    rng = np.random.default_rng(5)
    m1 = GrassmannMeasure.discrete([(haar_sample(3, 1, rng), 0.5)])
    m2 = GrassmannMeasure.discrete([(haar_sample(3, 1, rng), 0.8)])
    merged = GrassmannMeasure.discrete(list(m1.atoms) + list(m2.atoms))
    f = lambda u: np.abs(u[:, 2]) + 0.1
    v_merged, _ = integrate(t_lift(merged), f)
    v1, _ = integrate(t_lift(m1), f)
    v2, _ = integrate(t_lift(m2), f)
    assert v_merged == pytest.approx(v1 + v2, abs=1e-12)


def test_t_lift_rejects_isotropic():
    with pytest.raises(ValueError, match="lift requires atoms"):
        t_lift(GrassmannMeasure.isotropic(3, 1, 1.0))


def test_direction_set_double_cap_and_evenness():
    cap = DirectionSet.double_cap(E[2], 0.5)
    probe = np.array([E[2], -E[2], E[0]])
    assert cap.contains(probe).tolist() == [True, True, False]
    with pytest.raises(ValueError, match="not even"):
        DirectionSet.custom(3, lambda u: u[:, 0] > 0.0)


@pytest.mark.parametrize("n, axis, threshold, message", [
    (3, E[2], math.nan, "finite threshold"), (3, E[2], math.inf, "finite threshold"),
    (3, E[2], -math.inf, "finite threshold"), (3, E[:1], 0.5, r"an axis in R\^3"),
    (4, E[2], 0.5, r"an axis in R\^4"),
    (3, np.array([math.nan, 0.0, 1.0]), 0.5, "non-finite vector"),
    (3, np.array([0.0, math.inf, 1.0]), 0.5, "non-finite vector"),
    (3, np.array([math.nan] * 3), 0.5, "non-finite vector")])
def test_double_cap_rejects_bad_axis_or_threshold(n, axis, threshold, message):
    with pytest.raises(ValueError, match=message):
        DirectionSet(n=n, kind="double_cap", axis=axis, threshold=threshold)


def test_direction_set_subsphere_measure_analytic():
    cap = DirectionSet.double_cap(E[2], 0.5)
    full = DirectionSet.full_sphere(3)
    plane = Subspace(E[:2])  # axis orthogonal to the subsphere
    val, se = cap.subsphere_measure(plane)
    assert val == 0.0 and se == 0.0
    tilted = Subspace(E[[0, 2]])
    val, _ = cap.subsphere_measure(tilted)  # circle: two arcs with |cos| >= 0.5
    assert val == pytest.approx(4.0 * math.pi / 3.0, abs=1e-12)
    val, _ = full.subsphere_measure(tilted)
    assert val == pytest.approx(2.0 * math.pi, abs=1e-12)


def test_direction_set_custom_matches_double_cap_by_mc():
    cap = DirectionSet.double_cap(E[2], 0.4)
    custom = DirectionSet.custom(3, lambda u: np.abs(u @ E[2]) >= 0.4)
    sub = Subspace(E[[0, 2]])
    exact, _ = cap.subsphere_measure(sub)
    approx, se = custom.subsphere_measure(sub, rng=9, samples=40_000)
    assert abs(approx - exact) < 3.0 * se


def test_custom_set_subsphere_measures_need_a_generator():
    custom = DirectionSet.custom(3, lambda u: np.abs(u @ E[2]) >= 0.4)
    bases = np.broadcast_to(E[[0, 2]], (64, 2, 3))
    with pytest.raises(ValueError, match="rng"):
        custom.subsphere_measures(bases)
    gen = np.random.default_rng(5)
    first, second = custom.subsphere_measures(bases, gen), custom.subsphere_measures(bases, gen)
    assert not np.array_equal(first, second)
    # the analytic sets need no generator
    for analytic in (DirectionSet.full_sphere(3), DirectionSet.double_cap(E[2], 0.4)):
        assert np.ptp(analytic.subsphere_measures(bases)) == 0.0


def test_directional_file_roundtrip(tmp_path):
    q = axes_line_measure()
    path = tmp_path / "axes.txt"
    write_directional_file(path, q)
    back = parse_directional_file(path)
    assert back.n == 3 and back.k == 1 and not back.is_isotropic
    assert back.total_mass == pytest.approx(1.0, abs=1e-15)
    for (s1, w1), (s2, w2) in zip(q.atoms, back.atoms):
        assert s1.same_span(s2) and w1 == w2
    iso = GrassmannMeasure.isotropic(4, 2, 1.5)
    path2 = tmp_path / "iso.txt"
    write_directional_file(path2, iso)
    back2 = parse_directional_file(path2)
    assert back2.is_isotropic and back2.total_mass == 1.5
    assert back2.n == 4 and back2.k == 2


@pytest.mark.parametrize("n, k", [(3, 1), (4, 2), (5, 3)])
def test_directional_file_write_parse_write_is_byte_identical(tmp_path, n, k):
    # orthonormal rows are read back as written, not orthonormalized again
    rng = np.random.default_rng([182, n, k])
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    for _ in range(50):
        q = GrassmannMeasure.discrete([(haar_sample(n, k, rng), float(w))
                                       for w in rng.uniform(0.1, 2.0, 4)])
        write_directional_file(first, q)
        write_directional_file(second, parse_directional_file(first))
        assert second.read_bytes() == first.read_bytes()


def test_directional_file_orthonormalizes_and_validates(tmp_path):
    path = tmp_path / "skew.txt"
    path.write_text("3 2\n1.0 1 0 0 1 1 0\n")
    q = parse_directional_file(path)
    assert q.atoms[0][0].same_span(Subspace(E[:2]))
    bad = tmp_path / "bad.txt"
    bad.write_text("3 2\n1.0 1 0 0 1 0 0\n")
    with pytest.raises(ValueError, match="rank deficient"):
        parse_directional_file(bad)


def test_line_measure_from_sphere_roundtrip():
    mu = symmetrize_line_measure(axes_line_measure())
    q = line_measure_from_sphere(mu)
    assert q.k == 1 and q.total_mass == pytest.approx(1.0, abs=1e-15)
    assert symmetrize_line_measure(q).total_mass == pytest.approx(1.0, abs=1e-15)


NON_FINITE_CONSTRUCTORS = {
    "isotropic mass": lambda x: GrassmannMeasure.isotropic(3, 1, x),
    "atom weight": lambda x: GrassmannMeasure.discrete([(Subspace(E[:1]), x)]),
    "uniform mass": lambda x: SphereMeasure.uniform(3, x),
    "pair mass": lambda x: SphereMeasure.atoms(3, [(E[0], x)]),
    "subsphere weight": lambda x: SphereMeasure.subsphere_mixture(3, [(Subspace(E[:2]), x)]),
    "ball radius": lambda x: WindowDescriptor.ball(x),
    "box side": lambda x: WindowDescriptor.box([1.0, x, 1.0]),
    "window scale": lambda x: WindowDescriptor.ball(1.0).rescaled(x),
    "zonotope half-length": lambda x: Zonotope(3, E[:1], np.array([x])),
    "zonotope direction": lambda x: Zonotope(3, np.array([[x, 0.0, 0.0]]), np.array([1.0])),
}


@given(name=st.sampled_from(sorted(NON_FINITE_CONSTRUCTORS)),
       value=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_constructors_reject_non_finite(name, value):
    NON_FINITE_CONSTRUCTORS[name](1.0)  # a finite value is accepted
    with pytest.raises(ValueError):
        NON_FINITE_CONSTRUCTORS[name](value)


def test_lower_bound_check_exact_at_a_facet_normal_between_grid_points():
    # six atoms in R^3: the least cosine moment is taken at the normal of two
    # atom directions, 0.0147 below the least value on the probe grid
    rng = np.random.default_rng(80)
    mu = SphereMeasure.atoms(3, list(zip(rng.standard_normal((6, 3)), 0.2 + rng.random(6))))
    i, j = np.triu_indices(6, 1)
    normals = np.cross(mu.units[i], mu.units[j])
    exact = float(np.min(mu.cosine_moment(normals / np.linalg.norm(normals, axis=1)[:, None])))
    assert not lower_bound_check(mu, exact + 1e-5)
    assert lower_bound_check(mu, exact - 1e-5)


def test_lower_bound_check_atoms_in_a_plane_have_infimum_zero():
    rng = np.random.default_rng(81)
    plane = haar_sample(3, 2, rng).basis
    mu = SphereMeasure.atoms(3, [(c @ plane, 1.0) for c in rng.standard_normal((5, 2))])
    assert lower_bound_check(mu, 1e-7)
    assert not lower_bound_check(mu, 1e-4)


def test_stored_stacks_round_trip_in_input_order(tmp_path):
    rng = np.random.default_rng(82)
    subs = [haar_sample(4, 2, rng) for _ in range(5)]
    weights = list(0.1 + rng.random(5))
    q = GrassmannMeasure.discrete(list(zip(subs, weights)))
    assert [w for _, w in q.atoms] == weights
    assert all(np.array_equal(s.basis, a.basis) for s, (a, _) in zip(subs, q.atoms))

    units = [-E[2], E[0], np.array([0.6, -0.8, 0.0])]
    mu = SphereMeasure.atoms(3, list(zip(units, [0.5, 0.25, 2.0])))
    assert mu.weights.tolist() == [0.5, 0.25, 2.0]
    assert np.array_equal(mu.units,
                          [E[2], E[0], [0.6, -0.8, 0.0]])

    # components of dimensions 2, 1, 1, 2: three runs of one dimension each
    comps = [(subs[0], 0.5), (Subspace(subs[1].basis[:1]), 1.0),
             (Subspace(subs[2].basis[1:]), 0.25), (subs[3], 2.0)]
    mixture = SphereMeasure.subsphere_mixture(4, comps)
    assert [c.k for c in mixture.components] == [2, 1, 2]
    assert [w for _, w in mixture.subspheres] == [w for _, w in comps]
    assert all(np.array_equal(s.basis, t.basis) for (s, _), (t, _) in zip(comps, mixture.subspheres))

    text = ("3 2\n0.1 1.0 0.0 0.0 0.0 0.6 0.8\n"
            "0.30000000000000004 0.0 0.0 -1.0 0.8 -0.6 0.0\n2.5 0.0 1.0 0.0 1.0 0.0 0.0\n")
    path = tmp_path / "q.txt"
    path.write_text(text)
    write_directional_file(path, parse_directional_file(path))
    assert path.read_text() == text


@pytest.mark.parametrize("build,message", [
    (lambda: GrassmannMeasure(3, 1, np.array([[[1.0, 1e-5, 0.0]]]), np.array([1.0])),
     "not orthonormal"),
    (lambda: GrassmannMeasure(3, 1, np.array([[[math.nan, 0.0, 0.0]]]), np.array([1.0])),
     "not orthonormal"),
    (lambda: GrassmannMeasure(3, 1, E[:1, None], np.array([math.nan])), "finite and strictly"),
    (lambda: GrassmannMeasure(3, 1, E[:1, None], np.array([0.0])), "finite and strictly"),
    (lambda: SphereMeasure(3, E[:1], np.array([-1.0])), "finite positive pair mass"),
    (lambda: SphereMeasure(3, E[:1], np.array([math.nan])), "finite positive pair mass"),
    (lambda: SphereMeasure(3, np.array([[math.nan, 0.0, 0.0]]), np.array([1.0])),
     "near-zero or non-finite"),
    (lambda: SphereMeasure.subsphere_mixture(3, [(Subspace(E[:2]), 0.0)]),
     "finite positive weight"),
    (lambda: Zonotope(3, E[:1], np.array([-1.0])), "finite and positive"),
])
def test_stack_constructors_reject_bad_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_engines_build_no_subspace(monkeypatch):
    from flatproc import flat_geometry
    from flatproc.closed_form import hyperplane_intersection
    from flatproc.measure_metrics import stability_harness
    from flatproc.simulator import FlatProcessSpec, sample_poisson
    from flatproc.zonoid_engine import area_measure, mu_Q_r

    rng = np.random.default_rng(83)
    even = SphereMeasure.atoms(4, list(zip(rng.standard_normal((6, 4)), 0.2 + rng.random(6))))
    lines = axes_line_measure(4)
    hyperplanes = GrassmannMeasure.discrete([(haar_sample(4, 3, rng), 0.5) for _ in range(4)])
    family = [(t, even.scaled(1.0 + t)) for t in (0.1, 0.01)]
    spec = FlatProcessSpec(4, 1, 3.0, lines)
    calls = []
    post_init = flat_geometry.Subspace.__post_init__
    monkeypatch.setattr(flat_geometry.Subspace, "__post_init__",
                        lambda self: calls.append(1) or post_init(self))
    views = flat_geometry.subspace_views

    def counted_views(bases):  # one call per view, as for each checked Subspace
        out = views(bases)
        calls.extend(out)
        return out

    for module in [m for name, m in sys.modules.items() if name.startswith("flatproc")]:
        if getattr(module, "subspace_views", None) is views:
            monkeypatch.setattr(module, "subspace_views", counted_views)
    for r in (2, 3):
        t_lift(mu_Q_r(even, r))
        area_measure(even, r)
        hyperplane_intersection(4, 2.0, even, r)
    symmetrize_line_measure(lines)
    symmetrize_hyperplane_measure(hyperplanes)
    for case in ("area-measure", "hyperplane-intersection", "line-proximity"):
        stability_harness(case, even, family, rho=0.01, upper=10.0)
    assert len(sample_poisson(spec, 1.0, 84)) > 0
    assert not calls
    assert len(t_lift(hyperplanes).subspheres) == len(calls) == 4  # the counter sees views
