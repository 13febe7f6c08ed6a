import math
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import binomtest, chi2_contingency, kstest

from flatproc import constants
from flatproc.closed_form import c_constant
from flatproc.flat_geometry import Subspace, complement, complement_bases, subspace_determinant
from flatproc.measures import GrassmannMeasure
from flatproc.simulator import (FactorialDistribution, FlatProcessSpec, FlatSample,
                                SrConstruction, build_factorial_distribution,
                                read_flat_sample, sample_cube_process,
                                sample_poisson, sample_q0_bases,
                                sample_sr_flats, sr_intensity, write_flat_sample)

E3 = np.eye(3)


def iso_spec(n=3, k=1, gamma=1.0):
    return FlatProcessSpec(n, k, gamma, GrassmannMeasure.isotropic(n, k, 1.0))


def test_poisson_count_mean_matches_intensity():
    spec = iso_spec()
    counts = [len(sample_poisson(spec, 1.0, [1, i])) for i in range(10_000)]
    mean = np.mean(counts)
    se = np.std(counts, ddof=1) / math.sqrt(len(counts))
    assert abs(mean - math.pi) < 3.0 * se  # gamma kappa_2 R^2 = pi


def test_poisson_zero_intensity_empty():
    spec = FlatProcessSpec(3, 1, 0.0, GrassmannMeasure.isotropic(3, 1, 1.0))
    for seed in range(5):
        assert len(sample_poisson(spec, 2.0, seed)) == 0


@pytest.mark.parametrize("n, k, gamma, radius", [
    (3, 1, 1.0, 1e308),   # radius ** 2 overflows
    (5, 1, 1.0, 1e80),    # radius ** 4 overflows
    (3, 1, 1e300, 1e5),   # the product overflows
    (3, 1, 1e200, 1.0),   # finite, far past what Generator.poisson takes
    (3, 2, 4.7e18, 1.0),  # 9.4e18, just past it
])
def test_poisson_rejects_a_mean_it_cannot_draw_before_any_draw(n, k, gamma, radius):
    spec = FlatProcessSpec(n, k, gamma, GrassmannMeasure.isotropic(n, k, 1.0))
    gen = np.random.default_rng(26)
    state = gen.bit_generator.state
    with pytest.raises(ValueError, match=re.escape(f"too large to sample: gamma={gamma!r}, "
                                                   f"radius={radius!r}")):
        sample_poisson(spec, radius, gen)
    assert gen.bit_generator.state == state


def test_poisson_zero_intensity_is_empty_where_the_window_term_overflows():
    spec = FlatProcessSpec(3, 1, 0.0, GrassmannMeasure.isotropic(3, 1, 1.0))
    assert len(sample_poisson(spec, 1e308, 27)) == 0  # radius ** 2 overflows; the mean is 0


def test_poisson_direction_marginal_matches_weights():
    weights = np.array([0.5, 0.3, 0.2])
    q = GrassmannMeasure.discrete(
        [(Subspace(E3[i:i + 1]), weights[i]) for i in range(3)])
    spec = FlatProcessSpec(3, 1, 2.0, q)
    counts = np.zeros(3)
    total = 0
    for i in range(2_000):
        s = sample_poisson(spec, 1.0, [2, i])
        for j in range(len(s)):
            axis = int(np.argmax(np.abs(s.bases[j, 0])))
            counts[axis] += 1
            total += 1
    # multinomial oracle: chi^2 against the atom weights
    expected = weights * total
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2 < 16.27  # 99.97% quantile of chi^2 with 2 dof


def test_poisson_direction_class_counts_independent():
    q = GrassmannMeasure.discrete([(Subspace(E3[:1]), 0.5), (Subspace(E3[1:2]), 0.5)])
    spec = FlatProcessSpec(3, 1, 1.5, q)
    table = np.zeros((10_000, 2), dtype=int)
    for i in range(10_000):
        s = sample_poisson(spec, 1.0, [3, i])
        axes = np.argmax(np.abs(s.bases[:, 0, :]), axis=1) if len(s) else np.zeros(0)
        table[i, 0] = int(np.sum(axes == 0))
        table[i, 1] = int(np.sum(axes == 1))
    cap = 4
    joint = np.zeros((cap + 1, cap + 1))
    for c0, c1 in table:
        joint[min(c0, cap), min(c1, cap)] += 1
    _, pvalue, _, _ = chi2_contingency(joint + 1e-9)
    assert pvalue > 1e-3


def test_poisson_sample_invariants_and_determinism():
    spec = iso_spec(4, 2, 0.8)
    s1 = sample_poisson(spec, 1.5, 77)
    s2 = sample_poisson(spec, 1.5, 77)
    assert np.array_equal(s1.bases, s2.bases)
    assert np.array_equal(s1.offsets, s2.offsets)
    assert s1.seed == s2.seed == "77"
    if len(s1):
        assert np.max(np.linalg.norm(s1.offsets, axis=1)) <= 1.5 + 1e-9
        rel = np.einsum("mkn,mn->mk", s1.bases, s1.offsets)
        assert np.max(np.abs(rel)) < 1e-9


@pytest.mark.parametrize("n, k", [(3, 1), (4, 2), (3, 2)])
@pytest.mark.parametrize("atomic", [False, True], ids=["isotropic", "one-atom"])
def test_poisson_offsets_uniform_in_complement_disk(n, k, atomic):
    # radial part |x|^{n-k} / R^{n-k} and direction, read in the frame of
    # L-perp that complement_bases builds from L's basis, must be uniform; each of the
    # twelve tests has level 2.5e-4, so together they fail a correct sampler
    # about 0.3% of the time, as a 3-standard-error gate does
    level = 2.5e-4
    radius = 3.0
    if atomic:
        fixed = Subspace(complement(Subspace(np.ones((1, n)) / math.sqrt(n))).basis[:k])
        q = GrassmannMeasure.discrete([(fixed, 1.0)])
    else:
        q = GrassmannMeasure.isotropic(n, k, 1.0)
    d = n - k
    gamma = 20_000.0 / (constants.ball_volume(d) * radius ** d)
    sample = sample_poisson(FlatProcessSpec(n, k, gamma, q), radius, [40 + n, k, int(atomic)])
    assert len(sample) > 19_000
    assert np.max(np.abs(np.einsum("mkn,mn->mk", sample.bases, sample.offsets))) <= 1e-12
    local = np.einsum("mdn,mn->md", complement_bases(sample.bases), sample.offsets)
    norms = np.linalg.norm(local, axis=1)
    assert kstest((norms / radius) ** d, "uniform").pvalue > level
    if d == 1:
        assert binomtest(int(np.sum(local[:, 0] > 0)), len(sample)).pvalue > level
    else:
        angles = np.arctan2(local[:, 1], local[:, 0]) % (2.0 * math.pi)
        assert kstest(angles / (2.0 * math.pi), "uniform").pvalue > level


def test_flat_sample_rejects_nan():
    bases = np.array([[E3[0]]])
    with pytest.raises(ValueError, match="window radius"):
        FlatSample(3, 1, 1.0, bases, np.array([[0.0, np.nan, 0.0]]))
    with pytest.raises(ValueError, match="orthogonal"):
        FlatSample(3, 1, 1.0, np.array([[[np.nan, 0.0, 0.0]]]), np.array([[0.0, 0.5, 0.0]]))
    with pytest.raises(ValueError, match="window radius"):
        FlatSample(3, 1, np.nan, bases, np.array([[0.0, 0.5, 0.0]]))
    # a direction row of length 1.5: the line solve would miss this pair at
    # distance 0.5; and unit rows that are not orthogonal
    tilted = 1.5 * (E3[0] + E3[1]) / math.sqrt(2.0)
    with pytest.raises(ValueError, match="orthonormal"):
        FlatSample(3, 1, 1.0, np.array([[E3[0]], [tilted]]),
                   np.array([[0.0, 0.0, 0.0], [-0.5, 0.5, 0.5]]))
    with pytest.raises(ValueError, match="orthonormal"):
        FlatSample(3, 2, 1.0, np.array([[E3[0], (E3[0] + E3[1]) / math.sqrt(2.0)]]),
                   np.array([[0.0, 0.0, 0.5]]))


@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, -1.0, -2.0])
def test_flat_sample_and_samplers_reject_bad_radius(radius):
    # an empty sample has no offset to compare the radius with; the samplers
    # check the radius before their first draw
    with pytest.raises(ValueError, match="window radius must be finite and nonnegative"):
        FlatSample(3, 1, radius, np.zeros((0, 1, 3)), np.zeros((0, 3)))
    gen = np.random.default_rng(5)
    state = gen.bit_generator.state
    anchored = FlatProcessSpec(3, 1, sr_intensity(3, 1), GrassmannMeasure.isotropic(3, 1, 1.0),
                               kind=SrConstruction(3, Subspace(E3[1:])))
    for sampler, spec in ((sample_poisson, iso_spec(4, 2)), (sample_sr_flats, anchored)):
        with pytest.raises(ValueError, match="window radius must be finite and nonnegative"):
            sampler(spec, radius, gen)
    assert gen.bit_generator.state == state
    assert len(FlatSample(3, 1, 0.0, np.zeros((0, 1, 3)), np.zeros((0, 3)))) == 0


def test_flat_sample_serialization_roundtrip(tmp_path):
    spec = iso_spec()
    sample = sample_poisson(spec, 2.0, 5)
    path = tmp_path / "flats.txt"
    write_flat_sample(sample, path)
    back = read_flat_sample(path)
    assert back.n == sample.n and back.k == sample.k
    assert back.radius == sample.radius and back.seed == sample.seed
    assert np.array_equal(back.bases, sample.bases)
    assert np.array_equal(back.offsets, sample.offsets)
    write_flat_sample(back, tmp_path / "again.txt")
    assert (tmp_path / "again.txt").read_text() == path.read_text()


def test_factorial_distribution_small_tables_exact():
    d2 = build_factorial_distribution(2)
    assert d2.exact == (Fraction(1, 2), Fraction(0), Fraction(1, 2))
    d3 = build_factorial_distribution(3)
    assert d3.exact == (Fraction(1, 3), Fraction(1, 2), Fraction(0), Fraction(1, 6))
    d4 = build_factorial_distribution(4)
    assert d4.exact == (Fraction(3, 8), Fraction(1, 3), Fraction(1, 4),
                        Fraction(0), Fraction(1, 24))


def test_factorial_distribution_invariants_up_to_twelve():
    for kappa in range(2, 13):
        dist = build_factorial_distribution(kappa)
        assert dist.probabilities[kappa - 1] == 0.0
        assert abs(float(np.sum(dist.probabilities)) - 1.0) <= 1e-14
        for m in range(1, kappa + 1):
            assert abs(dist.factorial_moment(m) - 1.0) <= 1e-12
        # exact rational check of the same invariants
        for m in range(1, kappa + 1):
            moment = sum(
                Fraction(math.perm(i, m)) * p for i, p in enumerate(dist.exact))
            assert moment == 1


@pytest.mark.parametrize("kappa", range(2, 13))
def test_factorial_sample_equals_generator_choice(kappa):
    dist = build_factorial_distribution(kappa)
    for size in (0, 1, 7, 1000):
        mine, ref = np.random.default_rng([kappa, size]), np.random.default_rng([kappa, size])
        got = dist.sample(size, mine)
        want = ref.choice(kappa + 1, size=size, p=dist.probabilities)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)
        assert mine.random() == ref.random()


def test_factorial_distribution_built_once_per_kappa():
    dist = build_factorial_distribution(5)
    assert build_factorial_distribution(5) is dist
    assert not dist.probabilities.flags.writeable and not dist.cdf.flags.writeable
    with pytest.raises(ValueError):
        build_factorial_distribution(1)


@pytest.mark.parametrize("kappa", [1, 0, -3, 171, 100_000, 2.5, 3.0, True, "3"])
def test_factorial_distribution_takes_an_integer_kappa_from_2_to_170(kappa):
    with pytest.raises(ValueError, match=re.escape(f"from 2 to 170, got kappa={kappa!r}")):
        build_factorial_distribution(kappa)


def test_factorial_distribution_at_kappa_170_puts_one_over_170_factorial_at_170():
    dist = build_factorial_distribution(170)
    assert dist.exact[170] == Fraction(1, math.factorial(170))
    assert dist.probabilities[170] == 1 / math.factorial(170) > 0.0


def test_factorial_distribution_validation():
    with pytest.raises(ValueError):
        FactorialDistribution(2, np.array([0.4, 0.2, 0.4]))  # p_{k-1} != 0
    with pytest.raises(ValueError):
        FactorialDistribution(2, np.array([0.6, 0.0, 0.4]))  # moments wrong


def test_cube_process_mean_and_support():
    dist = build_factorial_distribution(3)
    pts = sample_cube_process(2, dist, [(0, 100), (0, 100)], 11)
    per_cube = np.zeros((100, 100), dtype=int)
    for p in pts:
        per_cube[int(p[0]), int(p[1])] += 1
    vals, counts = np.unique(per_cube, return_counts=True)
    assert set(vals.tolist()) <= {0, 1, 3}
    mean = per_cube.mean()
    se = per_cube.std(ddof=1) / 100.0
    assert abs(mean - 1.0) < 3.0 * se
    pair_moment = (per_cube * (per_cube - 1)).mean()
    se2 = (per_cube * (per_cube - 1)).std(ddof=1) / 100.0
    assert abs(pair_moment - 1.0) < 3.0 * se2


def test_cube_process_stationarized_clips_to_box():
    dist = build_factorial_distribution(2)
    pts = sample_cube_process(2, dist, [(0, 5), (0, 5)], 4, stationarize=True)
    assert np.all(pts >= 0.0) and np.all(pts < 5.0)
    base = sample_cube_process(2, dist, [(0, 5), (0, 5)], 4, stationarize=False)
    assert np.all(base >= 0.0) and np.all(base < 5.0)


def test_cube_process_stationarized_mean_unbiased():
    dist = build_factorial_distribution(3)
    counts = [sample_cube_process(2, dist, [(0, 6), (0, 6)], [5, i],
                                  stationarize=True).shape[0]
              for i in range(2_000)]
    mean = np.mean(counts) / 36.0
    se = np.std(counts, ddof=1) / math.sqrt(len(counts)) / 36.0
    assert abs(mean - 1.0) < 3.0 * se


def test_q0_samples_avoid_degeneracy_and_match_density():
    anchor = Subspace(np.eye(2)[1:])  # span(e2) in the plane
    rng = np.random.default_rng(31)
    angles = []
    for _ in range(4_000):
        line = Subspace(sample_q0_bases(anchor, 2, 1, 1, rng)[0])
        assert subspace_determinant([anchor, line]) > 1e-10
        u = line.basis[0]
        theta = math.atan2(u[1], u[0])
        if theta < -math.pi / 2:
            theta += math.pi
        if theta >= math.pi / 2:
            theta -= math.pi
        angles.append(theta)
    angles = np.sort(np.array(angles))
    # density proportional to |cos theta| on [-pi/2, pi/2): CDF (sin t + 1)/2
    cdf = (np.sin(angles) + 1.0) / 2.0
    ecdf = np.arange(1, len(angles) + 1) / len(angles)
    assert np.max(np.abs(ecdf - cdf)) < 0.03


def test_q0_acceptance_constant_matches_c():
    # the acceptance probability of the rejection sampler is [E0, L] for a
    # Haar proposal, so its mean is the integrated subspace determinant
    anchor = Subspace(np.eye(2)[1:])
    rng = np.random.default_rng(32)
    from _reference import haar_sample

    dets = np.array([subspace_determinant([anchor, haar_sample(2, 1, rng)])
                     for _ in range(20_000)])
    se = dets.std(ddof=1) / math.sqrt(dets.size)
    assert abs(dets.mean() - c_constant(2, 1, 1)) < 3.0 * se
    assert abs(c_constant(2, 1, 1) - 2.0 / math.pi) < 1e-14


def test_sr_flats_intensity_matches_invariant_measure():
    # E count hitting the R-ball equals that of a Poisson process with
    # intensity 1/c(n, n-k, k) and isotropic directions; the anchored
    # construction is truncated, so a generous cover is used
    n, k = 2, 1
    anchor = Subspace(np.eye(2)[1:])
    spec = FlatProcessSpec(n, k, 1.0, GrassmannMeasure.isotropic(n, k, 1.0),
                           kind=SrConstruction(3, anchor))
    reps = 1_200
    counts = [len(sample_sr_flats(spec, 1.0, [6, i], cover_radius=250.0))
              for i in range(reps)]
    mean = np.mean(counts)
    se = np.std(counts, ddof=1) / math.sqrt(reps)
    target = sr_intensity(n, k) * constants.ball_volume(n - k) * 1.0
    assert abs(mean - target) < 3.0 * se
    assert abs(target - math.pi) < 1e-12


@pytest.mark.parametrize("cover", [math.nan, math.inf, -math.inf, -5.0, 0.2, 2.999])
def test_sr_flats_reject_bad_cover_radius(cover):
    # before any draw: NaN and inf used to fail in the cube sampler's integer
    # conversion, a negative cover there, and a cover below the window radius
    # silently dropped the flats anchored between the two
    spec = FlatProcessSpec(3, 1, sr_intensity(3, 1), GrassmannMeasure.isotropic(3, 1, 1.0),
                           kind=SrConstruction(3, Subspace(E3[1:])))
    gen = np.random.default_rng(6)
    state = gen.bit_generator.state
    with pytest.raises(ValueError, match="cover_radius"):
        sample_sr_flats(spec, 3.0, gen, cover_radius=cover)
    assert gen.bit_generator.state == state
    assert len(sample_sr_flats(spec, 3.0, gen, cover_radius=3.0)) > 0


def test_sr_flats_default_cover_documented_undercount():
    n, k = 2, 1
    anchor = Subspace(np.eye(2)[1:])
    spec = FlatProcessSpec(n, k, 1.0, GrassmannMeasure.isotropic(n, k, 1.0),
                           kind=SrConstruction(3, anchor))
    counts = [len(sample_sr_flats(spec, 1.0, [8, i])) for i in range(600)]
    assert np.mean(counts) < math.pi - 0.1


def anchor_coordinates(sample: FlatSample, anchor: Subspace) -> np.ndarray:
    """Recover the anchor point of each flat: its intersection with the
    anchor subspace, in anchor coordinates."""
    out = np.zeros((len(sample), anchor.k))
    for i in range(len(sample)):
        basis = sample.bases[i]
        # solve x = offset + s.basis with x in anchor: perp-part of x vanishes
        comp = np.eye(sample.n) - anchor.projector()
        a_mat = (basis @ comp).T
        rhs = -comp @ sample.offsets[i]
        s, *_ = np.linalg.lstsq(a_mat, rhs, rcond=None)
        point = sample.offsets[i] + s @ basis
        out[i] = anchor.basis @ point
    return out


def test_sr_flats_pair_moments_and_bounded_tuples():
    n, k, kappa = 3, 2, 3
    anchor = Subspace(np.eye(3)[2:])  # one-dimensional anchor: d = n - k = 1
    spec = FlatProcessSpec(n, k, 1.0, GrassmannMeasure.isotropic(n, k, 1.0),
                           kind=SrConstruction(kappa, anchor))
    reps = 1_500
    c1, c2, both, tuples4 = [], [], [], []
    for i in range(reps):
        s = sample_sr_flats(spec, 3.0, [9, i], cover_radius=40.0)
        coords = anchor_coordinates(s, anchor)[:, 0] if len(s) else np.zeros(0)
        in_cube = (coords >= 0.0) & (coords < 1.0)
        count = int(np.sum(in_cube))
        assert count <= kappa  # per-cube flat count is deterministically bounded
        tuples4.append(math.perm(count, kappa + 1))
        # hitting sets of two disjoint balls around +-1.5 e3 (a flat may hit
        # both, so distinct ordered pairs subtract the overlap)
        hit1 = np.array([np.linalg.norm((np.eye(3) - s.bases[j].T @ s.bases[j])
                                        @ (1.5 * E3[2] - s.offsets[j])) <= 0.4
                         for j in range(len(s))]) if len(s) else np.zeros(0, bool)
        hit2 = np.array([np.linalg.norm((np.eye(3) - s.bases[j].T @ s.bases[j])
                                        @ (-1.5 * E3[2] - s.offsets[j])) <= 0.4
                         for j in range(len(s))]) if len(s) else np.zeros(0, bool)
        c1.append(int(np.sum(hit1)))
        c2.append(int(np.sum(hit2)))
        both.append(int(np.sum(hit1 & hit2)))
    assert sum(tuples4) == 0  # no (kappa+1)-tuples within one cube, ever
    c1, c2, both = np.array(c1), np.array(c2), np.array(both)
    pairs = c1 * c2 - both  # ordered distinct pairs across the two hit sets
    diff = pairs.mean() - c1.mean() * c2.mean()
    grad = np.array([1.0, -c2.mean(), -c1.mean()])
    cov = np.cov(np.stack([pairs, c1, c2]), rowvar=True)
    var = float(grad @ cov @ grad) / reps
    z = diff / math.sqrt(var)
    assert abs(z) < 3.0


def test_spec_validation():
    with pytest.raises(ValueError, match="total mass 1"):
        FlatProcessSpec(3, 1, 1.0, GrassmannMeasure.isotropic(3, 1, 2.0))
    with pytest.raises(ValueError, match="n - k"):
        FlatProcessSpec(3, 1, 1.0, GrassmannMeasure.isotropic(3, 1, 1.0),
                        kind=SrConstruction(3, Subspace(E3[:1])))
    with pytest.raises(ValueError, match="Poisson"):
        sample_poisson(FlatProcessSpec(3, 1, 1.0,
                                       GrassmannMeasure.isotropic(3, 1, 1.0),
                                       kind=SrConstruction(2, Subspace(E3[1:]))),
                       1.0, 0)


def test_sample_q0_bases_shape_and_dimension_check():
    anchor = Subspace(np.eye(4)[2:])
    bases = sample_q0_bases(anchor, 4, 2, 5, 13)
    assert bases.shape == (5, 2, 4)
    with pytest.raises(ValueError):
        sample_q0_bases(anchor, 4, 3, 1, 0)
