"""Closed-form intensities, directional distributions, covariances, and
limit constants of intersection and proximity processes.

Discrete directional distributions are summed exactly unless a custom direction
set makes the integrand random; rotation-invariant ones use the constant
c(n, r, s), else Monte Carlo over rows with a standard error (see _draws).
Window cross-sections are exact: radial for balls, the covariogram for boxes and lines.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import constants
from ._rng import SeedLike, as_generator, derived_stream
from .flat_geometry import (_in_blocks, complement_bases, gram_volumes, product_indices,
                            q_factors, read_only, row_norms, subspace_views)
from .measures import (DEFAULT_MC_SAMPLES, DirectionSet, GrassmannMeasure, SphereMeasure,
                       _mc_mean, check_samples, finite_positive, positive_weights,
                       symmetrize_line_measure)
from .zonoid_engine import _hyperplane_atoms


@dataclass(frozen=True)
class WindowDescriptor:
    """Observation window: a centered ball of the given radius or a centered
    box of the given side lengths, held at its actual size.

    The box is admitted as a single open convex set.  The grown window rho * A
    of the large-window limits is `A.rescaled(rho)`, a ball or box like A.
    """

    shape: str
    radius: float | None = None
    sides: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.shape not in ("ball", "box"):
            raise ValueError(f"unknown window shape {self.shape!r}")
        if self.shape == "ball" and (self.radius is None or not finite_positive(self.radius)):
            raise ValueError("ball window needs a finite positive radius")
        if self.shape == "box":
            if not self.sides or not all(finite_positive(s) for s in self.sides):
                raise ValueError("box window needs finite positive side lengths")
            object.__setattr__(self, "sides", tuple(self.sides))  # hashable

    @staticmethod
    def ball(radius: float) -> "WindowDescriptor":
        return WindowDescriptor(shape="ball", radius=float(radius))

    @staticmethod
    def box(sides) -> "WindowDescriptor":
        return WindowDescriptor(shape="box", sides=tuple(float(s) for s in sides))

    @staticmethod
    def unit_cube(n: int) -> "WindowDescriptor":
        return WindowDescriptor.box((1.0,) * n)

    def rescaled(self, rho: float) -> "WindowDescriptor":
        """The grown window rho * A: radius or sides times rho."""
        if not finite_positive(rho):
            raise ValueError(f"window scale must be finite and positive, got {rho!r}")
        if self.shape == "ball":
            return WindowDescriptor.ball(self.radius * rho)
        return WindowDescriptor.box([s * rho for s in self.sides])

    def volume(self, n: int) -> float:
        if self.shape == "ball":
            return constants.ball_volume(n) * self.radius ** n
        self.check_sides(n)
        return float(np.prod(self.sides))

    def check_sides(self, n: int) -> None:
        if len(self.sides) != n:
            raise ValueError("box side count must match the ambient dimension")

    def circumradius(self) -> float:
        return self._circumradius

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Closed membership test for an (m, n) array of points; anything
        else (a list, one point, integers) is taken as float points first."""
        if not (type(points) is np.ndarray and points.ndim == 2 and points.dtype == np.float64):
            points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.shape == "ball":
            return row_norms(points) <= self.radius
        self.check_sides(points.shape[1])
        return np.logical_and.reduce(np.abs(points) <= self._half_sides, axis=1)

    @cached_property
    def _circumradius(self) -> float:
        if self.shape == "ball":
            return self.radius
        return 0.5 * math.sqrt(sum(s * s for s in self.sides))

    @cached_property
    def _half_sides(self) -> np.ndarray:
        return read_only(0.5 * np.asarray(self.sides))


def _check_params(positive: tuple[str, ...] = ("delta",), **params: float) -> None:
    """ValueError naming the first parameter that is NaN, infinite or
    negative, or zero for a name in `positive`."""
    for name, value in params.items():
        strict = name in positive
        if not (math.isfinite(value) and (value > 0 if strict else value >= 0)):
            raise ValueError(f"{name} must be finite and "
                             f"{'positive' if strict else 'nonnegative'}, got {value!r}")


def c_constant(n: int, r: int, s: int) -> float:
    """Integrated subspace determinant c(n, r, s).

    The average of [L, M] over a Haar-distributed M in G(n, s), for any
    fixed L in G(n, r):
        binom(n-r, s) kappa_{n-r} kappa_{n-s} /
        (binom(n, s) kappa_n kappa_{n-r-s}).
    """
    if not (0 < r <= n - 1 and 0 < s <= n - 1 and n - r - s >= 0):
        raise ValueError(f"need 0 < r, s <= n-1 and r + s <= n, got n={n}, r={r}, s={s}")
    kv = constants.ball_volume
    # binom(n-r, s) / binom(n, s) rewritten in the r <-> s symmetric form
    # (n-r)! (n-s)! / (n! (n-r-s)!) so the symmetry holds exactly in floats
    ratio = math.factorial(n - r) * math.factorial(n - s) \
        / (math.factorial(n) * math.factorial(n - r - s))
    return ratio * (kv(n - r) * kv(n - s)) / (kv(n) * kv(n - r - s))


def _draws(qs, gen: np.random.Generator):
    """Row sampler: draw(rows) gives the next rows, one (rows, k, n) basis stack
    per measure of qs, and the atom indices of each atomic one (else None).
    Row i of one normal draw of gen holds row i's isotropic factors (their
    q_factors, as haar_bases); each atomic measure chooses from a stream of
    its own, so blocks of any size give the same rows."""
    streams = [None if q.is_isotropic else derived_stream(gen) for q in qs]

    def draw(rows: int) -> tuple[list[np.ndarray], list[np.ndarray | None]]:
        z = gen.standard_normal((rows, sum(q.k for q in qs if q.is_isotropic), qs[0].n))
        bases, picks = [], []
        for q, stream in zip(qs, streams):
            if stream is None:
                bases.append(q_factors(z[:, :q.k]))
                z, pick = z[:, q.k:], None
            else:
                pick = stream.choice(len(q.weights), size=rows, p=q.weights / q.weights.sum())
                bases.append(q.bases[pick])
            picks.append(pick)
        return bases, picks
    return draw


def _atom_sum(qs, integrand) -> float:
    """Sum over every tuple of atoms of discrete measures, in lexicographic
    order, of the tuple's weight times integrand(one basis stack per
    measure), BLOCK_ROWS tuples at a time."""
    index = product_indices([len(q.weights) for q in qs]).T
    values, = _in_blocks(lambda block: (integrand(
        [q.bases[i[block]] for q, i in zip(qs, index)]),), index.shape[1])
    return float(np.prod([q.weights[i] for q, i in zip(qs, index)], axis=0) @ values)


def _pair_integrand(l_bases: np.ndarray, m_bases: np.ndarray, direction_set: DirectionSet | None,
                    gen: np.random.Generator | None) -> np.ndarray:
    """[L, M] sigma_{(L+M)-perp}(C intersect .) for each row of two basis
    stacks (the bare [L, M] for direction_set None), 0 where [L, M] <= 1e-14;
    a custom set takes one point of gen on each kept row's sphere, as
    subsphere_measures does."""
    joint = np.concatenate([l_bases, m_bases], axis=1)
    det = np.minimum(gram_volumes(joint), 1.0)
    keep = det > 1e-14
    values = np.where(keep, det, 0.0)
    if direction_set is not None and direction_set.kind == "double_cap":
        # |P_{(L+M)-perp} axis| from the residual axis - J^T (J J^T)^-1 J axis
        j = joint[keep]
        coef = np.linalg.solve(j @ np.swapaxes(j, 1, 2), (j @ direction_set.axis)[..., None])
        residual = direction_set.axis - np.einsum("mp,mpn->mn", coef[..., 0], j)
        values[keep] *= direction_set.double_cap_measures(np.linalg.norm(residual, axis=1),
                                                          j.shape[2] - j.shape[1])
    elif direction_set is not None and direction_set.kind == "full":
        # sigma of the whole sphere of (L+M)-perp, as subsphere_measures gives it
        d = joint.shape[2] - joint.shape[1]
        values *= constants.sphere_surface(d) if d >= 1 else 0.0
    elif direction_set is not None:
        values[keep] *= direction_set.subsphere_measures(complement_bases(joint[keep]), gen)
    return values


def pair_integral(q1: GrassmannMeasure, q2: GrassmannMeasure,
                  direction_set: DirectionSet | None = None, rng: SeedLike | None = None,
                  samples: int = DEFAULT_MC_SAMPLES) -> tuple[float, float]:
    """Double integral of [L, M] (times a direction-set factor) over Q1 x Q2.

    With direction_set None the integrand is the bare subspace determinant;
    otherwise it is [L, M] * sigma_{(L+M)-perp}(C intersect (L+M)-perp).
    Haar components with no direction factor (or a full-sphere factor) use
    c(n, k1, k2); atom pairs with no custom set are summed exactly.  Else
    Monte Carlo with a standard error over `samples` rows (BLOCK_ROWS at a
    time), each row one draw of L, of M and, for a custom set, of a point on
    the sphere of (L+M)-perp, from a stream of its own.
    """
    n = q1.n
    if q2.n != n or direction_set is not None and direction_set.n != n:
        raise ValueError("measures and direction set must share the ambient dimension")
    samples = check_samples(samples)
    isotropic = q1.is_isotropic or q2.is_isotropic
    if isotropic and (direction_set is None or direction_set.kind == "full"):
        value = q1.total_mass * q2.total_mass * c_constant(n, q1.k, q2.k)
        if direction_set is not None:
            value *= constants.sphere_surface(n - q1.k - q2.k)
        return value, 0.0

    custom = direction_set is not None and direction_set.kind == "custom"
    if not isotropic and not (custom and q1.weights.size and q2.weights.size):  # no draws in 0
        return _atom_sum([q1, q2], lambda b: _pair_integrand(*b, direction_set, None)), 0.0

    gen = as_generator(rng if rng is not None else 0x1507)
    draw, points = _draws([q1, q2], gen), derived_stream(gen) if custom else None
    return _mc_mean(lambda rows: _pair_integrand(*draw(rows)[0], direction_set, points),
                    samples, q1.total_mass * q2.total_mass)


def proximity_intensity(n: int, k: int, gamma: float, q: GrassmannMeasure,
                        delta: float) -> float:
    """Proximity of a single weakly stationary k-flat process.

    pi(X, delta) = (gamma^2 / 2) kappa_{n-2k} delta^{n-2k} * the double
    integral of [L, M] over the directional distribution; exact for both
    atomic and isotropic distributions.
    """
    if not 1 <= k or not 2 * k < n:
        raise ValueError("requires 2k < n and k >= 1")
    _check_params(gamma=gamma, delta=delta)
    return 0.5 * proximity_intensity_two(n, k, k, gamma, gamma, q, q, delta)


def proximity_intensity_two(n: int, k1: int, k2: int, gamma1: float, gamma2: float,
                            q1: GrassmannMeasure, q2: GrassmannMeasure,
                            delta: float) -> float:
    """Intensity of the proximity process of two independent flat processes."""
    if k1 < 1 or k2 < 1 or k1 + k2 >= n:
        raise ValueError("requires k1, k2 >= 1 and k1 + k2 < n")
    _check_params(gamma1=gamma1, gamma2=gamma2, delta=delta)
    if gamma1 == 0.0 or gamma2 == 0.0:
        return 0.0
    integral, _ = pair_integral(q1, q2)
    return gamma1 * gamma2 * constants.ball_volume(n - k1 - k2) \
        * delta ** (n - k1 - k2) * integral


def proximity_directional(n: int, k: int, q: GrassmannMeasure,
                          direction_set: DirectionSet,
                          rng: SeedLike | None = None,
                          samples: int = DEFAULT_MC_SAMPLES) -> tuple[float, float]:
    """Directional distribution R(C) of the proximity process.

    The ratio of the pair integral with the direction-set factor to the
    normalizing pair integral; independent of the distance threshold.
    """
    if not 1 <= k or not 2 * k < n:
        raise ValueError("requires 2k < n and k >= 1")
    num, se = pair_integral(q, q, direction_set, rng=rng, samples=samples)  # checks the set
    denom, _ = pair_integral(q, q)
    if denom <= 0:
        raise ValueError("degenerate directional distribution")
    if direction_set.kind == "full":
        return 1.0, 0.0
    omega = constants.sphere_surface(n - 2 * k)
    return num / (omega * denom), se / (omega * denom)


def proximity_directional_measure(n: int, q: GrassmannMeasure) -> SphereMeasure:
    """Full directional measure of the proximity process of a line process.

    For an atomic line directional distribution this is the normalized
    subsphere mixture over unordered atom pairs: the pair {L_i, L_j} carries
    2 w_i w_j [L_i, L_j] on the sphere of (L_i + L_j)-perp.  That is
    mu_Q_2 of the symmetrized distribution, so the mixture coincides with
    the normalized second-order area measure of the associated zonotope.
    """
    if q.k != 1:
        raise ValueError("full directional measure implemented for lines only")
    if q.is_isotropic:
        raise ValueError("requires an atomic directional distribution")
    bases, weights = _hyperplane_atoms(symmetrize_line_measure(q), 2)
    total = float(sum(weights.tolist())) * constants.sphere_surface(n - 2)
    if total <= 0:
        raise ValueError("degenerate directional distribution")
    return SphereMeasure(n, components=(GrassmannMeasure(n, n - 2, bases, weights / total),))


def intersection_density(n: int, dims, intensities, qs, g=None,
                         same_process: bool = False,
                         rng: SeedLike | None = None,
                         samples: int = 20_000) -> tuple[float, float]:
    """Intensity functional of an intersection process of order r.

    Computes gamma_Y * integral of g against the directional distribution of
    the intersection process: the r-fold integral of
    1 * [L_1, ..., L_r] * g(L_1 n ... n L_r) against the directional
    distributions, times the product of intensities (divided by r! when the
    r factors are one process of type (S_r)).  g defaults to 1, yielding the
    intersection density itself.  Exact for atomic distributions; Monte
    Carlo with standard error when any factor is isotropic.
    """
    dims, qs, intensities = list(dims), list(qs), list(intensities)
    r = len(dims)
    if r < 2:
        raise ValueError("intersection order must be at least 2")
    if sum(dims) < (r - 1) * n:
        raise ValueError("requires k_1 + ... + k_r >= (r-1) n")
    if len(qs) != r or len(intensities) != r:
        raise ValueError("need one intensity and one distribution per factor")
    if same_process and (len(set(dims)) != 1):
        raise ValueError("a single process has a single flat dimension")
    _check_params(**{f"intensities[{i}]": gamma for i, gamma in enumerate(intensities)})
    samples = check_samples(samples)
    prefactor = math.prod(map(float, intensities))  # overflows to inf without a warning
    if same_process:
        prefactor /= math.factorial(r)
    if prefactor == 0.0 or not all(q.total_mass for q in qs):  # zero measures have no draws
        return 0.0, 0.0

    if all(not q.is_isotropic for q in qs):
        return prefactor * _atom_sum(qs, lambda bases: _tuple_integrand(bases, g)), 0.0

    draw = _draws(qs, as_generator(rng if rng is not None else 0x1507))
    return _mc_mean(lambda rows: _tuple_integrand(draw(rows)[0], g), samples,
                    prefactor * float(np.prod([q.total_mass for q in qs])))


def _tuple_integrand(bases: list[np.ndarray], g=None) -> np.ndarray:
    """[L_1, ..., L_r] g(L_1 n ... n L_r) for each row of r basis stacks
    (g None counts as 1); rows with determinant <= 1e-14 give 0 and skip g.
    The determinant is taken on the complements: k_1 + ... + k_r >= (r-1) n,
    and where the sum is n (r = 2) [L, M] = [L-perp, M-perp]."""
    normal = np.concatenate([complement_bases(b) for b in bases], axis=1)
    det = np.minimum(gram_volumes(normal), 1.0)
    keep = det > 1e-14
    values = np.where(keep, det, 0.0)
    if g is not None:
        # the intersection is the null space of the stacked complements
        values[keep] *= [float(g(sub)) for sub in subspace_views(complement_bases(normal[keep]))]
    return values


def hyperplane_intersection(n: int, gamma: float, q: SphereMeasure,
                            r: int) -> GrassmannMeasure:
    """Intensity-weighted directional measure of the r-th intersection
    process of a hyperplane process: (gamma^r / r!) times the
    hyperplane-intersection measure of the even directional distribution.
    n must be q's dimension and gamma finite and nonnegative; gamma = 0 gives
    the zero measure on G(n, n - r), and a gamma whose scaled weights leave
    the float range is a ValueError naming gamma and r."""
    if n != q.n:
        raise ValueError(f"n={n} does not match the directional distribution's n={q.n}")
    _check_params(gamma=gamma)
    bases, weights = _hyperplane_atoms(q, r)
    if gamma == 0.0:
        return GrassmannMeasure.zero(n, n - r)
    try:
        factor = gamma ** r / math.factorial(r)
    except OverflowError:
        factor = math.inf
    with np.errstate(over="ignore"):
        scaled = weights * factor
    if not positive_weights(scaled, len(bases)):
        raise ValueError(f"gamma={gamma!r} at r={r} puts the atom weights "
                         "gamma^r / r! * mu_Q_r outside the float range")
    return GrassmannMeasure(n, n - r, bases, scaled)


def mean_F_alpha(n: int, k: int, gamma: float, q: GrassmannMeasure, delta: float,
                 alpha: float, window: WindowDescriptor,
                 direction_set: DirectionSet | None = None,
                 rng: SeedLike | None = None,
                 samples: int = DEFAULT_MC_SAMPLES) -> tuple[float, float]:
    """Expectation of the length-power direction functional F_alpha.

    E F_alpha(A, C) = (gamma^2/2) * delta^{n-2k+alpha} / (n-2k+alpha)
    * vol(A) * pair integral with the direction factor, A the window as
    given: for the grown window rho * A pass `A.rescaled(rho)`.
    """
    if not 1 <= k or not 2 * k < n:
        raise ValueError("requires 2k < n and k >= 1")
    _check_params(gamma=gamma, delta=delta, alpha=alpha)
    integral, se = pair_integral(q, q, direction_set or DirectionSet.full_sphere(n), rng=rng,
                                 samples=samples)
    power = n - 2 * k + alpha
    factor = 0.5 * gamma * gamma * delta ** power / power * window.volume(n)
    return factor * integral, factor * se


def proximity_length_interval(n: int, k: int, gamma: float, q: GrassmannMeasure,
                              b0: float, b1: float,
                              direction_set: DirectionSet | None = None,
                              rng: SeedLike | None = None,
                              samples: int = DEFAULT_MC_SAMPLES) -> tuple[float, float]:
    """Per-unit-volume intensity of segments with length in (b0, b1].

    The length component of the intensity measure integrates t^{n-2k-1}
    over the interval, so the value is (gamma^2 / 2) times
    (b1^{n-2k} - b0^{n-2k}) / (n-2k) times the pair integral with the
    direction-set factor (a full sphere contributes omega_{n-2k}, making
    the interval (0, delta] reduce to the proximity).
    """
    if not 1 <= k or not 2 * k < n:
        raise ValueError("requires 2k < n and k >= 1")
    _check_params(gamma=gamma, b0=b0, b1=b1)
    if not b0 <= b1:
        raise ValueError("need 0 <= b0 <= b1")
    integral, se = pair_integral(q, q, direction_set or DirectionSet.full_sphere(n), rng=rng,
                                 samples=samples)
    power = n - 2 * k
    factor = 0.5 * gamma * gamma * (b1 ** power - b0 ** power) / power
    return factor * integral, factor * se


def _b_factors(q: GrassmannMeasure, direction_set: DirectionSet, gen: np.random.Generator):
    """Inner covariance integrand b(M; C) = integral of [L, M]
    sigma_{(L+M)-perp}(C intersect .) dQ(L), as b(m, picks, l) on rows of M
    bases, M's atom indices and one draw L from q each: omega_{n-2k} c(n, k, k)
    |Q| for isotropic q and the full sphere, exact over the atoms for atomic q
    and an analytic set, else the one-draw estimate |Q| [L, M] sigma."""
    if q.is_isotropic and direction_set.kind == "full":
        b = constants.sphere_surface(q.n - 2 * q.k) * q.total_mass * c_constant(q.n, q.k, q.k)
        return lambda m, picks, l: b
    if not q.is_isotropic and direction_set.kind != "custom":
        def block(rows):  # rows of (M, L) atom pairs, summed per M with L's weights
            o, i = np.divmod(rows, len(q.weights))
            values = _pair_integrand(q.bases[i], q.bases[o], direction_set, None)
            return (np.bincount(o, q.weights[i] * values, minlength=len(q.weights))[None],)

        exact = _in_blocks(block, len(q.weights) ** 2)[0].sum(axis=0)
        return lambda m, picks, l: exact[picks]
    points = derived_stream(gen) if direction_set.kind == "custom" else None
    return lambda m, picks, l: q.total_mass * _pair_integrand(l, m, direction_set, points)


def ball_cross_section_integral(n: int, k: int, radius: float) -> float:
    """integral over M-perp of vol_k(ball intersect (M + y))^2 dy.

    For a centered ball this is independent of M:
    kappa_k^2 omega_{n-k} (1/2) B(k+1, (n-k)/2) radius^{n+k}.
    """
    kv = constants.ball_volume
    beta = math.gamma(k + 1) * math.gamma((n - k) / 2) / math.gamma(k + 1 + (n - k) / 2)
    return kv(k) ** 2 * constants.sphere_surface(n - k) * 0.5 * beta * radius ** (n + k)


def cross_sections(n: int, k: int, window: WindowDescriptor, bases: np.ndarray) -> np.ndarray:
    """integral over M-perp of vol_k(A intersect (M + y))^2 dy for window A and
    each M of an (m, k, n) stack of orthonormal bases.

    Balls have a closed radial form.  For a box and a line M = span(u), by
    Fubini, the integral along M of the covariogram vol(A intersect (A + z)):
    2 int_0^T prod_i (s_i - t|u_i|) dt, s_i the sides, T = min_i s_i / |u_i|.
    With t = T (1 - y) that is 2 T prod_i s_i int_0^1 prod_i (1 - r_i + r_i y) dy,
    r_i = T |u_i| / s_i in [0, 1]: a degree-n polynomial, which n // 2 + 1
    Gauss-Legendre nodes integrate exactly, from nonnegative terms.
    """
    if window.shape == "ball":
        return np.full(len(bases), ball_cross_section_integral(n, k, window.radius))
    if k != 1:
        raise ValueError("box windows support k = 1 cross-sections only")
    window.check_sides(n)
    rate = np.abs(bases[:, 0]) / window.sides
    inv_t = rate.max(axis=1)
    nodes, weights = np.polynomial.legendre.leggauss(n // 2 + 1)
    r = (rate / inv_t[:, None])[..., None]
    factors = 1.0 - r + r * (nodes + 1.0) / 2.0  # at y = (node + 1) / 2
    return window.volume(n) / inv_t * (np.prod(factors, axis=1) @ weights)


def asymptotic_covariance(n: int, k: int, gamma: float, q: GrassmannMeasure, delta: float,
                          alpha_i: float, alpha_j: float, window: WindowDescriptor,
                          c_i: DirectionSet | None = None, c_j: DirectionSet | None = None,
                          rng: SeedLike | None = None,
                          samples: int = DEFAULT_MC_SAMPLES) -> tuple[float, float]:
    """Asymptotic covariance sigma_ij of the normalized functionals.

    sigma_ij = gamma^3 delta^{2(n-2k)+alpha_i+alpha_j} /
    ((n-2k+alpha_i)(n-2k+alpha_j)) * I(A; C_i, C_j) with
    I = integral over M of b(M; C_i) b(M; C_j) * cross-section integral.
    Closed for isotropic q with full-sphere sets over a ball, exact over the
    atoms for atomic q with analytic sets.  Else Monte Carlo with a standard
    error over `samples` rows: a row draws M, L_i and L_j from q and reads
    b(M; C_i) b(M; C_j) (_b_factors, each from its own L) times M's exact
    cross-section, so the product stays unbiased.
    """
    if not 1 <= k or not 2 * k < n:
        raise ValueError("requires 2k < n and k >= 1")
    _check_params(gamma=gamma, delta=delta, alpha_i=alpha_i, alpha_j=alpha_j)
    samples = check_samples(samples)
    cross_sections(n, k, window, np.empty((0, k, n)))  # a bad box fails before any draw
    c_i, c_j = c_i or DirectionSet.full_sphere(n), c_j or DirectionSet.full_sphere(n)
    if c_i.n != n or c_j.n != n:
        raise ValueError("measures and direction set must share the ambient dimension")
    pref = gamma ** 3 * delta ** (2 * (n - 2 * k) + alpha_i + alpha_j) \
        / ((n - 2 * k + alpha_i) * (n - 2 * k + alpha_j))
    gen = as_generator(rng if rng is not None else 0xC0F)
    b_i, b_j = [_b_factors(q, c, gen) for c in (c_i, c_j)]

    if q.is_isotropic and c_i.kind == c_j.kind == "full" and window.shape == "ball":
        b_iso = b_i(None, None, None)
        return pref * b_iso * b_iso * ball_cross_section_integral(n, k, window.radius), 0.0

    def rows(bases, picks):  # bases (M, L_i, L_j), picks[0] M's atom indices
        return b_i(bases[0], picks[0], bases[1]) * b_j(bases[0], picks[0], bases[2]) \
            * cross_sections(n, k, window, bases[0])

    if not q.is_isotropic and ("custom" not in (c_i.kind, c_j.kind) or not q.weights.size):
        return pref * float(q.weights @ rows([q.bases] * 3, [np.arange(len(q.weights))])), 0.0
    draw = _draws([q, q, q], gen)
    return _mc_mean(lambda count: rows(*draw(count)), samples, pref * q.total_mass)


def ball_chord_power_integral(n: int, radius: float, power: float) -> float:
    """Chord-power integral of a centered ball over the invariant line measure:
    omega_{n-1} * int_0^a (2 sqrt(a^2 - r^2))^p r^{n-2} dr, which r^2 = a^2 t
    turns into omega_{n-1} 2^{p-1} a^{p+n-1} B((n-1)/2, p/2 + 1)."""
    x, y = (n - 1) / 2.0, power / 2.0 + 1.0
    beta = math.gamma(x) * math.gamma(y) / math.gamma(x + y)
    return constants.sphere_surface(n - 1) * 2.0 ** (power - 1) * radius ** (power + n - 1) * beta


def covariance_cpi_form(n: int, k: int, window: WindowDescriptor) -> float:
    """Isotropic full-sphere I(A; S, S) via the chord-power identity:
    (kappa_k / (k+1)) * b_iso^2 * chord-power integral of order k+1."""
    if window.shape != "ball":
        raise ValueError("chord-power cross-check implemented for balls")
    b_iso = constants.sphere_surface(n - 2 * k) * c_constant(n, k, k)
    chord = ball_chord_power_integral(n, window.radius, k + 1)
    return constants.ball_volume(k) / (k + 1) * b_iso * b_iso * chord


def weibull_beta(n: int, k: int, gamma: float, q: GrassmannMeasure,
                 window: WindowDescriptor,
                 direction_set: DirectionSet | None = None,
                 rng: SeedLike | None = None,
                 samples: int = DEFAULT_MC_SAMPLES) -> tuple[float, float]:
    """Rate constant of the limiting law of the shortest proximity distance.

    beta = gamma^2 / (2(n-2k)) * vol(A) * pair integral with the direction
    factor.  A is the base window, not the grown rho * A the segments are
    observed in: rho enters through the rescaling of the order statistics.
    """
    if not 1 <= k or not 2 * k < n:
        raise ValueError("requires 2k < n and k >= 1")
    _check_params(gamma=gamma)
    volume = window.volume(n)
    if volume <= 0:
        raise ValueError("window must have positive volume")
    integral, se = pair_integral(q, q, direction_set or DirectionSet.full_sphere(n), rng=rng,
                                 samples=samples)
    factor = gamma * gamma / (2.0 * (n - 2 * k)) * volume
    return factor * integral, factor * se


def weibull_cdf(x, beta: float, n: int, k: int, alpha: float):
    """Limit distribution function 1 - exp(-beta x^{(n-2k)/alpha}) for x > 0."""
    _check_params(("alpha",), beta=beta, alpha=alpha)
    x = np.asarray(x, dtype=float)
    power = (n - 2 * k) / alpha
    out = np.where(x > 0, -np.expm1(-beta * np.maximum(x, 0.0) ** power), 0.0)
    return out if out.ndim else float(out)


def weibull_limit_intensity(beta: float, n: int, k: int, alpha: float,
                            b0: float, b1: float) -> float:
    """Mass the limiting point process of rescaled length powers puts on
    the interval (b0, b1]: beta * (b1^{(n-2k)/alpha} - b0^{(n-2k)/alpha})."""
    _check_params(("alpha",), beta=beta, alpha=alpha, b0=b0, b1=b1)
    if not b0 <= b1:
        raise ValueError("need 0 <= b0 <= b1")
    power = (n - 2 * k) / alpha
    return beta * (b1 ** power - b0 ** power)


def isoperimetric_bound(n: int, gamma: float, delta: float) -> float:
    """Upper bound for the proximity of a line process at fixed intensity:
    ((n-1)/(2n)) * kappa_{n-1}^2 / kappa_n * gamma^2 delta^{n-2}, attained
    exactly by the isotropic directional distribution."""
    if n < 3:
        raise ValueError("line proximity bound needs n >= 3")
    _check_params(gamma=gamma, delta=delta)
    kv = constants.ball_volume
    return (n - 1) / (2.0 * n) * kv(n - 1) ** 2 / kv(n) * gamma ** 2 \
        * delta ** (n - 2)
