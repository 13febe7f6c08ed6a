"""Finite measures on Grassmannians and even measures on the sphere.

Grassmann measures are either atoms, stored once as read-only stacks of
orthonormal bases (m, k, n) and weights (m,), or the rotation-invariant
(Haar) measure with a stored total mass.  Even sphere measures come in three
shapes: canonical units (m, n) with pair masses, each an unordered +-u pair
(evenness is structural), the uniform measure, and mixtures of uniform
measures on great subspheres, held as discrete Grassmann measures.  Tuples of
`Subspace` objects (`atoms`, `subspheres`) are views for the API edge, built
by `subspace_views` on a stack that `GrassmannMeasure` checked when it was
made: no view runs a check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, groupby
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import constants
from ._rng import SeedLike, as_generator
from .flat_geometry import (Subspace, _in_blocks, _sign_rows, canonical_unit,
                            check_orthonormal, complement_bases, haar_bases, orthonormalize,
                            read_only, subset_indices, subspace_views)

DEFAULT_MC_SAMPLES = 100_000


def finite_positive(x: float) -> bool:
    """True for finite values above 0; NaN and +-inf fail."""
    return bool(math.isfinite(x) and x > 0)


def positive_weights(weights: np.ndarray, count: int) -> bool:
    """True for `count` finite weights above 0; NaN and +-inf fail."""
    return weights.shape == (count,) and bool(np.all(np.isfinite(weights) & (weights > 0)))


def check_samples(samples: int) -> int:
    """A Monte-Carlo sample count: an integer of at least 2, or ValueError."""
    if not isinstance(samples, (int, np.integer)) or samples < 2:
        raise ValueError(f"Monte-Carlo samples must be an integer >= 2, got {samples!r}")
    return int(samples)


def _mc_mean(rows, samples: int, mass: float) -> tuple[float, float]:
    """mass times the mean of `samples` Monte-Carlo row values, and its standard
    error; rows(count) gives the next count values, BLOCK_ROWS at a time."""
    values, = _in_blocks(lambda block: (np.asarray(rows(block.shape[0])),), samples)
    return (mass * float(values.mean()),
            mass * float(values.std(ddof=1) / math.sqrt(values.shape[0])))


@dataclass(frozen=True)
class GrassmannMeasure:
    """Finite measure on G(n,k): atoms with orthonormal bases (m, k, n) and
    weights (m,), both read-only, or isotropic with a total mass."""

    n: int
    k: int
    bases: np.ndarray | None = None
    weights: np.ndarray | None = None
    isotropic_mass: float | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.k <= self.n:
            raise ValueError(f"need 0 <= k <= n, got n={self.n}, k={self.k}")
        if (self.bases is None) == (self.isotropic_mass is None):
            raise ValueError("exactly one of bases / isotropic_mass must be given")
        if self.bases is None:
            if not finite_positive(self.isotropic_mass):
                raise ValueError("isotropic mass must be finite and strictly positive")
            return
        bases, weights = read_only(self.bases), read_only(self.weights)
        if bases.ndim != 3 or bases.shape[1:] != (self.k, self.n):
            raise ValueError("atom dimensions must match the measure's (n, k)")
        check_orthonormal(bases)
        if not positive_weights(weights, len(bases)):
            raise ValueError("atom weights must be finite and strictly positive")
        object.__setattr__(self, "bases", bases)
        object.__setattr__(self, "weights", weights)

    @staticmethod
    def discrete(atoms: Sequence[tuple[Subspace, float]]) -> "GrassmannMeasure":
        atoms = list(atoms)
        if not atoms:
            raise ValueError("discrete() needs atoms; use zero(n, k) for the zero measure")
        bases = np.array([sub.basis for sub, _ in atoms])  # mixed dimensions raise
        return GrassmannMeasure(bases.shape[2], bases.shape[1], bases, [w for _, w in atoms])

    @staticmethod
    def zero(n: int, k: int) -> "GrassmannMeasure":
        return GrassmannMeasure(n, k, np.zeros((0, k, n)), np.zeros(0))

    @staticmethod
    def isotropic(n: int, k: int, mass: float = 1.0) -> "GrassmannMeasure":
        return GrassmannMeasure(n=n, k=k, isotropic_mass=float(mass))

    @cached_property
    def atoms(self) -> tuple[tuple[Subspace, float], ...] | None:
        """(Subspace view, weight) pairs in stored order; None when isotropic."""
        return None if self.bases is None else tuple(
            zip(subspace_views(self.bases), self.weights.tolist()))

    @property
    def is_isotropic(self) -> bool:
        return self.bases is None

    @property
    def total_mass(self) -> float:
        if self.bases is not None:
            return float(sum(self.weights.tolist()))
        return float(self.isotropic_mass)

    def scaled(self, factor: float) -> "GrassmannMeasure":
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        if self.bases is not None:
            return GrassmannMeasure(self.n, self.k, self.bases, self.weights * factor)
        return GrassmannMeasure.isotropic(self.n, self.k, self.isotropic_mass * factor)

    def normalized(self) -> "GrassmannMeasure":
        mass = self.total_mass
        if mass <= 0:
            raise ValueError("cannot normalize the zero measure")
        return self.scaled(1.0 / mass)


@dataclass(frozen=True)
class SphereMeasure:
    """Even finite measure on S^{n-1}.

    Exactly one of the three variants is set:
      units, weights   (m, n) unit vectors, each made canonical (signed as
                       canonical_unit signs it), and (m,) pair masses; the
                       pair mass q is split as q/2 on +u and q/2 on -u
      uniform_mass     total mass of a rotation-invariant measure
      components       discrete Grassmann measures of dimension >= 1; each
                       atom (U, weight) is weight times spherical Lebesgue
                       measure on the unit sphere of U, of total mass
                       weight * omega_dim(U)
    """

    n: int
    units: np.ndarray | None = None
    weights: np.ndarray | None = None
    uniform_mass: float | None = None
    components: tuple[GrassmannMeasure, ...] | None = None

    def __post_init__(self) -> None:
        if sum(x is not None for x in (self.units, self.uniform_mass, self.components)) != 1:
            raise ValueError("exactly one variant must be set")
        if self.uniform_mass is not None and not finite_positive(self.uniform_mass):
            raise ValueError("uniform mass must be finite and positive")
        if self.components is not None and not all(
                not c.is_isotropic and c.n == self.n and c.k >= 1 for c in self.components):
            raise ValueError("mixture components need dim >= 1 and finite positive weight")
        if self.units is None:
            return
        units, weights = np.asarray(self.units, dtype=float), read_only(self.weights)
        if units.ndim != 2 or units.shape[1] != self.n \
                or not positive_weights(weights, len(units)):
            raise ValueError("atoms must be n-vectors with finite positive pair mass")
        norms = np.sqrt((units[:, None, :] @ units[:, :, None])[:, 0, 0])  # np.linalg.norm's u.u
        if not np.all((norms >= 1e-12) & (norms < np.inf)):  # NaN fails too
            raise ValueError("cannot canonicalize a near-zero or non-finite vector")
        units = _sign_rows(units / norms[:, None])  # fresh: signed in place and frozen
        units.flags.writeable = False
        object.__setattr__(self, "units", units)
        object.__setattr__(self, "weights", weights)

    @staticmethod
    def atoms(n: int, pairs: Sequence[tuple[np.ndarray, float]]) -> "SphereMeasure":
        pairs = list(pairs)
        return SphereMeasure(n, np.array([u for u, _ in pairs] or np.zeros((0, n)), dtype=float),
                             [w for _, w in pairs])

    @staticmethod
    def uniform(n: int, mass: float) -> "SphereMeasure":
        return SphereMeasure(n=n, uniform_mass=float(mass))

    @staticmethod
    def subsphere_mixture(n: int, components: Sequence[tuple[Subspace, float]]) -> "SphereMeasure":
        """Mixture of (Subspace U, weight) components: runs of equal dimension
        become one discrete Grassmann measure each, in the given order."""
        components = [(sub, float(w)) for sub, w in components]
        if not all(sub.n == n and sub.k >= 1 and finite_positive(w) for sub, w in components):
            raise ValueError("mixture components need dim >= 1 and finite positive weight")
        return SphereMeasure(n=n, components=tuple(
            GrassmannMeasure.discrete(run) for _, run in groupby(components, lambda c: c[0].k)))

    @cached_property
    def subspheres(self) -> tuple[tuple[Subspace, float], ...] | None:
        """(Subspace, weight) pairs of every component in order; None unless a mixture."""
        return None if self.components is None else tuple(
            chain.from_iterable(c.atoms for c in self.components))

    @property
    def is_atomic(self) -> bool:
        return self.units is not None

    @property
    def total_mass(self) -> float:
        if self.units is not None:
            return float(sum(self.weights.tolist()))
        if self.uniform_mass is not None:
            return float(self.uniform_mass)
        return float(sum(w * constants.sphere_surface(c.k)
                         for c in self.components for w in c.weights.tolist()))

    def scaled(self, factor: float) -> "SphereMeasure":
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        if self.units is not None:
            return SphereMeasure(self.n, self.units, self.weights * factor)
        if self.uniform_mass is not None:
            return SphereMeasure.uniform(self.n, self.uniform_mass * factor)
        return SphereMeasure(self.n, components=tuple(c.scaled(factor) for c in self.components))

    def cosine_moment(self, directions: np.ndarray) -> np.ndarray:
        """integral of |<u, v>| d(this measure)(v) for each row u, exactly.

        Uses the closed forms: uniform measures contribute a constant
        2 kappa_{d-1} per unit mass, subsphere components contribute
        2 kappa_{d-1} * |proj_U u| per unit spherical measure on S_U.
        """
        directions = np.atleast_2d(np.asarray(directions, dtype=float))
        out = np.zeros(directions.shape[0])
        if self.units is not None:
            out += np.abs(directions @ self.units.T) @ self.weights
        elif self.uniform_mass is not None:
            mean = 2.0 * constants.ball_volume(self.n - 1) / constants.sphere_surface(self.n)
            out += self.uniform_mass * mean
        else:
            for comp in self.components:
                proj_norms = np.linalg.norm(directions @ np.swapaxes(comp.bases, 1, 2), axis=2)
                out += 2.0 * constants.ball_volume(comp.k - 1) * (comp.weights @ proj_norms)
        return out


@dataclass(frozen=True)
class DirectionSet:
    """Even Borel set of directions with an analytic tag.

    kind is one of "full", "double_cap", "custom".  A double cap keeps the
    directions u with |<u, axis>| >= threshold.  Custom sets supply an even
    predicate over batches of unit vectors; evenness is checked on 10^4
    random probes at construction.
    """

    n: int
    kind: str
    axis: np.ndarray | None = None
    threshold: float | None = None
    predicate: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("full", "double_cap", "custom"):
            raise ValueError(f"unknown direction-set kind {self.kind!r}")
        if self.kind == "double_cap":
            if self.threshold is None or not math.isfinite(self.threshold) \
                    or np.shape(self.axis) != (self.n,):
                raise ValueError(f"double cap needs an axis in R^{self.n} and a finite threshold")
            axis = canonical_unit(self.axis)  # a zero or non-finite axis raises
            axis.flags.writeable = False
            object.__setattr__(self, "axis", axis)
        if self.kind == "custom":
            if self.predicate is None:
                raise ValueError("custom direction set needs a predicate")
            probes = haar_bases(10_000, self.n, 1, 0x5EED)[:, 0]
            if not np.array_equal(self.predicate(probes), self.predicate(-probes)):
                raise ValueError("custom direction predicate is not even")

    @staticmethod
    def full_sphere(n: int) -> "DirectionSet":
        return DirectionSet(n=n, kind="full")

    @staticmethod
    def double_cap(axis: np.ndarray, threshold: float) -> "DirectionSet":
        axis = np.asarray(axis, dtype=float)
        return DirectionSet(n=axis.shape[0], kind="double_cap", axis=axis,
                            threshold=float(threshold))

    @staticmethod
    def custom(n: int, predicate: Callable[[np.ndarray], np.ndarray]) -> "DirectionSet":
        return DirectionSet(n=n, kind="custom", predicate=predicate)

    def contains(self, units: np.ndarray) -> np.ndarray:
        units = np.atleast_2d(np.asarray(units, dtype=float))
        if self.kind == "full":
            return np.ones(units.shape[0], dtype=bool)
        if self.kind == "double_cap":
            return np.abs(units @ self.axis) >= self.threshold
        return np.asarray(self.predicate(units), dtype=bool)

    def subsphere_measures(self, bases: np.ndarray, rng: SeedLike | None = None) -> np.ndarray:
        """sigma_U(C intersect S_U) for each U of an (m, d, n) stack of
        orthonormal bases, exact for the full sphere and double caps.  A custom
        set gives each row the one-point estimate omega_d 1{x in C}, x uniform
        on S_U, drawn in row order from rng, which it needs (a fixed seed would
        give every call the same points); averages over rows carry the noise.
        """
        m, d, n = bases.shape
        if d < 1 or m == 0:
            return np.zeros(m)
        omega = constants.sphere_surface(d)
        if self.kind == "full":
            return np.full(m, omega)
        if self.kind == "double_cap":
            return self.double_cap_measures(np.linalg.norm(bases @ self.axis, axis=1), d)
        if rng is None:
            raise ValueError("a custom direction set's subsphere_measures needs a generator rng")
        points = np.einsum("pd,pdn->pn", haar_bases(m, d, 1, as_generator(rng))[:, 0], bases)
        return omega * self.contains(points)

    def double_cap_measures(self, alpha: np.ndarray, d: int) -> np.ndarray:
        """sigma_U(C intersect S_U) of a double cap for d-dimensional U, given
        alpha = |P_U axis| for each U."""
        # an axis orthogonal to U meets S_U only through a threshold <= 0
        return np.where(alpha < 1e-15,
                        constants.sphere_surface(d) if self.threshold <= 0 else 0.0,
                        constants.double_cap_measure(d, self.threshold / np.maximum(alpha, 1e-15)))

    def subsphere_measure(self, sub: Subspace, rng: SeedLike | None = None,
                          samples: int = 20_000) -> tuple[float, float]:
        """sigma_U(C intersect S_U) for U = sub; (value, standard error).  Exact
        for the full sphere and double caps; a custom set averages `samples`
        one-point rows of subsphere_measures, BLOCK_ROWS at a time."""
        samples = check_samples(samples)
        if self.kind != "custom":
            return float(self.subsphere_measures(sub.basis[None])[0]), 0.0
        gen = as_generator(rng if rng is not None else 0xCA9)
        omega = constants.sphere_surface(sub.k)  # omega times the mean 0/1 hit, exact in the count
        return _mc_mean(lambda rows: self.subsphere_measures(np.broadcast_to(
            sub.basis, (rows,) + sub.basis.shape), gen) / omega, samples, omega)


def symmetrize_line_measure(q: GrassmannMeasure) -> SphereMeasure:
    """Even sphere measure of a line measure: each atom becomes a +- pair.

    The pair carries the full atom weight; total mass is preserved.  The
    isotropic measure maps to the uniform sphere measure of the same mass.
    """
    if q.k != 1:
        raise ValueError("line symmetrization requires k = 1")
    if q.is_isotropic:
        return SphereMeasure.uniform(q.n, q.isotropic_mass)
    return SphereMeasure(q.n, q.bases[:, 0], q.weights)


def symmetrize_hyperplane_measure(q: GrassmannMeasure) -> SphereMeasure:
    """Even sphere measure of a hyperplane measure via unit normals."""
    if q.k != q.n - 1:
        raise ValueError("hyperplane symmetrization requires k = n - 1")
    if q.is_isotropic:
        return SphereMeasure.uniform(q.n, q.isotropic_mass)
    return SphereMeasure(q.n, complement_bases(q.bases)[:, 0], q.weights)


def line_measure_from_sphere(mu: SphereMeasure) -> GrassmannMeasure:
    """Inverse of symmetrize_line_measure for atomic measures."""
    if not mu.is_atomic:
        raise ValueError("requires an atomic sphere measure")
    return GrassmannMeasure(mu.n, 1, mu.units[:, None], mu.weights)


def integrate(measure, f, rng: SeedLike | None = None,
              samples: int = DEFAULT_MC_SAMPLES) -> tuple[float, float]:
    """Integral of f against the measure; returns (value, standard error).

    Atomic variants are summed exactly (standard error 0).  Uniform,
    isotropic, and subsphere components are integrated by Monte Carlo with
    the given sample budget.  For sphere measures f must accept an (m, n)
    array of unit vectors and return m values; for Grassmann measures f
    takes a single Subspace, an unchecked view of a row of a block of Haar
    draws, orthonormal as `q_factors` made it, or of the checked atoms.
    """
    samples = check_samples(samples)
    if isinstance(measure, GrassmannMeasure):
        if measure.atoms is not None:
            return float(sum(w * f(sub) for sub, w in measure.atoms)), 0.0
        gen = as_generator(rng if rng is not None else 0xF1A7)
        return _mc_mean(lambda rows: [f(sub) for sub in subspace_views(
            haar_bases(rows, measure.n, measure.k, gen))], samples, measure.isotropic_mass)

    if not isinstance(measure, SphereMeasure):
        raise TypeError("integrate expects a GrassmannMeasure or SphereMeasure")
    if measure.units is not None:
        if not len(measure.units):
            return 0.0, 0.0
        vals = 0.5 * (np.asarray(f(measure.units)) + np.asarray(f(-measure.units)))
        return float(measure.weights @ vals), 0.0
    gen = as_generator(rng if rng is not None else 0xF1A7)
    if measure.uniform_mass is not None:
        return _mc_mean(lambda rows: f(haar_bases(rows, measure.n, 1, gen)[:, 0]), samples,
                        measure.uniform_mass)
    total, var = 0.0, 0.0
    for comp in measure.components:
        for basis, w in zip(comp.bases, comp.weights.tolist()):
            if comp.k == 1:
                # S_U is the two-point set; sigma_U is counting measure
                total += w * float(np.asarray(f(basis))[0] + np.asarray(f(-basis))[0])
                continue
            value, se = _mc_mean(lambda rows: f(haar_bases(rows, comp.k, 1, gen)[:, 0] @ basis),
                                 samples, w * constants.sphere_surface(comp.k))
            total, var = total + value, var + se * se
    return total, math.sqrt(var)


@lru_cache(maxsize=None)
def _direction_grid(n: int) -> np.ndarray:
    """Deterministic quasi-uniform probe grid on S^{n-1}."""
    grid = haar_bases(10_000, n, 1, np.random.default_rng(0xB0B + n))[:, 0]
    grid.flags.writeable = False
    return grid


def lower_bound_check(mu: SphereMeasure, rho: float) -> bool:
    """True when inf_u of the cosine moment of mu is >= rho - 1e-6.

    Exact for atomic measures: twice the support function of their zonotope,
    least at a facet normal (the normal of n - 1 atom directions), and 0 when
    the atoms span less than R^n.  Uniform measures are constant.  Subsphere
    mixtures are only probed, on a 10^4-point quasi-uniform grid and the axes.
    """
    if mu.units is None:
        grid = np.vstack([_direction_grid(mu.n), np.eye(mu.n)])
        return bool(np.min(mu.cosine_moment(grid)) >= rho - 1e-6)
    if np.linalg.matrix_rank(mu.units) < mu.n:
        return 0.0 >= rho - 1e-6
    subsets = subset_indices(len(mu.units), mu.n - 1)
    least, = _in_blocks(lambda block: (mu.cosine_moment(
        complement_bases(mu.units[subsets[block]])[:, 0]),), len(subsets))
    return bool(least.min() >= rho - 1e-6)


def t_lift(mu: GrassmannMeasure) -> SphereMeasure:
    """Lift of a discrete Grassmann measure to a subsphere mixture, which
    holds mu itself.

    Each atom (U, w) becomes the component w * sigma_U, so the lift of mu on
    G(n, d) has total mass omega_d * mu(G(n, d)).  The isotropic variant is
    rejected: callers treat it analytically.
    """
    if mu.is_isotropic:
        raise ValueError("lift requires atoms")
    return SphereMeasure(mu.n, components=(mu,))


def parse_directional_file(path: str | Path) -> GrassmannMeasure:
    """Read a directional distribution from its plain-text format.

    Header line "n k"; then either a single line "isotropic <mass>" or one
    atom per line "<weight> <k*n floats, row-major basis>".  Atom rows
    orthonormal within 1e-10 are kept as written, so a written measure reads
    back bit for bit; others are orthonormalized and must have full rank k.
    """
    lines = [ln.strip() for ln in Path(path).read_text().splitlines()
             if ln.strip() and not ln.strip().startswith("#")]
    if not lines:
        raise ValueError(f"{path}: empty directional distribution file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"{path}: header must be 'n k'")
    n, k = int(header[0]), int(header[1])
    if len(lines) >= 2 and lines[1].split()[0] == "isotropic":
        return GrassmannMeasure.isotropic(n, k, float(lines[1].split()[1]))
    atoms = []
    for ln in lines[1:]:
        parts = [float(tok) for tok in ln.split()]
        if len(parts) != 1 + k * n:
            raise ValueError(f"{path}: atom line needs a weight plus {k * n} floats")
        basis = np.array(parts[1:]).reshape(k, n)
        if not np.abs(basis @ basis.T - np.eye(k)).max(initial=0.0) <= 1e-10:
            basis = orthonormalize(basis).basis
            if basis.shape[0] != k:
                raise ValueError(f"{path}: atom basis is rank deficient")
        atoms.append((Subspace(basis), parts[0]))
    return GrassmannMeasure.discrete(atoms)


def write_directional_file(path: str | Path, q: GrassmannMeasure) -> None:
    """Write a directional distribution in the plain-text format."""
    out = [f"{q.n} {q.k}"]
    if q.is_isotropic:
        out.append(f"isotropic {q.isotropic_mass!r}")
    else:
        for basis, w in zip(q.bases, q.weights.tolist()):
            floats = " ".join(repr(float(x)) for x in basis.ravel())
            out.append(f"{w!r} {floats}")
    Path(path).write_text("\n".join(out) + "\n")
