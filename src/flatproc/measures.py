"""Finite measures on Grassmannians and even measures on the sphere.

Grassmann measures are either weighted atom lists or the rotation-invariant
(Haar) measure with a stored total mass.  Even sphere measures come in three
shapes: atom lists stored as unordered +-u pairs (evenness is structural),
the uniform measure, and mixtures of uniform measures on great subspheres.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import constants
from ._rng import SeedLike, as_generator
from .flat_geometry import (Subspace, _in_blocks, canonical_unit, complement, haar_bases,
                            orthonormalize)

DEFAULT_MC_SAMPLES = 100_000


def finite_positive(x: float) -> bool:
    """True for finite values above 0; NaN and +-inf fail."""
    return bool(math.isfinite(x) and x > 0)


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
    """Finite measure on G(n,k): weighted subspace atoms or isotropic."""

    n: int
    k: int
    atoms: tuple[tuple[Subspace, float], ...] | None = None
    isotropic_mass: float | None = None

    def __post_init__(self) -> None:
        if (self.atoms is None) == (self.isotropic_mass is None):
            raise ValueError("exactly one of atoms / isotropic_mass must be given")
        if self.atoms is not None:
            for sub, weight in self.atoms:
                if sub.n != self.n or sub.k != self.k:
                    raise ValueError("atom dimensions must match the measure's (n, k)")
                if not finite_positive(weight):
                    raise ValueError("atom weights must be finite and strictly positive")
        elif not finite_positive(self.isotropic_mass):
            raise ValueError("isotropic mass must be finite and strictly positive")

    @staticmethod
    def discrete(atoms: Sequence[tuple[Subspace, float]]) -> "GrassmannMeasure":
        atoms = tuple((sub, float(w)) for sub, w in atoms)
        if not atoms:
            raise ValueError("discrete() needs atoms; use zero(n, k) for the zero measure")
        sub0 = atoms[0][0]
        return GrassmannMeasure(n=sub0.n, k=sub0.k, atoms=atoms)

    @staticmethod
    def zero(n: int, k: int) -> "GrassmannMeasure":
        return GrassmannMeasure(n=n, k=k, atoms=())

    @staticmethod
    def isotropic(n: int, k: int, mass: float = 1.0) -> "GrassmannMeasure":
        return GrassmannMeasure(n=n, k=k, isotropic_mass=float(mass))

    @property
    def is_isotropic(self) -> bool:
        return self.atoms is None

    @property
    def total_mass(self) -> float:
        if self.atoms is not None:
            return float(sum(w for _, w in self.atoms))
        return float(self.isotropic_mass)

    def scaled(self, factor: float) -> "GrassmannMeasure":
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        if self.atoms is not None:
            return GrassmannMeasure(
                n=self.n, k=self.k,
                atoms=tuple((s, w * factor) for s, w in self.atoms))
        return GrassmannMeasure.isotropic(self.n, self.k, self.isotropic_mass * factor)

    def normalized(self) -> "GrassmannMeasure":
        mass = self.total_mass
        if mass <= 0:
            raise ValueError("cannot normalize the zero measure")
        return self.scaled(1.0 / mass)


@dataclass(frozen=True)
class SphereMeasure:
    """Even finite measure on S^{n-1}.

    Exactly one of the three variant fields is set:
      pair_atoms       list of (canonical unit vector, pair mass); the pair
                       mass q is split as q/2 on +u and q/2 on -u
      uniform_mass     total mass of a rotation-invariant measure
      subspheres       list of (Subspace U, weight); each component is
                       weight times spherical Lebesgue measure on the unit
                       sphere of U, of total mass weight * omega_dim(U)
    """

    n: int
    pair_atoms: tuple[tuple[np.ndarray, float], ...] | None = None
    uniform_mass: float | None = None
    subspheres: tuple[tuple[Subspace, float], ...] | None = None

    def __post_init__(self) -> None:
        variants = [self.pair_atoms is not None, self.uniform_mass is not None,
                    self.subspheres is not None]
        if sum(variants) != 1:
            raise ValueError("exactly one variant must be set")
        if self.pair_atoms is not None:
            for u, w in self.pair_atoms:
                if u.shape != (self.n,) or not finite_positive(w):
                    raise ValueError("atoms must be n-vectors with finite positive pair mass")
        if self.uniform_mass is not None and not finite_positive(self.uniform_mass):
            raise ValueError("uniform mass must be finite and positive")
        if self.subspheres is not None:
            for sub, w in self.subspheres:
                if sub.n != self.n or sub.k < 1 or not finite_positive(w):
                    raise ValueError("mixture components need dim >= 1 and finite positive weight")

    @staticmethod
    def atoms(n: int, pairs: Sequence[tuple[np.ndarray, float]]) -> "SphereMeasure":
        canon = tuple((canonical_unit(u), float(w)) for u, w in pairs)
        for u, _ in canon:
            u.flags.writeable = False
        return SphereMeasure(n=n, pair_atoms=canon)

    @staticmethod
    def uniform(n: int, mass: float) -> "SphereMeasure":
        return SphereMeasure(n=n, uniform_mass=float(mass))

    @staticmethod
    def subsphere_mixture(n: int, components: Sequence[tuple[Subspace, float]]) -> "SphereMeasure":
        return SphereMeasure(n=n, subspheres=tuple((s, float(w)) for s, w in components))

    @property
    def is_atomic(self) -> bool:
        return self.pair_atoms is not None

    @property
    def total_mass(self) -> float:
        if self.pair_atoms is not None:
            return float(sum(w for _, w in self.pair_atoms))
        if self.uniform_mass is not None:
            return float(self.uniform_mass)
        return float(sum(w * constants.sphere_surface(s.k) for s, w in self.subspheres))

    def scaled(self, factor: float) -> "SphereMeasure":
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        if self.pair_atoms is not None:
            return SphereMeasure.atoms(self.n, [(u, w * factor) for u, w in self.pair_atoms])
        if self.uniform_mass is not None:
            return SphereMeasure.uniform(self.n, self.uniform_mass * factor)
        return SphereMeasure.subsphere_mixture(
            self.n, [(s, w * factor) for s, w in self.subspheres])

    def cosine_moment(self, directions: np.ndarray) -> np.ndarray:
        """integral of |<u, v>| d(this measure)(v) for each row u, exactly.

        Uses the closed forms: uniform measures contribute a constant
        2 kappa_{d-1} per unit mass, subsphere components contribute
        2 kappa_{d-1} * |proj_U u| per unit spherical measure on S_U.
        """
        directions = np.atleast_2d(np.asarray(directions, dtype=float))
        out = np.zeros(directions.shape[0])
        if self.pair_atoms is not None:
            if not self.pair_atoms:
                return out
            units = np.vstack([u for u, _ in self.pair_atoms])
            weights = np.array([w for _, w in self.pair_atoms])
            out += np.abs(directions @ units.T) @ weights
        elif self.uniform_mass is not None:
            mean = 2.0 * constants.ball_volume(self.n - 1) / constants.sphere_surface(self.n)
            out += self.uniform_mass * mean
        else:
            for sub, w in self.subspheres:
                proj_norm = np.linalg.norm(directions @ sub.basis.T, axis=1)
                out += w * 2.0 * constants.ball_volume(sub.k - 1) * proj_norm
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
        on S_U, drawn from rng in row order; averages over rows carry the noise.
        """
        m, d, n = bases.shape
        if d < 1:
            return np.zeros(m)
        omega = constants.sphere_surface(d)
        if self.kind == "full":
            return np.full(m, omega)
        if self.kind == "double_cap":
            return self.double_cap_measures(np.linalg.norm(bases @ self.axis, axis=1), d)
        gen = as_generator(rng if rng is not None else 0xCA9)
        points = np.einsum("pd,pdn->pn", haar_bases(m, d, 1, gen)[:, 0], bases)
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
    return SphereMeasure.atoms(q.n, [(sub.basis[0], w) for sub, w in q.atoms])


def symmetrize_hyperplane_measure(q: GrassmannMeasure) -> SphereMeasure:
    """Even sphere measure of a hyperplane measure via unit normals."""
    if q.k != q.n - 1:
        raise ValueError("hyperplane symmetrization requires k = n - 1")
    if q.is_isotropic:
        return SphereMeasure.uniform(q.n, q.isotropic_mass)
    return SphereMeasure.atoms(
        q.n, [(complement(sub).basis[0], w) for sub, w in q.atoms])


def line_measure_from_sphere(mu: SphereMeasure) -> GrassmannMeasure:
    """Inverse of symmetrize_line_measure for atomic measures."""
    if not mu.is_atomic:
        raise ValueError("requires an atomic sphere measure")
    return GrassmannMeasure.discrete(
        [(Subspace(u.reshape(1, -1)), w) for u, w in mu.pair_atoms])


def integrate(measure, f, rng: SeedLike | None = None,
              samples: int = DEFAULT_MC_SAMPLES) -> tuple[float, float]:
    """Integral of f against the measure; returns (value, standard error).

    Atomic variants are summed exactly (standard error 0).  Uniform,
    isotropic, and subsphere components are integrated by Monte Carlo with
    the given sample budget.  For sphere measures f must accept an (m, n)
    array of unit vectors and return m values; for Grassmann measures f
    takes a single Subspace.
    """
    samples = check_samples(samples)
    if isinstance(measure, GrassmannMeasure):
        if measure.atoms is not None:
            return float(sum(w * f(sub) for sub, w in measure.atoms)), 0.0
        gen = as_generator(rng if rng is not None else 0xF1A7)
        return _mc_mean(lambda rows: [f(Subspace(b)) for b in haar_bases(
            rows, measure.n, measure.k, gen)], samples, measure.isotropic_mass)

    if not isinstance(measure, SphereMeasure):
        raise TypeError("integrate expects a GrassmannMeasure or SphereMeasure")
    if measure.pair_atoms is not None:
        if not measure.pair_atoms:
            return 0.0, 0.0
        units = np.vstack([u for u, _ in measure.pair_atoms])
        weights = np.array([w for _, w in measure.pair_atoms])
        vals = 0.5 * (np.asarray(f(units)) + np.asarray(f(-units)))
        return float(weights @ vals), 0.0
    gen = as_generator(rng if rng is not None else 0xF1A7)
    if measure.uniform_mass is not None:
        return _mc_mean(lambda rows: f(haar_bases(rows, measure.n, 1, gen)[:, 0]), samples,
                        measure.uniform_mass)
    total, var = 0.0, 0.0
    for sub, w in measure.subspheres:
        if sub.k == 1:
            # S_U is the two-point set; sigma_U is counting measure
            total += w * float(np.asarray(f(sub.basis))[0] + np.asarray(f(-sub.basis))[0])
            continue
        value, se = _mc_mean(lambda rows: f(haar_bases(rows, sub.k, 1, gen)[:, 0] @ sub.basis),
                             samples, w * constants.sphere_surface(sub.k))
        total, var = total + value, var + se * se
    return total, math.sqrt(var)


_GRID_CACHE: dict[int, np.ndarray] = {}


def _direction_grid(n: int) -> np.ndarray:
    """Deterministic quasi-uniform probe grid on S^{n-1}."""
    if n not in _GRID_CACHE:
        gen = np.random.default_rng(0xB0B + n)
        grid = haar_bases(10_000, n, 1, gen)[:, 0]
        grid.flags.writeable = False
        _GRID_CACHE[n] = grid
    return _GRID_CACHE[n]


def lower_bound_check(mu: SphereMeasure, rho: float) -> bool:
    """True when inf_u of the cosine moment of mu is >= rho - 1e-6.

    The infimum is probed on a 10^4-point quasi-uniform grid; the cosine
    moment itself is evaluated in closed form for every variant, and the
    coordinate directions are always included in the probe set.
    """
    grid = np.vstack([_direction_grid(mu.n), np.eye(mu.n)])
    if mu.pair_atoms:
        # atom directions are the natural candidates for the minimum
        grid = np.vstack([grid, np.vstack([u for u, _ in mu.pair_atoms])])
    return bool(np.min(mu.cosine_moment(grid)) >= rho - 1e-6)


def t_lift(mu: GrassmannMeasure) -> SphereMeasure:
    """Lift of a discrete Grassmann measure to a subsphere mixture.

    Each atom (U, w) becomes the component w * sigma_U, so the lift of mu on
    G(n, d) has total mass omega_d * mu(G(n, d)).  The isotropic variant is
    rejected: callers treat it analytically.
    """
    if mu.is_isotropic:
        raise ValueError("lift requires atoms")
    return SphereMeasure.subsphere_mixture(mu.n, list(mu.atoms))


def parse_directional_file(path: str | Path) -> GrassmannMeasure:
    """Read a directional distribution from its plain-text format.

    Header line "n k"; then either a single line "isotropic <mass>" or one
    atom per line "<weight> <k*n floats, row-major basis>".  Atom bases are
    orthonormalized and must have full rank k.
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
        sub = orthonormalize(np.array(parts[1:]).reshape(k, n))
        if sub.k != k:
            raise ValueError(f"{path}: atom basis is rank deficient")
        atoms.append((sub, parts[0]))
    return GrassmannMeasure.discrete(atoms)


def write_directional_file(path: str | Path, q: GrassmannMeasure) -> None:
    """Write a directional distribution in the plain-text format."""
    out = [f"{q.n} {q.k}"]
    if q.is_isotropic:
        out.append(f"isotropic {q.isotropic_mass!r}")
    else:
        for sub, w in q.atoms:
            floats = " ".join(repr(float(x)) for x in sub.basis.ravel())
            out.append(f"{w!r} {floats}")
    Path(path).write_text("\n".join(out) + "\n")
