"""Products of elliptic curves and exact subspaces of their tangent space.

Every curve factor is C / (Z + tau_j Z) with tau_j = p_j + i q_j, p_j
rational and q_j a positive multiquadratic number. The lattice chart writes
z_j = a_j + b_j tau_j and lays the coordinates out as

    (a_1, b_1, a_2, b_2, ..., a_g, b_g)

which identifies the period lattice of the product with Z^(2g) and gives the
real torus covolume 1 in these coordinates. Everything here is exact: all
subspace computations happen either in the complex chart (vectors in C^g
with ComplexMQ entries) or in this real chart (vectors in R^(2g) with
MultiQuadElem entries). The float lattice, which reduces points and measures
distances on the torus, is weierstrass.ProductEvaluator; torus_distance is
its pure-Python oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactlinalg import rank_exact, right_nullspace, rref
from .multiquad import ComplexMQ, MultiQuadElem


class LatticeCoordinateError(ValueError):
    pass


@dataclass(frozen=True)
class EllipticFactor:
    """One curve factor C / (Z + tau Z), tau = tau_re + i * tau_im."""

    tau_re: Fraction
    tau_im: MultiQuadElem

    def __post_init__(self):
        object.__setattr__(self, "tau_re", Fraction(self.tau_re))
        if not isinstance(self.tau_im, MultiQuadElem):
            object.__setattr__(self, "tau_im", MultiQuadElem.from_rational(self.tau_im))
        # the theta series needs |q| = exp(-2 pi Im tau) below 1 in doubles
        im = float(self.tau_im)
        if not (im > 0 and math.exp(-2.0 * math.pi * im) < 1.0):
            raise ValueError("tau must lie in the upper half plane, with "
                             f"|q| = exp(-2 pi tau_im) below 1 in doubles (tau_im {self.tau_im})")

    @property
    def tau(self) -> complex:
        return complex(float(self.tau_re), float(self.tau_im))

    def tau_exact(self) -> ComplexMQ:
        return ComplexMQ(MultiQuadElem.from_rational(self.tau_re), self.tau_im)


@dataclass(frozen=True)
class ProductVariety:
    """A product of elliptic curves with its standing genericity assertions.

    pairwise_nonisogenous and no_cm are recorded assertions about the chosen
    periods, not theorems this code proves; every report lists them under
    assumptions.
    """

    factors: tuple[EllipticFactor, ...]
    pairwise_nonisogenous: bool = True
    no_cm: bool = True

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise ValueError("need at least one curve factor")

    @property
    def g(self) -> int:
        return len(self.factors)

    def assumptions(self) -> list[str]:
        out = []
        if self.pairwise_nonisogenous and self.g > 1:
            out.append("pairwise-nonisogenous factors (asserted)")
        if self.no_cm:
            out.append("no complex multiplication (asserted)")
        return out

    # exact chart

    def to_lattice_exact(self, z: list[ComplexMQ]) -> list[MultiQuadElem]:
        """C^g point -> (a_1, ..., b_g): b_j = Im z_j / q_j, a_j = Re z_j - b_j p_j."""
        if len(z) != self.g:
            raise LatticeCoordinateError(f"expected {self.g} complex coordinates")
        out: list[MultiQuadElem] = []
        for zj, f in zip(z, self.factors):
            b = zj.im / f.tau_im
            a = zj.re - b * f.tau_re
            out.extend((a, b))
        return out

    def from_lattice_exact(self, v: list[MultiQuadElem]) -> list[ComplexMQ]:
        if len(v) != 2 * self.g:
            raise LatticeCoordinateError(f"expected {2 * self.g} real coordinates")
        return [ComplexMQ(v[2 * j] + v[2 * j + 1] * f.tau_re, v[2 * j + 1] * f.tau_im)
                for j, f in enumerate(self.factors)]

    # torus geometry

    def torus_distance(self, z: tuple[complex, ...], w: tuple[complex, ...]) -> float:
        """Euclidean distance on C^g between nearest lattice translates.

        Pure Python, from the lattice coordinates (a, b) of z - w rounded to
        the nearest integers: an oracle for the float lattice of
        weierstrass.ProductEvaluator, which reduces in C instead.
        """
        total = 0.0
        for zj, wj, f in zip(z, w, self.factors):
            d = complex(zj) - complex(wj)
            b = d.imag / float(f.tau_im)
            a = d.real - b * float(f.tau_re)
            total += abs((a - round(a)) + (b - round(b)) * f.tau) ** 2
        return total ** 0.5


@dataclass(frozen=True)
class ExactSubspace:
    """A linear subspace with an exact basis, either complex or real.

    kind "complex": basis vectors live in C^g with ComplexMQ entries.
    kind "real": basis vectors live in R^(2g), the lattice chart, with
    MultiQuadElem entries. The stored basis is the reduced echelon basis of
    the row space, so equal subspaces compare equal.
    """

    kind: str
    basis: tuple[tuple, ...]
    ambient: int

    def __post_init__(self):
        if self.kind not in ("complex", "real"):
            raise ValueError(f"unknown subspace kind {self.kind!r}")
        rows = [list(r) for r in self.basis]
        for i, r in enumerate(rows):
            if len(r) != self.ambient:
                raise ValueError(f"basis vector {i}: expected {self.ambient} entries, "
                                 f"got {len(r)}")
        coerce = self._coerce_complex if self.kind == "complex" else self._coerce_real
        rows = [[coerce(x) for x in r] for r in rows]
        red, _ = rref(rows)
        if len(red) != len(rows):
            raise ValueError("basis vectors are linearly dependent")
        object.__setattr__(self, "basis", tuple(tuple(r) for r in red))

    @staticmethod
    def _coerce_complex(x) -> ComplexMQ:
        if isinstance(x, ComplexMQ):
            return x
        if isinstance(x, MultiQuadElem):
            return ComplexMQ(x)
        return ComplexMQ(Fraction(x))

    @staticmethod
    def _coerce_real(x) -> MultiQuadElem:
        if isinstance(x, MultiQuadElem):
            return x
        if isinstance(x, ComplexMQ):
            if not x.im.is_zero():
                raise ValueError("real subspace entry has an imaginary part")
            return x.re
        return MultiQuadElem.from_rational(Fraction(x))

    @classmethod
    def complex_span(cls, vectors, g: int) -> ExactSubspace:
        return cls("complex", tuple(tuple(v) for v in vectors), g)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, other: ExactSubspace) -> bool:
        if self.kind != other.kind or self.ambient != other.ambient:
            raise ValueError("subspace kinds or ambients differ")
        rows = [list(r) for r in self.basis]
        return rank_exact(rows + [list(r) for r in other.basis]) == len(rows)

    def realified(self, A: ProductVariety) -> ExactSubspace:
        """Complex subspace as a real one in the lattice chart (v and iv)."""
        if self.kind != "complex":
            raise ValueError("realified needs a complex subspace")
        if self.ambient != A.g:
            raise ValueError("subspace ambient does not match the variety")
        i = ComplexMQ(0, 1)
        rows = []
        for v in self.basis:
            rows.append(A.to_lattice_exact(list(v)))
            rows.append(A.to_lattice_exact([i * x for x in v]))
        return ExactSubspace("real", tuple(rows), 2 * A.g)

    def complex_equations(self) -> list[list[ComplexMQ]]:
        """Echelon basis of the annihilator {lam : lam . v = 0 for v in basis}.

        Covectors are rows with leading coefficient 1, listed by pivot column.
        """
        if self.kind != "complex":
            raise ValueError("complex_equations needs a complex subspace")
        rows = [list(r) for r in self.basis]
        null = right_nullspace(rows, ncols=self.ambient)
        if not null:
            return []
        red, _ = rref(null)
        return [list(r) for r in red]

    def project_deleting(self, coords: set[int]) -> int:
        """Rank of the basis after deleting the given 0-based coordinates."""
        keep = [j for j in range(self.ambient) if j not in coords]
        rows = [[r[j] for j in keep] for r in self.basis]
        rows = [r for r in rows if r]
        return rank_exact(rows)
