"""Geodesic hyperplanes of the diagonal forms: the hyperplane {x1 = 0} and
its images under isometries, the exact distance between two disjoint
hyperplanes, and the glued-length witness.

A hyperplane is {B(u, .) = 0} for an exact spacelike normal u, so
disjointness is decided in the coefficient field (k or the ambient tower);
only the final distance is a certified interval.
"""

from __future__ import annotations

from collections import namedtuple

from .exactfield import Immutable, K_ONE, K_ZERO, embed
from .lorentz import Isometry, QuadForm, mat_vec, sum_prod


class GeometryError(ValueError):
    """Numerical or exact data inconsistent with the claimed geometric object."""


def bilinear(form: QuadForm, x, y):
    """Polarized pairing B(x, y) = sum c_i x_i y_i - sqrt2 x_t y_t."""
    if len(x) != form.n + 1 or len(y) != form.n + 1:
        raise ValueError("dimension mismatch")
    return sum_prod([a * c for a, c in zip(x, form.diagonal())], y)


class GeodesicHyperplane(Immutable):
    """{B(u, .) = 0} for an exact spacelike normal u; norm holds f(u) > 0."""

    __slots__ = ("normal", "form", "norm")

    def __init__(self, normal, form: QuadForm):
        normal = tuple(normal)
        if len(normal) != form.n + 1:
            raise ValueError("dimension mismatch")
        norm = bilinear(form, normal, normal)
        if norm.sign() != 1:
            raise GeometryError("normal vector is not spacelike")
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "norm", norm)

    @classmethod
    def coordinate(cls, form: QuadForm) -> "GeodesicHyperplane":
        """The hyperplane {x1 = 0}, normal e1."""
        return cls([K_ONE] + [K_ZERO] * form.n, form)

    def image(self, iso: Isometry) -> "GeodesicHyperplane":
        return GeodesicHyperplane(mat_vec(iso.entries, self.normal), self.form)

    def __repr__(self):
        return f"GeodesicHyperplane(n={self.form.n})"


class HyperplaneRelation(namedtuple("HyperplaneRelation", "kind cosh_sq distance")):
    """kind is "disjoint"; cosh_sq is the exact B(u,u')^2 / (f(u) f(u')) in the
    field, and distance is a RealInterval."""

    __slots__ = ()


def dist_hyperplanes(h1: GeodesicHyperplane, h2: GeodesicHyperplane,
                     precision: int = 64) -> HyperplaneRelation:
    """Distance arccosh(sqrt q) between disjoint hyperplanes, as a certified
    interval; q = B(u,u')^2 / (f(u) f(u')) > 1 exactly decides disjointness,
    and any other pair raises GeometryError.

    Normals stay unnormalized so q is computed in the coefficient field
    without square roots.  The distance is log(sqrt q + sqrt(q - 1)) clamped
    below at 0, with q - 1 exact in the field, so no bits are lost to
    cancellation near q = 1.
    """
    if h1.form != h2.form:
        raise ValueError("hyperplanes of different forms")
    b = bilinear(h1.form, h1.normal, h2.normal)
    q = (b * b) / (h1.norm * h2.norm)
    if (q - 1).sign() <= 0:
        raise GeometryError("hyperplanes are not disjoint")
    dist = (embed(q, precision).sqrt() + embed(q - 1, precision).sqrt()).log()
    return HyperplaneRelation("disjoint", q, dist.clamped())


def systole_witness(len1: float, len2: float) -> float:
    """Length of the doubled glued segment, 2 (len1 + len2)."""
    if len1 <= 0 or len2 <= 0:
        raise ValueError("lengths must be positive")
    return 2.0 * (len1 + len2)
