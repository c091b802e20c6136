"""Principal ideals of Z[sqrt 2], exact divisibility, matrix integrality,
and principal-congruence-subgroup membership.

Z[sqrt 2] has class number 1, so one generator describes every ideal.
"""

from __future__ import annotations

from .exactfield import Immutable, KElem, TowerElem, as_kelem, parse_kelem
from .lorentz import Isometry


def _is_integral_kelem(x: KElem) -> bool:
    return x.d == 1


def _as_kelem(x) -> KElem:
    """Entries of congruence-tested matrices must lie in k."""
    if isinstance(x, TowerElem):
        raise ValueError(f"entry {x} lies outside k")
    return as_kelem(x)


class ZsqrtIdeal(Immutable):
    """The ideal (generator) of Z[sqrt 2]; generator nonzero with integer
    coordinates."""

    __slots__ = ("generator",)

    def __init__(self, generator):
        generator = as_kelem(generator)
        if not generator:
            raise ValueError("zero is not an ideal generator here")
        if not _is_integral_kelem(generator):
            raise ValueError(f"generator {generator} is not in Z[sqrt 2]")
        object.__setattr__(self, "generator", generator)

    @classmethod
    def parse(cls, text: str) -> "ZsqrtIdeal":
        return cls(parse_kelem(text))

    def divides(self, x: KElem) -> bool:
        """x in (generator): x * conj(gen) / norm(gen) must land in Z[sqrt 2]."""
        x = _as_kelem(x)
        if not _is_integral_kelem(x):
            raise ValueError(f"{x} is not in Z[sqrt 2]")
        return _is_integral_kelem(x / self.generator)

    def __eq__(self, other):
        # same ideal up to units; compare by mutual divisibility
        return (isinstance(other, ZsqrtIdeal)
                and self.divides(other.generator)
                and other.divides(self.generator))

    def __hash__(self):
        return hash(abs(self.generator.norm()))

    def __repr__(self):
        return f"ZsqrtIdeal({self.generator.to_text()})"


def is_integral_matrix(m: Isometry) -> bool:
    """All entries in Z[sqrt 2]; entries outside k are rejected."""
    entries = [_as_kelem(e) for row in m.entries for e in row]
    return all(_is_integral_kelem(e) for e in entries)


def in_principal_congruence(m: Isometry, ideal: ZsqrtIdeal) -> bool:
    """Whether every entry of M - Id is divisible by the ideal generator."""
    if not is_integral_matrix(m):
        raise ValueError("matrix is not integral; congruence reduction undefined")
    return all(_is_integral_kelem((e - 1 if i == j else e) / ideal.generator)
               for i, row in enumerate(m.entries) for j, e in enumerate(row))
