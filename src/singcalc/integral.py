"""Integral cohomology model: a free polynomial part in Pontryagin classes
plus 2-torsion recorded by its mod-2 image.

A class is a pair (free, torsion): free lives in Z[p_1, p_2, ...] with
|p_i| = 4i, torsion is a GF(2) polynomial required to lie in the image of
sq1 (it stands for a Bockstein image, which is killed by 2).  Products use

    (F1, T1) * (F2, T2) = (F1*F2, rho(F1)*T2 + rho(F2)*T1 + T1*T2)

where rho is reduction mod 2 (p_i -> w_{2i}^2); the torsion-torsion term
models beta(a)*beta(b) = beta(a*sq1(b)).  This is a model of the part of
the integral cohomology of BSO the verifiers need, not all of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .gf2 import GF2Poly, poly_to_json, sq1_preimage, wgen

# ---------------------------------------------------------------------------
# free part: integer polynomials in p_1, p_2, ...
# monomial: tuple of (i, exp) sorted by i


def _pmono_degree(m: tuple) -> int:
    return sum(4 * i * e for i, e in m)


def _pmono_mul(m1: tuple, m2: tuple) -> tuple:
    acc: dict = {}
    for i, e in m1 + m2:
        acc[i] = acc.get(i, 0) + e
    return tuple(sorted(acc.items()))


def _pmono_key(m: tuple) -> tuple:
    return (_pmono_degree(m), m)


def _power(x, e: int, one):
    """x^e by square-and-multiply, starting from the unit `one`."""
    if e < 0:
        raise ValueError("negative power")
    result = one
    while e:
        if e & 1:
            result = result * x
        e >>= 1
        if e:
            x = x * x
    return result


@dataclass(frozen=True)
class IntPoly:
    """Integer-coefficient polynomial in Pontryagin generators p_i."""

    terms: tuple  # tuple of (monomial, coeff), sorted, nonzero coeffs

    @staticmethod
    def from_dict(d: dict) -> "IntPoly":
        items = tuple(sorted(((m, c) for m, c in d.items() if c), key=lambda t: _pmono_key(t[0])))
        return IntPoly(items)

    @staticmethod
    def zero() -> "IntPoly":
        return IntPoly(())

    @staticmethod
    def one() -> "IntPoly":
        return IntPoly((((), 1),))

    @staticmethod
    def p(i: int) -> "IntPoly":
        if i < 1:
            raise ValueError("Pontryagin index must be >= 1")
        return IntPoly(((((i, 1),), 1),))

    def __add__(self, other: "IntPoly") -> "IntPoly":
        acc = dict(self.terms)
        for m, c in other.terms:
            acc[m] = acc.get(m, 0) + c
        return IntPoly.from_dict(acc)

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        acc: dict = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = _pmono_mul(m1, m2)
                acc[m] = acc.get(m, 0) + c1 * c2
        return IntPoly.from_dict(acc)

    def scale(self, c: int) -> "IntPoly":
        return IntPoly.from_dict({m: c * k for m, k in self.terms})

    def __pow__(self, e: int) -> "IntPoly":
        return _power(self, e, IntPoly.one())

    def is_zero(self) -> bool:
        return not self.terms

    def reduce_mod2(self) -> GF2Poly:
        # p_i -> w_{2i}^2 keeps the order of a sorted p-monomial
        return GF2Poly.from_terms(tuple((wgen(2 * i), 2 * e) for i, e in m)
                                  for m, c in self.terms if c % 2)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for m, c in self.terms:
            body = "*".join(f"p{i}" if e == 1 else f"p{i}^{e}" for i, e in m) or "1"
            if c == 1 and m:
                bits.append(body)
            elif c == -1 and m:
                bits.append(f"-{body}")
            else:
                bits.append(f"{c}*{body}" if m else str(c))
        return " + ".join(bits).replace("+ -", "- ")


def ppoly_to_json(p: IntPoly) -> list:
    return [[c, [[f"p{i}", e] for i, e in m]] for m, c in p.terms]


# ---------------------------------------------------------------------------
# integral classes


@dataclass(frozen=True)
class IntegralClass:
    free: IntPoly
    torsion: GF2Poly

    @staticmethod
    def zero() -> "IntegralClass":
        return IntegralClass(IntPoly.zero(), GF2Poly.zero())

    @staticmethod
    def from_free(f: IntPoly) -> "IntegralClass":
        return IntegralClass(f, GF2Poly.zero())

    @staticmethod
    def from_torsion(t: GF2Poly) -> "IntegralClass":
        return IntegralClass(IntPoly.zero(), t)

    def __add__(self, other: "IntegralClass") -> "IntegralClass":
        return IntegralClass(self.free + other.free, self.torsion + other.torsion)

    def __mul__(self, other: "IntegralClass") -> "IntegralClass":
        torsion = (self.free.reduce_mod2() * other.torsion
                   + other.free.reduce_mod2() * self.torsion
                   + self.torsion * other.torsion)
        return IntegralClass(self.free * other.free, torsion)

    def __pow__(self, e: int) -> "IntegralClass":
        return _power(self, e, IntegralClass.from_free(IntPoly.one()))

    def scale(self, c: int) -> "IntegralClass":
        # torsion is 2-torsion: an even multiple kills it
        return IntegralClass(self.free.scale(c), self.torsion if c % 2 else GF2Poly.zero())

    def reduce_mod2(self) -> GF2Poly:
        return self.free.reduce_mod2() + self.torsion

    def rationalize(self) -> IntPoly:
        """Image after inverting 2: the free part survives, torsion dies."""
        return self.free

    def is_zero(self) -> bool:
        return self.free.is_zero() and self.torsion.is_zero()

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        if self.torsion.is_zero():
            return str(self.free)
        if self.free.is_zero():
            return f"tors[{self.torsion}]"
        return f"{self.free} + tors[{self.torsion}]"


def iclass_to_json(c: IntegralClass) -> dict:
    return {"free": ppoly_to_json(c.free), "torsion": poly_to_json(c.torsion)}


def v_class(indices: Iterable[int]) -> IntegralClass:
    """Torsion class whose mod-2 image is the monomial w_{i_1}...w_{i_r}.

    Exists only when that monomial is in the image of sq1; otherwise raises.
    """
    idx = tuple(sorted(int(i) for i in indices))
    if not idx or any(i < 1 for i in idx):
        raise ValueError("v_class needs a nonempty tuple of positive indices")
    m = GF2Poly.from_terms([tuple((wgen(i), idx.count(i)) for i in sorted(set(idx)))])
    if sq1_preimage(m) is None:
        raise ValueError(f"w-monomial for indices {idx} is not in the image of sq1")
    return IntegralClass.from_torsion(m)


def torsion_in_sq1_image(c: IntegralClass) -> bool:
    """Exact membership check for the torsion part (anonymous w-generators)."""
    # check degree by degree so mixed-degree torsion is still decidable
    return all(sq1_preimage(part) is not None for part in c.torsion.graded().values())
