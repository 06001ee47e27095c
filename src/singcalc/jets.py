"""Order-2 truncated Taylor arithmetic (value, gradient, Hessian) over exact
rationals, plus a float central-difference fallback.

A Jet2 tracks f(p), Df(p) and D^2 f(p) through ring operations and division,
so rational-function formulas differentiate exactly; this is the
independent oracle the closed-form Jacobians are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Sequence, Tuple


def _zeros(m: int) -> tuple:
    return tuple(Fraction(0) for _ in range(m))


def _zeros2(m: int) -> tuple:
    return tuple(_zeros(m) for _ in range(m))


@dataclass(frozen=True)
class Jet2:
    """Second-order jet in m variables: value, gradient, symmetric Hessian."""

    val: Fraction
    grad: tuple
    hess: tuple

    # construction ----------------------------------------------------------

    @staticmethod
    def const(c, m: int) -> "Jet2":
        return Jet2(Fraction(c), _zeros(m), _zeros2(m))

    @staticmethod
    def var(value, index: int, m: int) -> "Jet2":
        g = [Fraction(0)] * m
        g[index] = Fraction(1)
        return Jet2(Fraction(value), tuple(g), _zeros2(m))

    @property
    def m(self) -> int:
        return len(self.grad)

    def _coerce(self, other) -> "Jet2":
        if isinstance(other, Jet2):
            return other
        return Jet2.const(other, self.m)

    # ring operations --------------------------------------------------------

    def __add__(self, other) -> "Jet2":
        o = self._coerce(other)
        return Jet2(self.val + o.val,
                    tuple(a + b for a, b in zip(self.grad, o.grad)),
                    tuple(tuple(a + b for a, b in zip(ra, rb))
                          for ra, rb in zip(self.hess, o.hess)))

    __radd__ = __add__

    def __neg__(self) -> "Jet2":
        return Jet2(-self.val, tuple(-a for a in self.grad),
                    tuple(tuple(-a for a in row) for row in self.hess))

    def __sub__(self, other) -> "Jet2":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Jet2":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Jet2":
        o = self._coerce(other)
        grad = tuple(self.val * gb + o.val * ga
                     for ga, gb in zip(self.grad, o.grad))
        hess = tuple(tuple(self.val * o.hess[i][j] + o.val * self.hess[i][j]
                           + self.grad[i] * o.grad[j] + self.grad[j] * o.grad[i]
                           for j in range(self.m))
                     for i in range(self.m))
        return Jet2(self.val * o.val, grad, hess)

    __rmul__ = __mul__

    def inverse(self) -> "Jet2":
        if self.val == 0:
            raise ZeroDivisionError("jet with zero value part")
        v = self.val
        grad = tuple(-g / (v * v) for g in self.grad)
        hess = tuple(tuple(-self.hess[i][j] / (v * v)
                           + 2 * self.grad[i] * self.grad[j] / (v * v * v)
                           for j in range(self.m))
                     for i in range(self.m))
        return Jet2(1 / v, grad, hess)

    def __truediv__(self, other) -> "Jet2":
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other) -> "Jet2":
        return self._coerce(other) * self.inverse()

    def __pow__(self, e: int) -> "Jet2":
        if not isinstance(e, int):
            raise TypeError("jet powers must be integers")
        if e < 0:
            return self.inverse() ** (-e)
        acc = Jet2.const(1, self.m)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc


def seed(point: Sequence) -> List[Jet2]:
    m = len(point)
    return [Jet2.var(v, i, m) for i, v in enumerate(point)]


MapFn = Callable[[Sequence], Sequence]


def jacobian_ad(fn: MapFn, point: Sequence) -> List[List[Fraction]]:
    """Exact Jacobian of a componentwise rational map at a rational point."""
    jets = fn(seed(point))
    return [list(j.grad) for j in jets]


def hessian_ad(fn: MapFn, point: Sequence) -> List[Tuple[Tuple[Fraction, ...], ...]]:
    """Exact Hessian of every component: tensor[row][i][j]."""
    jets = fn(seed(point))
    return [j.hess for j in jets]


def jacobian_fd(fn: MapFn, point: Sequence, h: float = 1e-6) -> List[List[float]]:
    """Float central-difference Jacobian, for sanity checks only."""
    p = [float(v) for v in point]
    m = len(p)
    base = [float(v) for v in fn(p)]
    out = [[0.0] * m for _ in base]
    for j in range(m):
        hi = p[:]
        lo = p[:]
        hi[j] += h
        lo[j] -= h
        fhi = [float(v) for v in fn(hi)]
        flo = [float(v) for v in fn(lo)]
        for i in range(len(base)):
            out[i][j] = (fhi[i] - flo[i]) / (2 * h)
    return out
