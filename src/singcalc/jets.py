"""Order-1 or order-2 truncated Taylor arithmetic (value, gradient, Hessian)
over exact rationals, plus a float central-difference fallback.

A Jet2 tracks f(p), Df(p) and D^2 f(p) through ring operations and division,
so rational-function formulas differentiate exactly; this is the
independent oracle the closed-form Jacobians are tested against. An order-1
jet (jacobian_ad's) has no Hessian, h is None, and skips every Hessian
update; combining two jets gives the lower of their orders.

Storage is sparse (the forward mode of Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., ch. 13, with sparse derivative vectors): the gradient
is a dict {i: df/dx_i} and the Hessian is its upper triangle
{(i, j): d2f/dx_i dx_j} with i <= j, so the Hessian is symmetric by
construction. Missing entries are zero; constants carry empty dicts. A
jet's dicts are never mutated once it is built, so operations with a plain
number share them. `grad` and `hess` are dense read-only views.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

_ZERO = Fraction(0)


def _num(c):
    # ints and Fractions combine with Fractions exactly; anything else (a
    # float, a decimal string) is converted, as a constant jet would be
    return c if isinstance(c, (int, Fraction)) else Fraction(c)


def _scaled(d: Optional[dict], c) -> Optional[dict]:
    return None if d is None else {key: c * v for key, v in d.items()}


def _add_into(out: dict, key, v) -> None:
    out[key] = out[key] + v if key in out else v


def _lin(d1: Optional[dict], c1, d2: Optional[dict], c2) -> Optional[dict]:
    """c1*d1 + c2*d2 as a new dict, None if either is; a coefficient of 1
    costs no products."""
    if d1 is None or d2 is None:
        return None
    out = dict(d1) if c1 == 1 else _scaled(d1, c1)
    for key, v in d2.items():
        _add_into(out, key, v if c2 == 1 else c2 * v)
    return out


class Jet2:
    """Jet in m variables: value `val`, sparse gradient `g` {i: d_i} and
    sparse upper-triangle Hessian `h` {(i, j): d_ij}, i <= j (None at order 1)."""

    __slots__ = ("val", "g", "h", "m")

    def __init__(self, val: Fraction, g: dict, h: dict, m: int):
        self.val = val
        self.g = g
        self.h = h
        self.m = m

    # construction ----------------------------------------------------------

    @staticmethod
    def const(c, m: int) -> "Jet2":
        return Jet2(Fraction(c), {}, {}, m)

    @staticmethod
    def var(value, index: int, m: int, order: int = 2) -> "Jet2":
        return Jet2(Fraction(value), {index: Fraction(1)}, {} if order == 2 else None, m)

    # dense read-only views ---------------------------------------------------

    @property
    def grad(self) -> tuple:
        return tuple(self.g.get(i, _ZERO) for i in range(self.m))

    @property
    def hess(self) -> tuple:
        if self.h is None:
            raise ValueError("an order-1 jet carries no Hessian")
        rows = [[_ZERO] * self.m for _ in range(self.m)]
        for (i, j), v in self.h.items():
            rows[i][j] = rows[j][i] = v
        return tuple(tuple(row) for row in rows)

    # ring operations --------------------------------------------------------

    def __add__(self, other) -> "Jet2":
        if not isinstance(other, Jet2):
            return Jet2(self.val + _num(other), self.g, self.h, self.m)
        return Jet2(self.val + other.val, _lin(self.g, 1, other.g, 1),
                    _lin(self.h, 1, other.h, 1), self.m)

    __radd__ = __add__

    def __neg__(self) -> "Jet2":
        return Jet2(-self.val, _scaled(self.g, -1), _scaled(self.h, -1), self.m)

    def __sub__(self, other) -> "Jet2":
        if not isinstance(other, Jet2):
            return Jet2(self.val - _num(other), self.g, self.h, self.m)
        return Jet2(self.val - other.val, _lin(self.g, 1, other.g, -1),
                    _lin(self.h, 1, other.h, -1), self.m)

    def __rsub__(self, other) -> "Jet2":
        return (-self) + other

    def __mul__(self, other) -> "Jet2":
        if not isinstance(other, Jet2):
            c = _num(other)
            return Jet2(self.val * c, _scaled(self.g, c), _scaled(self.h, c), self.m)
        a, b = self.val, other.val
        # D^2(fg) = f D^2 g + g D^2 f + Df Dg^T + Dg Df^T
        h = _lin(self.h, b, other.h, a)
        if h is not None:
            for i, x in self.g.items():
                for j, y in other.g.items():
                    xy = x * y
                    if i < j:
                        _add_into(h, (i, j), xy)
                    elif i > j:
                        _add_into(h, (j, i), xy)
                    else:
                        _add_into(h, (i, i), xy + xy)
        return Jet2(a * b, _lin(self.g, b, other.g, a), h, self.m)

    __rmul__ = __mul__

    def _compose(self, f0, f1, f2) -> "Jet2":
        """phi(self) for a univariate phi with phi = f0, phi' = f1 and
        phi'' = f2 at self.val: D phi = f1 Df, D^2 phi = f1 D^2 f + f2 Df Df^T.
        Callers pass f2 = 0 at order 1, where there is no Hessian to update."""
        h = _scaled(self.h, f1)
        if f2:
            items = sorted(self.g.items())
            for a, (i, x) in enumerate(items):
                fx = f2 * x
                for j, y in items[a:]:
                    _add_into(h, (i, j), fx * y)
        return Jet2(f0, _scaled(self.g, f1), h, self.m)

    def inverse(self) -> "Jet2":
        if self.val == 0:
            raise ZeroDivisionError("jet with zero value part")
        inv = 1 / self.val
        inv2 = inv * inv
        return self._compose(inv, -inv2, 0 if self.h is None else 2 * inv2 * inv)

    def __truediv__(self, other) -> "Jet2":
        if not isinstance(other, Jet2):
            return self * (1 / Fraction(other))
        return self * other.inverse()

    def __rtruediv__(self, other) -> "Jet2":
        return self.inverse() * other

    def __pow__(self, e: int) -> "Jet2":
        if not isinstance(e, int):
            raise TypeError("jet powers must be integers")
        if e < 0:
            return self.inverse() ** (-e)
        if e == 0:
            return Jet2.const(1, self.m)
        v = self.val
        f2 = e * (e - 1) * v ** (e - 2) if e >= 2 and self.h is not None else 0
        return self._compose(v ** e, e * v ** (e - 1), f2)


def seed(point: Sequence, order: int = 2) -> List[Jet2]:
    if order not in (1, 2):
        raise ValueError(f"jet order must be 1 or 2, got {order}")
    m = len(point)
    return [Jet2.var(v, i, m, order) for i, v in enumerate(point)]


MapFn = Callable[[Sequence], Sequence]


def jacobian_ad(fn: MapFn, point: Sequence) -> List[List[Fraction]]:
    """Exact Jacobian of a componentwise rational map at a rational point."""
    jets = fn(seed(point, 1))
    return [list(j.grad) for j in jets]


def hessian_ad(fn: MapFn, point: Sequence) -> List[Tuple[Tuple[Fraction, ...], ...]]:
    """Exact Hessian of every component: tensor[row][i][j]."""
    jets = fn(seed(point, 2))
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
