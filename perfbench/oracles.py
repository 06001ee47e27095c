"""Output checks for every op, built on oracles that share no code path
with the function under test.

- gtp: the permutation sum for r <= 6 (over GF(2) the determinant is the
  permanent), and for r >= 7 the numeric determinant of the Toeplitz matrix
  at a random point of GF(2^16), compared with the class evaluated there.
- Identities between total classes (inverse_total, total_sw, the
  pushforward lemma, morin_tp) are compared by evaluation at random points
  of GF(2^16), graded by a formal variable s truncated at the degree bound;
  total_sw uses the splitting principle (Stiefel-Whitney classes are the
  elementary symmetric functions of random roots). By Schwartz-Zippel a
  wrong class passes with probability at most (number of factors)/65535.
- GF(2) products: evaluation at a random point of GF(2^16).
- sq1: the Wu formula on monomials of anonymous w_i, and membership in the
  image of sq1 by GF(2) elimination over all monomials of one degree lower.
- Jacobians: first-order dual numbers, independent of jets.Jet2.
- Ranks, kernels and cokernels: Fraction elimination and J v = 0, a J = 0.

`Checker.check(op, result)` raises Mismatch when an output is wrong.
"""

from __future__ import annotations

import random
from array import array
from fractions import Fraction
from itertools import permutations, product

from singcalc import thom

import ops

ORDER = 65535  # multiplicative group of GF(2^16)
MODULUS = 0x1100B  # x^16 + x^12 + x^3 + x + 1, primitive


class Mismatch(Exception):
    """An op's output disagrees with its oracle."""


def require(cond, what: str) -> None:
    if not cond:
        raise Mismatch(what)


# GF(2^16) ------------------------------------------------------------------------

class Field:
    """GF(2^16) by exp/log tables; addition is XOR."""

    def __init__(self):
        self.exp = array("H", [0]) * (2 * ORDER)
        self.log = array("H", [0]) * (ORDER + 1)
        x = 1
        for i in range(ORDER):
            self.exp[i] = self.exp[i + ORDER] = x
            self.log[x] = i
            x <<= 1
            if x & 0x10000:
                x ^= MODULUS

    def mul(self, a: int, b: int) -> int:
        if not a or not b:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def pow(self, a: int, e: int) -> int:
        if e == 0:
            return 1
        if not a:
            return 0
        return self.exp[self.log[a] * e % ORDER]

    def inv(self, a: int) -> int:
        return self.exp[ORDER - self.log[a]]

    # truncated power series in s, as coefficient lists of length d+1

    def smul(self, a: list, b: list) -> list:
        out = [0] * len(a)
        for i, ai in enumerate(a):
            if ai:
                for j in range(len(a) - i):
                    out[i + j] ^= self.mul(ai, b[j])
        return out

    def sinv(self, a: list) -> list:
        require(a[0] == 1, "series without constant term 1")
        out = [1] + [0] * (len(a) - 1)
        for i in range(1, len(a)):
            acc = 0
            for j in range(1, i + 1):
                acc ^= self.mul(a[j], out[i - j])
            out[i] = acc
        return out

    def roots_series(self, roots, d: int) -> list:
        """prod (1 + x s) over the roots, truncated at s^d."""
        out = [1] + [0] * d
        for x in roots:
            for i in range(d, 0, -1):
                out[i] ^= self.mul(x, out[i - 1])
        return out

    def det(self, mat: list) -> int:
        m = [row[:] for row in mat]
        n = len(m)
        acc = 1
        for c in range(n):
            piv = next((i for i in range(c, n) if m[i][c]), None)
            if piv is None:
                return 0
            m[c], m[piv] = m[piv], m[c]
            acc = self.mul(acc, m[c][c])
            inv = self.inv(m[c][c])
            for i in range(c + 1, n):
                if m[i][c]:
                    f = self.mul(m[i][c], inv)
                    m[i] = [a ^ self.mul(f, b) for a, b in zip(m[i], m[c])]
        return acc


def gen_degree(g: tuple) -> int:
    return g[2] if g[0] == "w" else 1


def parse_name(name: str) -> tuple:
    """Generator tuple of a canonical JSON name: w3, w3:TM, t:a."""
    if name.startswith("t:"):
        return ("t", name[2:])
    idx, _, bundle = name[1:].partition(":")
    return ("w", bundle, int(idx))


class Point:
    """Random nonzero field values for generators, drawn on first use."""

    def __init__(self, field: Field, rng: random.Random, fixed=None):
        self.field = field
        self.rng = rng
        self.values = dict(fixed or {})

    def __call__(self, g: tuple) -> int:
        if g not in self.values:
            self.values[g] = self.rng.randrange(1, ORDER + 1)
        return self.values[g]

    def eval(self, terms) -> int:
        f = self.field
        acc = 0
        for m in terms:
            v = 1
            for g, e in m:
                v = f.mul(v, f.pow(self(g), e))
            acc ^= v
        return acc

    def graded(self, terms, d: int) -> list:
        """Evaluation as a series in s: a term of degree j lands on s^j."""
        f = self.field
        out = [0] * (d + 1)
        for m in terms:
            v, deg = 1, 0
            for g, e in m:
                v = f.mul(v, f.pow(self(g), e))
                deg += gen_degree(g) * e
            require(deg <= d, f"term of degree {deg} above the bound {d}")
            out[deg] ^= v
        return out


def json_terms(obj: list) -> list:
    return [tuple((parse_name(name), e) for name, e in term) for term in obj]


def json_set(obj: list) -> set:
    """Anonymous w-monomials of a JSON polynomial; a repeated term cancels."""
    out: set = set()
    for m in json_terms(obj):
        out ^= {multiset(m)}
    return out


# sq1 on anonymous w-monomials, written as sorted index tuples ---------------------

def multiset(m: tuple) -> tuple:
    idx = []
    for g, e in m:
        require(g[0] == "w" and g[1] == "", f"unexpected generator {g}")
        idx += [g[2]] * e
    return tuple(sorted(idx))


def sq1_monomial(m: tuple) -> set:
    """Wu formula sq1 w_i = w_1 w_i + (i even) w_{i+1}, extended as a derivation."""
    out: set = set()
    for i in set(m):
        if m.count(i) % 2 == 0:
            continue
        for image in [tuple(sorted(m + (1,)))] + ([_replace(m, i, i + 1)] if i % 2 == 0 else []):
            out ^= {image}
    return out


def _replace(m: tuple, old: int, new: int) -> tuple:
    idx = list(m)
    idx.remove(old)
    return tuple(sorted(idx + [new]))


def sq1_set(monos) -> set:
    out: set = set()
    for m in monos:
        out ^= sq1_monomial(m)
    return out


def poly_set(p) -> set:
    return {multiset(m) for m in p.terms}


def sq1_json(terms: list) -> list:
    """sq1 of a JSON polynomial in anonymous w_i, as JSON."""
    monos: set = set()
    for term in terms:
        monos ^= {tuple(sorted(i for name, e in term for i in [int(name[1:])] * e))}
    return [[[f"w{i}", m.count(i)] for i in sorted(set(m))] for m in sorted(sq1_set(monos))]


def _partitions(total: int, largest: int):
    if total == 0:
        yield ()
        return
    for part in range(min(total, largest), 0, -1):
        for rest in _partitions(total - part, part):
            yield (part,) + rest


def in_sq1_image(monos: set) -> bool:
    """Whether a homogeneous set of monomials is sq1 of something, by GF(2)
    elimination over the images of every monomial one degree lower."""
    if not monos:
        return True
    degrees = {sum(m) for m in monos}
    require(len(degrees) == 1, "membership test needs a homogeneous class")
    degree = degrees.pop()
    index: dict = {}

    def bits(ms) -> int:
        v = 0
        for m in ms:
            v ^= 1 << index.setdefault(m, len(index))
        return v

    basis: dict = {}

    def reduce(v: int, insert: bool) -> int:
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                if insert:
                    basis[top] = v
                return v
            v ^= basis[top]
        return 0

    for part in _partitions(degree - 1, degree - 1):
        reduce(bits(sq1_monomial(tuple(sorted(part)))), True)
    return reduce(bits(monos), False) == 0


# dual numbers and exact linear algebra ---------------------------------------------

class Dual:
    """Value plus gradient, exact over Fraction."""

    __slots__ = ("val", "grad")

    def __init__(self, val, grad):
        self.val = val
        self.grad = grad

    def _lift(self, o):
        return o if isinstance(o, Dual) else Dual(Fraction(o), (0,) * len(self.grad))

    def __add__(self, o):
        o = self._lift(o)
        return Dual(self.val + o.val, tuple(a + b for a, b in zip(self.grad, o.grad)))

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, tuple(-a for a in self.grad))

    def __sub__(self, o):
        return self + -self._lift(o)

    def __rsub__(self, o):
        return self._lift(o) + -self

    def __mul__(self, o):
        o = self._lift(o)
        return Dual(self.val * o.val,
                    tuple(self.val * b + o.val * a for a, b in zip(self.grad, o.grad)))

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = self._lift(o)
        q = self.val / o.val
        return Dual(q, tuple((a - q * b) / o.val for a, b in zip(self.grad, o.grad)))

    def __rtruediv__(self, o):
        return self._lift(o) / self


def dual_jacobian(fn, point) -> list:
    m = len(point)
    seeds = [Dual(Fraction(v), tuple(Fraction(int(i == j)) for j in range(m)))
             for i, v in enumerate(point)]
    return [list(d.grad) for d in fn(seeds)]


def exact_rank(rows) -> int:
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _require_null_spaces(jac, rep) -> None:
    rows, cols = len(jac), len(jac[0])
    rank = exact_rank(jac)
    require(rep.rank == rank, f"rank {rep.rank}, oracle {rank}")
    require(rep.corank == min(rows, cols) - rank, "corank is not min(rows, cols) - rank")
    require(len(rep.kernel_basis) == cols - rank, "kernel basis has the wrong size")
    require(len(rep.cokernel_basis) == rows - rank, "cokernel basis has the wrong size")
    for v in rep.kernel_basis:
        require(all(sum(a * b for a, b in zip(row, v)) == 0 for row in jac), "J v != 0")
    for a in rep.cokernel_basis:
        require(all(sum(a[i] * jac[i][j] for i in range(rows)) == 0 for j in range(cols)),
                "a J != 0")
    for basis in (rep.kernel_basis, rep.cokernel_basis):
        require(exact_rank(basis) == len(basis), "basis vectors are dependent")


def on_sigma_41(coords) -> bool:
    x1, x2, y, z = coords
    return x1 == -2 * z * x2 and y == -3 * z * z


# the checker ------------------------------------------------------------------------

class Checker:
    def __init__(self):
        self.field = Field()

    def point(self, op) -> Point:
        """Random values seeded by the op's inputs, so a check is repeatable."""
        return Point(self.field, random.Random(repr(op.keys)))

    def check(self, op, result) -> None:
        getattr(self, "_" + op.kind)(op, result)

    # calc

    def _gtp(self, op, p) -> None:
        r, l = op.args
        degree = r * (l + r)
        require(all(sum(multiset(m)) == degree for m in p.terms), "gtp is not homogeneous")
        if r <= 6:
            expected: set = set()
            for perm in permutations(range(r)):
                idx = [l + r + j - i for i, j in enumerate(perm)]
                if min(idx) >= 0:
                    expected ^= {tuple(sorted(i for i in idx if i))}
            require(poly_set(p) == expected, "gtp differs from the permutation sum")
            return
        pt = self.point(op)
        w = lambda i: 0 if i < 0 else 1 if i == 0 else pt(("w", "", i))
        mat = [[w(l + r + j - i) for j in range(r)] for i in range(r)]
        require(pt.eval(p.terms) == self.field.det(mat),
                "gtp differs from the Toeplitz determinant at a random point")

    def _sq1_gtp(self, op, res) -> None:
        c, s = res
        self._gtp(op, c)
        require(poly_set(s) == sq1_set(poly_set(c)), "sq1 differs from the Wu formula")
        require(not sq1_set(poly_set(s)), "sq1 applied twice is not zero")

    def _morin_tp(self, op, p) -> None:
        r, k = op.args
        f = self.field
        pt = self.point(op)
        w = lambda i: 1 if i == 0 else pt(("w", "", i))
        a = f.mul(w(k + 1), w(k + 1)) ^ f.mul(w(k), w(k + 2))
        expected = f.pow(a, r // 2) if r % 2 == 0 else f.mul(w(k + 1), f.pow(a, r // 2))
        require(pt.eval(p.terms) == expected, "morin_tp differs from its closed form")

    def _morin_tp_integral(self, op, c) -> None:
        r, k = op.args
        require(c.reduce_mod2() == thom.morin_tp(r, k), "reduction mod 2 differs from morin_tp")
        require(c.scale(2).torsion.is_zero(), "torsion survives doubling")
        require(c.free.terms == (((((k + 1) // 2, r // 2),), 1),),
                "free part is not p_{(k+1)/2}^{r/2}")

    def _total_sw(self, op, res) -> None:
        rank, total, reduced = res
        text, ranks, d, regime, k = op.args
        f = self.field
        rng = random.Random(repr(op.keys))
        roots: dict = {}
        taus: dict = {}

        def tau(tag):
            return taus.setdefault(tag, rng.randrange(1, ORDER + 1))

        def series(tree, shift):
            kind = tree[0]
            if kind == "named":
                bundle = "" if tree[1] == "nu_f" else tree[1]
                xs = roots.setdefault(bundle, [rng.randrange(1, ORDER + 1) for _ in range(tree[2])])
                return f.roots_series([x ^ shift for x in xs], d)
            if kind == "eps":
                return f.roots_series([shift] * tree[1], d)
            if kind == "line":
                return f.roots_series([tau(tree[1]) ^ shift], d)
            if kind == "tensor":
                return series(tree[2], shift ^ tau(tree[1]))
            left, right = series(tree[1], shift), series(tree[2], shift)
            return f.smul(left, right if kind == "sum" else f.sinv(right))

        def tree_rank(tree):
            kind = tree[0]
            if kind in ("named", "eps"):
                return tree[-1]
            if kind in ("line", "tensor"):
                return 1 if kind == "line" else tree_rank(tree[2])
            sign = 1 if kind == "sum" else -1
            return tree_rank(tree[1]) + sign * tree_rank(tree[2])

        tree = op.expect["tree"]
        expected = series(tree, 0)
        fixed = {("t", tag): v for tag, v in taus.items()}
        for bundle, xs in roots.items():
            elementary = f.roots_series(xs, len(xs))
            fixed.update({("w", bundle, i): elementary[i] for i in range(1, len(xs) + 1)})
        require(rank == tree_rank(tree), "wrong rank")
        require(Point(f, rng, fixed).graded(total.terms, d) == expected,
                "total class differs from the splitting-principle product")
        if regime == "none":
            require(reduced == total, "no regime, but the class changed")
            return
        pt = Point(f, rng)
        for i in range(k + 2, d + 1):
            pt.values[("w", "", i)] = (0 if regime == "prim" else
                                      f.mul(f.pow(pt(("t", "t")), i - k - 1), pt(("w", "", k + 1))))
        require(pt.eval(reduced.terms) == pt.eval(total.terms),
                "regime rewriting is not the substitution it stands for")

    def _inverse_total(self, op, inv) -> None:
        n, d = op.args
        pt = self.point(op)
        a = [1] + [pt(("w", "TM", i)) if i <= n else 0 for i in range(1, d + 1)]
        require(self.field.smul(a, pt.graded(inv.terms, d)) == [1] + [0] * d,
                "a * inverse_total(a) is not 1")

    # verify

    def _steenrod(self, op, res) -> None:
        require(len(res) == len(op.expect["pairs"]), "wrong number of results")
        pt = self.point(op)
        for (p, q), (sp, pq, lhs, square_zero, derivation) in zip(op.expect["pairs"], res):
            require(pt.eval(pq.terms) == self.field.mul(pt.eval(json_terms(p)),
                                                         pt.eval(json_terms(q))),
                    "product differs from the product of values at a random point")
            require(poly_set(sp) == sq1_set(json_set(p)), "sq1 differs from the Wu formula")
            require(poly_set(lhs) == sq1_set(poly_set(pq)),
                    "sq1 of the product differs from the Wu formula")
            require(square_zero, "sq1 applied twice is not zero")
            require(derivation, "sq1 is not a derivation on this product")

    def _report(self, rep) -> None:
        require(rep.status == "pass", f"{rep.command} failed")

    def _thom_verify(self, op, rep) -> None:
        self._report(rep)

    def _pushforward(self, op, rep) -> None:
        self._report(rep)
        n, k, r = op.args
        degree = k + r + 1
        d = rep.params["max_degree"]
        pt = self.point(op)
        f = self.field
        fser = [1] + [pt(("w", "F", i)) if i <= n + k else 0 for i in range(1, d + 1)]
        tser = [1] + [pt(("w", "TM", i)) if i <= n else 0 for i in range(1, d + 1)]
        expected = f.smul(fser, f.sinv(tser))[degree]
        got = pt.graded(json_terms(rep.artifacts["normal_class_side"]), d)
        require(got[degree] == expected and not any(got[:degree] + got[degree + 1:]),
                "normal-class side differs from total(F)/total(TM)")

    def _torsion(self, op, ok) -> None:
        require(ok == in_sq1_image(json_set(op.expect["terms"])), "sq1-image membership is wrong")

    def _integral_reduction(self, op, res) -> None:
        c, ok = res
        self._morin_tp_integral(op, c)
        require(ok and in_sq1_image(poly_set(c.torsion)), "torsion is not in the image of sq1")

    def _jacobian(self, op, res) -> None:
        n, k, coords, t = op.args
        hand, ad = res
        expected = dual_jacobian(ops.family(n, k), list(coords) + [t])
        require(hand == expected, "hand Jacobian differs from the dual-number Jacobian")
        require(ad == expected, "AD Jacobian differs from the dual-number Jacobian")

    def _sigma(self, op, res) -> None:
        n, k, points = op.args
        require(len(res) == len(points), "wrong number of results")
        for coords, (closed, oracle) in zip(points, res):
            require(closed == oracle, "closed-form sigma differs from the projection oracle")
            jac = dual_jacobian(ops.normal_form(n, k), coords)
            for j in range(n):
                require(sum(closed[i] * jac[i][j] for i in range(n + k)) == 0,
                        "sigma is not orthogonal to im df")

    # germ-scan

    def _stratify(self, op, rep) -> None:
        grid, t_values = op.args
        self._report(rep)
        points = list(product(grid, repeat=4))
        require(rep.params["points_scanned"] == len(points), "wrong number of points scanned")
        expected = [[str(c) for c in pt] for pt in points if on_sigma_41(pt)]
        require(rep.artifacts["singular_points"] == expected,
                "singular set differs from the singular-locus equations")
        for profile in rep.artifacts["family_corank_profile"].values():
            require(sum(profile.values()) == len(points), "family profile misses points")

    def _corank(self, op, res) -> None:
        n, k, coords, t = op.args
        jac, rep = res
        require(jac == dual_jacobian(ops.family(n, k), list(coords) + [t]),
                "hand Jacobian differs from the dual-number Jacobian")
        _require_null_spaces(jac, rep)

    def _transversality(self, op, rep) -> None:
        n, k, coords = op.args
        jac = dual_jacobian(ops.family(n, k), list(coords) + [Fraction(0)])
        _require_null_spaces(jac, rep)
        require(rep.corank == 2, "cusp point is not corank 2")
        tr = rep.transversality
        require(tr["surjective"] and tr["rank"] == 2 * (k + 1),
                "projected second derivative is not onto")
