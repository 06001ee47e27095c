"""Sparse multivariate polynomial algebra over GF(2).

Generators are Stiefel-Whitney classes w_i of named bundle families
(degree i; the anonymous family "" is the default stable bundle) and
first Stiefel-Whitney classes of line bundles, written t:tag (degree 1).
A polynomial is a set of monomials; adding a monomial twice cancels it.

Every monomial is canonical: a tuple of (generator, exponent) pairs sorted
by gen_sort_key, each generator at most once, every exponent >= 1, so equal
monomials are equal tuples. Only this module knows that layout: monomials
are edited by split (and split_above) and mono_mul, a merge that compares
generator tuples, not sort keys; none re-sorts, and mono() sorts only outside
input (poly_from_json). There is no other monomial form: mono_mul is the one
product of monomials, and add_product, the in-place sum of the products of
two term sets, serves inverse_total, thom's determinant and the Gysin normal
side alike. GF2Poly.graded() is the one place that groups terms by degree: a
class's homogeneous parts, in increasing degree and each keeping the class's
max_degree, from one pass over the terms.

The module also implements the first Steenrod square sq1, the Wu formula
extended as a derivation and applied as direct edits of each term's tuple,
its exact preimage solver, and inversion of total classes degree by degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Optional

# ---------------------------------------------------------------------------
# generators

# A generator is a plain tuple: ("w", bundle, i) or ("t", tag).


def wgen(i: int, bundle: str = "") -> tuple:
    if i < 1:
        raise ValueError(f"w-generator index must be >= 1, got {i}")
    return ("w", bundle, int(i))


def linegen(tag: str) -> tuple:
    return ("t", str(tag))


def gen_degree(g: tuple) -> int:
    return g[2] if g[0] == "w" else 1


def gen_sort_key(g: tuple) -> tuple:
    # Stiefel-Whitney generators sort before line classes; families then index.
    if g[0] == "w":
        return (0, g[1], g[2])
    return (1, g[1], 0)


def gen_name(g: tuple) -> str:
    if g[0] == "w":
        return f"w{g[2]}" if g[1] == "" else f"w{g[2]}:{g[1]}"
    return f"t:{g[1]}"


def parse_gen(name: str) -> tuple:
    if name.startswith("t:"):
        return linegen(name[2:])
    if name.startswith("w"):
        body = name[1:]
        if ":" in body:
            idx, bundle = body.split(":", 1)
            return wgen(int(idx), bundle)
        return wgen(int(body))
    raise ValueError(f"cannot parse generator name {name!r}")


# ---------------------------------------------------------------------------
# monomials: tuple of (generator, exponent), sorted, exponents >= 1

ONE_MONO: tuple = ()


def mono(pairs: Iterable[tuple]) -> tuple:
    acc: dict = {}
    for g, e in pairs:
        if e < 0:
            raise ValueError("negative exponent")
        if e:
            acc[g] = acc.get(g, 0) + e
    return tuple(sorted(((g, e) for g, e in acc.items() if e), key=lambda p: gen_sort_key(p[0])))


def mono_mul(m1: tuple, m2: tuple) -> tuple:
    """Product of two canonical monomials: one merge of the two sorted
    pair sequences, adding the exponents of a generator both contain. Two
    w's or two t's compare as tuples (gen_sort_key order); a w precedes a t."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    n1, n2 = len(m1), len(m2)
    i = j = 0
    g1, g2 = m1[0][0], m2[0][0]
    while True:
        if g1 == g2:
            out.append((g1, m1[i][1] + m2[j][1]))
            i += 1
            j += 1
            if i == n1 or j == n2:
                break
            g1, g2 = m1[i][0], m2[j][0]
        elif g1 < g2 if g1[0] == g2[0] else g1[0] == "w":
            out.append(m1[i])
            i += 1
            if i == n1:
                break
            g1 = m1[i][0]
        else:
            out.append(m2[j])
            j += 1
            if j == n2:
                break
            g2 = m2[j][0]
    # at most one of the two tails is left
    return tuple(out) + m1[i:] + m2[j:]


def split(m: tuple, g: tuple) -> tuple:
    """(exponent of g in m, m without g); the rest is a subsequence of m,
    so it is canonical."""
    for j, (h, e) in enumerate(m):
        if h == g:
            return e, m[:j] + m[j + 1:]
    return 0, m


def split_above(m: tuple, i: int) -> tuple:
    """(the pairs of the anonymous w_j with j > i in m, the rest of m). The
    anonymous w's lead a canonical monomial in index order, so both parts
    are runs of m and canonical."""
    lo = hi = 0
    for g, _ in m:
        if g[0] != "w" or g[1] != "":
            break
        lo += g[2] <= i
        hi += 1
    return m[lo:hi], m[:lo] + m[hi:]


def add_product(acc: set, xs: Iterable[tuple], ys: Collection[tuple]) -> set:
    """acc + xs * ys over GF(2), in place, on sets of canonical monomials.
    For a fixed x, y -> x * y is one to one, so each x adds a set."""
    for x in xs:
        acc ^= {mono_mul(x, y) for y in ys}
    return acc


def mono_degree(m: tuple) -> int:
    return sum([g[2] * e if g[0] == "w" else e for g, e in m])


def _graded_lex(terms) -> tuple:
    """(terms sorted by degree, then by their (gen_sort_key(g), e) pairs; their
    generators in gen_sort_key order). A term's key is the int list [degree,
    rank_0, e_0, rank_1, e_1, ...], a rank being a generator's place in that order."""
    gens = sorted({g for m in terms for g, _ in m}, key=gen_sort_key)
    rank = {g: (r, gen_degree(g)) for r, g in enumerate(gens)}

    def key(m):
        out = [0]
        for g, e in m:
            r, d = rank[g]
            out[0] += d * e
            out += (r, e)
        return out

    return sorted(terms, key=key), gens


# ---------------------------------------------------------------------------
# polynomials


def _bound_min(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def verifier_bound(max_degree: Optional[int], default: int, degree: int) -> int:
    """The bound a verifier computes to: the caller's (default when None),
    raised to the degree its identity lives in, so that no bound can make
    the identity hold vacuously."""
    return max(default if max_degree is None else max_degree, degree)


@dataclass(frozen=True)
class GF2Poly:
    """Polynomial over GF(2): a frozenset of monomials, optionally truncated.

    max_degree is bookkeeping for truncated computations; equality and
    hashing look at the terms only.
    """

    terms: frozenset
    max_degree: Optional[int] = None

    # construction ---------------------------------------------------------

    @staticmethod
    def from_terms(terms: Iterable[tuple], max_degree: Optional[int] = None) -> "GF2Poly":
        if max_degree is not None:
            terms = [m for m in terms if mono_degree(m) <= max_degree]
        kept: set = set()
        for m in terms:
            kept ^= {m}
        return GF2Poly(frozenset(kept), max_degree)

    @staticmethod
    def zero(max_degree: Optional[int] = None) -> "GF2Poly":
        return GF2Poly(frozenset(), max_degree)

    @staticmethod
    def one(max_degree: Optional[int] = None) -> "GF2Poly":
        return GF2Poly(frozenset({ONE_MONO}), max_degree)

    @staticmethod
    def gen(g: tuple, max_degree: Optional[int] = None) -> "GF2Poly":
        return GF2Poly.from_terms([((g, 1),)], max_degree)

    # predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GF2Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    # ring operations ------------------------------------------------------

    def __add__(self, other: "GF2Poly") -> "GF2Poly":
        bound = _bound_min(self.max_degree, other.max_degree)
        return GF2Poly.from_terms(self.terms ^ other.terms, bound)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: "GF2Poly") -> "GF2Poly":
        bound = _bound_min(self.max_degree, other.max_degree)
        acc: set = set()
        if bound is None:
            for m1 in self.terms:
                for m2 in other.terms:
                    acc ^= {mono_mul(m1, m2)}
            return GF2Poly(frozenset(acc), bound)
        right = [(m2, d2) for m2 in other.terms if (d2 := mono_degree(m2)) <= bound]
        for m1 in self.terms:
            room = bound - mono_degree(m1)
            for m2, d2 in right:
                if d2 <= room:
                    acc ^= {mono_mul(m1, m2)}
        return GF2Poly(frozenset(acc), bound)

    def square(self) -> "GF2Poly":
        # Frobenius: (sum m)^2 = sum m^2 over GF(2)
        out = set()
        for m in self.terms:
            m2 = tuple((g, 2 * e) for g, e in m)
            if self.max_degree is not None and mono_degree(m2) > self.max_degree:
                continue
            out.add(m2)
        return GF2Poly(frozenset(out), self.max_degree)

    def __pow__(self, e: int) -> "GF2Poly":
        if e < 0:
            raise ValueError("negative power")
        result = GF2Poly.one(self.max_degree)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base.square()
        return result

    # grading ---------------------------------------------------------------

    def degree(self) -> int:
        """Maximal total degree of any term; -1 for the zero polynomial."""
        return max((mono_degree(m) for m in self.terms), default=-1)

    def homogeneous_part(self, d: int) -> "GF2Poly":
        return GF2Poly(frozenset(m for m in self.terms if mono_degree(m) == d), self.max_degree)

    def graded(self) -> dict:
        """{degree: nonempty homogeneous part keeping max_degree}, in increasing degree."""
        parts: dict = {}
        for m in self.terms:
            parts.setdefault(mono_degree(m), []).append(m)
        return {d: GF2Poly(frozenset(parts[d]), self.max_degree) for d in sorted(parts)}

    def truncate(self, d: int) -> "GF2Poly":
        # drops terms above degree d; deliberately keeps the ambient bound so
        # later products are not silently computed in a smaller quotient
        return GF2Poly(frozenset(m for m in self.terms if mono_degree(m) <= d),
                       self.max_degree)

    def is_homogeneous(self) -> bool:
        return len({mono_degree(m) for m in self.terms}) <= 1

    def sorted_terms(self) -> list:
        return _graded_lex(self.terms)[0]

    def line_tags(self) -> set:
        return {g[1] for m in self.terms for g, _ in m if g[0] == "t"}

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join("*".join(name if e == 1 else f"{name}^{e}" for name, e in term) or "1"
                          for term in poly_to_json(self))


def wpoly(i: int, bundle: str = "", max_degree: Optional[int] = None) -> GF2Poly:
    """The single Stiefel-Whitney class w_i as a polynomial; w_0 is 1."""
    if i == 0:
        return GF2Poly.one(max_degree)
    return GF2Poly.gen(wgen(i, bundle), max_degree)


def linepoly(tag: str, max_degree: Optional[int] = None) -> GF2Poly:
    return GF2Poly.gen(linegen(tag), max_degree)


# ---------------------------------------------------------------------------
# canonical JSON form


def poly_to_json(p: GF2Poly) -> list:
    terms, gens = _graded_lex(p.terms)
    names = {g: gen_name(g) for g in gens}
    return [[[names[g], e] for g, e in m] for m in terms]


def poly_from_json(obj: list, max_degree: Optional[int] = None) -> GF2Poly:
    terms = [mono([(parse_gen(name), int(e)) for name, e in term]) for term in obj]
    return GF2Poly.from_terms(terms, max_degree)


# ---------------------------------------------------------------------------
# first Steenrod square


def sq1(p: GF2Poly) -> GF2Poly:
    """First Steenrod square, extended from generators as a derivation.

    A generator g of odd exponent in a term m contributes m / g * sq1(g),
    with sq1(g) from the Wu formula: t -> t^2, and w_i -> w_1 w_i, plus
    w_{i+1} for even i, in g's own bundle. Each is one edit of m's tuple: t
    gains one in place; an even w_i passes one to w_{i+1}, which follows it
    in the tuple; a bundle with an odd count of odd w's adds m * w_1 at the
    head of its run. Results have degree deg(m) + 1: one cut per term.
    """
    bound = None if p.max_degree is None else p.max_degree + 1
    acc: set = set()
    for m in p.terms:
        if bound is not None and mono_degree(m) >= bound:
            continue
        owed: dict = {}  # bundle -> start of its run, while m * w_1 is owed
        bundle = None
        for j, (g, e) in enumerate(m):
            if g[0] == "t":
                if e & 1:
                    acc ^= {m[:j] + ((g, e + 1),) + m[j + 1:]}
                continue
            if g[1] != bundle:
                bundle, start = g[1], j
            if not e & 1:
                continue
            if owed.pop(bundle, None) is None:
                owed[bundle] = start
            if g[2] & 1:
                continue
            head = m[:j] + ((g, e - 1),) if e > 1 else m[:j]
            up = ("w", bundle, g[2] + 1)
            if j + 1 < len(m) and m[j + 1][0] == up:
                acc ^= {head + ((up, m[j + 1][1] + 1),) + m[j + 2:]}
            else:
                acc ^= {head + ((up, 1),) + m[j + 1:]}
        for bundle, j in owed.items():
            g, e = m[j]
            if g[2] == 1:
                acc ^= {m[:j] + ((g, e + 1),) + m[j + 1:]}
            else:
                acc ^= {m[:j] + ((("w", bundle, 1), 1),) + m[j:]}
    return GF2Poly(frozenset(acc), bound)


# ---------------------------------------------------------------------------
# sq1 preimages via an explicit contracting homotopy
#
# The triangular change of generators
#     w_1 -> w_1,   w_{2i} -> x_i,   w_{2i+1} -> y_i + w_1 x_i
# turns sq1 into the derivation  w_1 -> w_1^2,  x_i -> y_i,  y_i -> 0,
# i.e. a tensor product of elementary complexes each of which has a
# per-monomial contraction.  The homotopy H below satisfies
# d H + H d = id - (projection onto the harmonic monomials w_{2i}^even),
# so for a cycle a, b = H(a) is a preimage exactly when a is a boundary.
# The returned candidate is always re-verified with sq1 before returning.

# xy-monomial: (c, pairs) with c the w_1-exponent and pairs a sorted tuple
# of (i, a_i, b_i) for x_i^{a_i} y_i^{b_i}.


def _xy_mul(m1: tuple, m2: tuple) -> tuple:
    c = m1[0] + m2[0]
    acc: dict = {}
    for i, a, b in m1[1] + m2[1]:
        pa, pb = acc.get(i, (0, 0))
        acc[i] = (pa + a, pb + b)
    return (c, tuple(sorted((i, a, b) for i, (a, b) in acc.items() if a or b)))


def _to_xy(p: GF2Poly) -> set:
    out: set = set()
    for m in p.terms:
        factors = [(0, ())]  # set of xy-monomials, starts at 1
        partial = {(0, ())}
        for g, e in m:
            _, _, i = g
            if i == 1:
                expansion = {(e, ())}
            elif i % 2 == 0:
                expansion = {(0, ((i // 2, e, 0),))}
            else:
                j = (i - 1) // 2
                # (y_j + w1 x_j)^e over GF(2), factored by binary digits of e
                expansion = {(0, ())}
                bit = 1
                while bit <= e:
                    if e & bit:
                        factor = {(0, ((j, 0, bit),)), (bit, ((j, bit, 0),))}
                        expansion = {_xy_mul(a, b) for a in expansion for b in factor}
                    bit <<= 1
            partial = {_xy_mul(a, b) for a in partial for b in expansion}
        out ^= partial
    return out


def _from_xy(monos: set) -> GF2Poly:
    acc: set = set()
    for c, pairs in monos:
        poly = GF2Poly.one() if c == 0 else GF2Poly.from_terms([((wgen(1), c),)])
        for i, a, b in pairs:
            if a:
                poly = poly * GF2Poly.from_terms([((wgen(2 * i), a),)])
            if b:
                yb = wpoly(2 * i + 1) + GF2Poly.from_terms([((wgen(1), 1), (wgen(2 * i), 1))])
                poly = poly * yb ** b
        acc ^= poly.terms
    return GF2Poly(frozenset(acc))


def _xy_contract(m: tuple):
    # the tensor contraction; returns a single xy-monomial or None
    c, pairs = m
    if c:
        if c % 2 == 0:
            return (c - 1, pairs)
        return None
    for idx, (i, a, b) in enumerate(pairs):
        if b >= 1 and a % 2 == 0:
            new = (i, a + 1, b - 1)
            rebuilt = pairs[:idx] + ((new,) if new[1] or new[2] else ()) + pairs[idx + 1:]
            return (0, rebuilt)
        if b == 0 and a % 2 == 0:
            continue  # harmonic in this factor, move on
        return None
    return None  # fully harmonic monomial


def sq1_preimage(a: GF2Poly) -> Optional[GF2Poly]:
    """Some b with sq1(b) = a, or None when a is not in the image.

    a must be homogeneous in the anonymous Stiefel-Whitney generators.
    """
    for m in a.terms:
        for g, _ in m:
            if g[0] != "w" or g[1] != "":
                raise ValueError("sq1_preimage expects anonymous w-generators only")
    if not a.is_homogeneous():
        raise ValueError("sq1_preimage expects a homogeneous polynomial")
    if a.is_zero():
        return GF2Poly.zero()
    image: set = set()
    for m in _to_xy(a):
        hm = _xy_contract(m)
        if hm is not None:
            image ^= {hm}
    b = _from_xy(image)
    return b if sq1(b) == a else None


# ---------------------------------------------------------------------------
# inverse total class


def inverse_total(a: GF2Poly, max_degree: int) -> GF2Poly:
    """Multiplicative inverse of a total class (constant term 1) up to degree.

    a is split into its homogeneous parts once, and the degree-d part of the
    inverse is the sum of a_e * inv_{d-e} over e > 0, whose terms all have
    degree d <= bound.
    """
    graded = a.graded()
    if graded.get(0) != GF2Poly.one():
        raise ValueError("inverse_total needs constant term 1")
    bound = _bound_min(max_degree, a.max_degree)
    a_parts = [(e, part.terms) for e, part in graded.items() if 0 < e <= bound]
    parts = [{ONE_MONO}] if bound >= 0 else []
    for d in range(1, bound + 1):
        acc: set = set()
        for e, xs in a_parts:
            if e > d:
                break
            add_product(acc, xs, parts[d - e])
        parts.append(acc)
    return GF2Poly(frozenset().union(*parts), bound)
