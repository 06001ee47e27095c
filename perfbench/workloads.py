"""Seeded input generators for the three workloads.

A workload is a stream of passes. Every pass has the same composition (op
counts by kind and size are fixed), so its cost barely depends on the seed;
the seed picks the parameter values and the order. Parameter values are
drawn without replacement from run-wide pools, so inputs repeat only where
a pool is small on purpose. calc's inputs never repeat: its stream ends
(next_pass returns []) before they would. The first op of every pass is of
a fixed kind, and pass 0's first op is the one the set-up measurement runs.

Each op carries `keys`, the inputs a result cache could be keyed on, from
which inputs.repeat_share is computed, and `expect`, what the generator
knows about the answer; the program never sees `expect`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from singcalc import gf2, integral

import oracles

WORKLOADS = ("calc", "verify", "germ-scan")


@dataclass
class Op:
    kind: str
    args: tuple
    size: str
    keys: tuple
    expect: dict = field(default_factory=dict)


class Exhausted(Exception):
    """A pool that must not repeat has no values left."""


class Pool:
    """Draws without replacement from a finite set. When the set is used up
    it reshuffles, or raises Exhausted if `repeat` is false."""

    def __init__(self, rng: random.Random, items, repeat: bool = True):
        self.rng = rng
        self.items = list(items)
        self.repeat = repeat
        self.left: list = []
        self.drawn = 0

    def draw(self):
        if not self.left:
            if self.drawn and not self.repeat:
                raise Exhausted(f"all {len(self.items)} values drawn")
            self.left = self.items[:]
            self.rng.shuffle(self.left)
        self.drawn += 1
        return self.left.pop()


class Fresh:
    """Draws values whose `key` was never drawn before in the run, from a
    space (`make` draws one at random) far larger than any run uses."""

    def __init__(self, make, key=lambda value: value):
        self.make = make
        self.key = key
        self.seen: set = set()

    def draw(self):
        value = self.make()
        while self.key(value) in self.seen:
            value = self.make()
        self.seen.add(self.key(value))
        return value


def _frac(rng: random.Random, top: int = 6, den: int = 4) -> Fraction:
    return Fraction(rng.randint(-top, top), rng.randint(1, den))


def _sigma_coords(rng: random.Random, n: int, k: int) -> tuple:
    """A random point on the singular locus x_{2i-1} = -2 z x_{2i}, y = -3 z^2."""
    z = _frac(rng)
    xs = []
    for _ in range(k):
        xe = _frac(rng)
        xs += [-2 * z * xe, xe]
    return tuple(xs + [-3 * z * z, z] + [_frac(rng) for _ in range(n - 2 * k - 2)])


def _random_coords(rng: random.Random, n: int) -> tuple:
    return tuple(_frac(rng) for _ in range(n))


# bundle expressions for total_sw ------------------------------------------------
# A tree is ("named", name, rank) | ("eps", rank) | ("line", tag)
#         | ("sum", a, b) | ("diff", a, b) | ("tensor", tag, inner).

def _text(tree) -> str:
    kind = tree[0]
    if kind == "named":
        return tree[1]
    if kind == "eps":
        return f"eps({tree[1]})"
    if kind == "line":
        return f"line({tree[1]})"
    if kind == "tensor":
        return f"tensor({tree[1]}, {_text(tree[2])})"
    op = " + " if kind == "sum" else " - "
    right = _text(tree[2])
    if tree[2][0] in ("sum", "diff"):
        right = f"({right})"
    return _text(tree[1]) + op + right


def _bundle_query(rng: random.Random):
    tm = rng.randint(1, 8)
    nu = tm + rng.randint(0, 5)
    f = tm + rng.randint(0, 5)
    named = lambda name, rank: ("named", name, rank)
    tag = lambda: rng.choice("tuv")
    choice = rng.randrange(5)
    # `inverted`: the bundle whose total class total_sw inverts, if any
    if choice == 0:
        tree, inverted = ("sum", named("nu_f", nu), named("TM", tm)), None
    elif choice == 1:
        tree, inverted = ("diff", named("F", f), named("TM", tm)), named("TM", tm)
    elif choice == 2:
        t = tag()
        tree = ("tensor", t, ("diff", named("nu_f", nu), named("TM", tm)))
        inverted = ("tensor", t, named("TM", tm))
    elif choice == 3:
        inverted = ("eps", rng.randint(1, 2))
        tree = ("diff", ("sum", named("nu_f", nu), ("line", tag())), inverted)
    else:
        tree = ("sum", ("diff", ("tensor", tag(), named("F", f)), named("TM", tm)),
                ("line", tag()))
        inverted = named("TM", tm)
    ranks = (("nu_f", nu), ("TM", tm), ("F", f))
    d = rng.randint(6, 12)
    regime = rng.choice(("none", "prim", "twisted", "nu1"))
    k = rng.randint(1, d - 2)
    return tree, ranks, d, regime, k, inverted


# steenrod inputs ------------------------------------------------------------------

def _sparse_poly_json(rng: random.Random, max_deg: int = 16) -> list:
    terms = []
    for _ in range(rng.randint(1, 4)):
        factors: dict = {}
        deg = 0
        for _ in range(rng.randint(1, 3)):
            i = rng.randint(1, 8)
            if deg + i > max_deg:
                break
            factors[i] = factors.get(i, 0) + 1
            deg += i
        terms.append([[f"w{i}", e] for i, e in sorted(factors.items())])
    return terms


def _partition(rng: random.Random, total: int) -> list:
    parts = []
    while total:
        part = rng.randint(1, min(total, 8))
        parts.append(part)
        total -= part
    return sorted(parts)


def _homogeneous_json(rng: random.Random, degree: int) -> list:
    return [[[f"w{i}", parts.count(i)] for i in sorted(set(parts))]
            for parts in (_partition(rng, degree) for _ in range(rng.randint(1, 3)))]


class Generator:
    """Pass-by-pass input stream of one workload for one seed."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        rng = self.rng
        if workload == "calc":
            # the cost of gtp, morin_tp and morin_tp_integral does not depend
            # on l or k, so these never repeat; tm_total(n, d) has 165 inputs
            self.gtp_l = {r: Fresh(lambda: rng.randrange(100_000)) for r in range(4, 9)}
            self.morin = Fresh(lambda: (rng.randint(1, 8), rng.randrange(100_000)))
            self.morin_int = Fresh(lambda: (rng.choice((2, 4, 6, 8)), 2 * rng.randrange(50_000) + 1))
            # total_sw(tree, d) is what a cache would key on
            self.bundle = Fresh(lambda: _bundle_query(rng), key=lambda q: (q[0], q[2]))
            self.tm = Pool(rng, [(n, d) for d in range(10, 21) for n in range(1, d + 1)], repeat=False)
        elif workload == "verify":
            self.push = Pool(rng, [(n, k, r) for n in range(1, 9) for k in range(6) for r in range(6)])
            self.cusp = Pool(rng, range(1, 13))
            self.prim = Pool(rng, [(r, k) for r in range(1, 7) for k in range(r - 1, 13)])
            self.twisted = Pool(rng, range(1, 16, 2))
            self.morin = Pool(rng, [(r, k) for r in range(1, 7) for k in range(1, 9)])
            self.reduction = Pool(rng, [(r, k) for r in (2, 4) for k in range(1, 10, 2)
                                        if r * (k + 1) <= 20])
        else:
            values = sorted({Fraction(p, q) for p in range(-4, 5) for q in (1, 2, 3) if p})
            self.grid_values = Pool(rng, values)

    def next_pass(self) -> list:
        """The next pass, or [] once calc's inputs would start to repeat."""
        build = {"calc": self._calc, "verify": self._verify, "germ-scan": self._germ_scan}
        try:
            lead, rest = build[self.workload]()
        except Exhausted:
            return []
        self.rng.shuffle(rest)
        return [lead] + rest

    # calc: distinct calculator queries ----------------------------------------

    def _gtp(self, r: int, kind: str = "gtp") -> Op:
        l = self.gtp_l[r].draw()
        keys = (("thom.gtp", r, l),) + ((("gf2.sq1", r, l),) if kind == "sq1_gtp" else ())
        return Op(kind, (r, l), f"r={r}", keys)

    def _calc(self):
        # gtp dominates by time (r=8 alone is about a third of a pass); the
        # sq1_gtp queries put sq1 of large classes near p90
        ops = []
        for r, count in ((4, 19), (5, 36), (6, 20), (7, 3), (8, 1)):
            ops += [self._gtp(r) for _ in range(count)]
        for r in (4, 5, 6):
            ops += [self._gtp(r, "sq1_gtp") for _ in range(4)]
        for _ in range(12):
            r, k = self.morin.draw()
            ops.append(Op("morin_tp", (r, k), f"r={r}", (("thom.morin_tp", r, k),)))
            r, k = self.morin_int.draw()
            ops.append(Op("morin_tp_integral", (r, k), f"r={r}",
                          (("thom.morin_tp_integral", r, k),)))
            tree, ranks, d, regime, k, inverted = self.bundle.draw()
            # the inverses inside differences are the only sub-inputs that repeat
            keys = (("bundles.total_sw", tree, d),) + (
                (("gf2.inverse_total", inverted, d),) if inverted else ())
            ops.append(Op("total_sw", (_text(tree), ranks, d, regime, k), f"d={d}",
                          keys, {"tree": tree}))
        for _ in range(2):  # 165 distinct (n, d) last 82 passes
            n, d = self.tm.draw()
            ops.append(Op("inverse_total", (n, d), f"d={d}", (("gf2.inverse_total", n, d),)))
        return self._gtp(4), ops

    # verify: identity checks over seeded parameters ---------------------------

    def _thom(self, name: str, args: tuple) -> Op:
        return Op("thom_verify", (name, args), name, ((f"thom.{name}",) + args,))

    def _verify(self):
        # the counts give each family about its share of the time of the
        # matching `tpcalc suite` sections (measured shares in the README)
        rng = self.rng
        ops = []
        # more (4,1) than (6,2), so that Jacobians fill the top decile
        for n, k, count in ((4, 1, 13), (6, 2, 4)):
            for _ in range(count):
                coords, t = _random_coords(rng, n), _frac(rng)
                ops.append(Op("jacobian", (n, k, coords, t), f"({n},{k})",
                              (("germs.jacobian_tilde_f", n, k, coords, t),)))
        for _ in range(40):
            pairs_json = [(_sparse_poly_json(rng), _sparse_poly_json(rng)) for _ in range(8)]
            pairs = tuple((gf2.poly_from_json(p), gf2.poly_from_json(q)) for p, q in pairs_json)
            ops.append(Op("steenrod", (pairs,), "pairs=8", (("gf2.sq1", repr(pairs_json)),),
                          {"pairs": pairs_json}))
        for _ in range(58):
            n, k, r = self.push.draw()
            d = k + r + 1
            ops.append(Op("pushforward", (n, k, r), f"n={n}",
                          (("gysin.verify_pushforward", n, k, r),
                           ("gf2.inverse_total", n, d), ("gf2.inverse_total", n, d))))
        # in the suite's proportions by count (cusp 8, prim 39, twisted 4,
        # morin 36); the pass's lead op is a second cusp
        ops.append(self._thom("verify_cusp_coincidence", (self.cusp.draw(),)))
        ops += [self._thom("verify_prim_coincidence", self.prim.draw()) for _ in range(8)]
        ops.append(self._thom("verify_twisted_coincidence", (self.twisted.draw(),)))
        ops += [self._thom("verify_morin_derivation", self.morin.draw()) for _ in range(8)]
        for i in range(4):
            # half the torsion classes are sq1-images by construction, half random
            degree = rng.randint(6, 16)
            terms = _homogeneous_json(rng, degree)
            if i % 2 == 0:
                terms = oracles.sq1_json(_homogeneous_json(rng, degree - 1)) or terms
            cls = integral.IntegralClass.from_torsion(gf2.poly_from_json(terms))
            ops.append(Op("torsion", (cls,), f"deg={degree}", (("integral.torsion", repr(terms)),),
                          {"terms": terms}))
            r, k = self.reduction.draw()
            ops.append(Op("integral_reduction", (r, k), f"r={r}",
                          (("thom.morin_tp_integral", r, k),)))
        for n, k in ((4, 1), (6, 2), (8, 3)):
            for _ in range(4):
                points = tuple(_sigma_coords(rng, n, k) for _ in range(4))
                ops.append(Op("sigma", (n, k, points), f"({n},{k})x4",
                              tuple(("germs.sigma_closed", n, k, c) for c in points)))
        return self._thom("verify_cusp_coincidence", (self.cusp.draw(),)), ops

    # germ-scan: exact rank decisions over rational points ---------------------

    def _corank(self, n: int, k: int, singular: bool) -> Op:
        rng = self.rng
        coords = _sigma_coords(rng, n, k) if singular else _random_coords(rng, n)
        t = _frac(rng)
        return Op("corank", (n, k, coords, t), f"({n},{k})", (("germs.corank", n, k, coords, t),))

    def _germ_scan(self):
        rng = self.rng
        ops = []
        for _ in range(2):
            grid = tuple(sorted({Fraction(0), self.grid_values.draw(), self.grid_values.draw()}))
            t_values = (self.grid_values.draw(), self.grid_values.draw())
            ops.append(Op("stratify", (grid, t_values), f"grid={len(grid)}^4,t={len(t_values)}",
                          (("germs.stratify_grid", grid, t_values),)))
        for n, k in ((4, 1), (5, 1), (6, 2), (8, 3)):
            count = 20 if (n, k) == (4, 1) else 21
            ops += [self._corank(n, k, singular=i % 2 == 1) for i in range(count)]
        for _ in range(16):
            coords = (Fraction(0),) * 4 + (_frac(rng, 99, 20),)
            ops.append(Op("transversality", (5, 1, coords), "(5,1)",
                          (("germs.transversality_check", 5, 1, coords),)))
        return self._corank(4, 1, singular=False), ops
