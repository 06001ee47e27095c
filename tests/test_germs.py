"""Cusp normal form, its characteristic perturbation direction, and the
exact-rational Jacobian and transversality checks."""

import random
from fractions import Fraction
from itertools import product

import pytest

from singcalc import germs
from singcalc.germs import (GermPoint, JetReport, corank, jacobian_f, jacobian_tilde_f,
                            normal_form_f, on_cusp_locus, on_sigma,
                            sigma_closed, sigma_oracle, stratify_grid,
                            tilde_f, transversality_check)
from singcalc.jets import hessian_ad, jacobian_ad
from singcalc.linalg import bareiss_rank
from singcalc.germs import _tilde_f_coords


def test_point_validation():
    with pytest.raises(ValueError):
        GermPoint.make(3, 1, [0, 0, 0])  # n < 2k+2
    with pytest.raises(ValueError):
        GermPoint.make(4, 1, [0, 0, 0])  # wrong length
    with pytest.raises(ValueError):
        GermPoint.make(4, 0, [0, 0, 0, 0])  # k < 1
    p = GermPoint.make(4, 1, ["1/2", -1, "2/3", 0])
    assert p.x == (Fraction(1, 2), Fraction(-1))
    assert p.y == Fraction(2, 3)
    assert p.z == Fraction(0)
    assert p.s == ()


REF = GermPoint.make(4, 1, [-2, 1, -3, 1])


def test_int_built_point_is_exact():
    # built directly with ints, the point holds Fractions as make's does, so
    # no int / int division rounds through a float
    made = GermPoint.make(4, 1, [1, 2, 0, 1], t=3)
    direct = GermPoint((1, 2), 0, 1, (), 3)
    assert direct == made
    assert all(type(c) is Fraction for c in direct.coords() + [direct.t])
    assert sigma_closed(4, 1, direct) == sigma_closed(4, 1, made)
    assert sigma_closed(4, 1, direct)[0] == Fraction(-4, 3)
    assert tilde_f(4, 1, direct) == tilde_f(4, 1, made)
    assert jacobian_tilde_f(4, 1, direct) == jacobian_tilde_f(4, 1, made)


def test_reference_point_values():
    # frozen values at a point on the kernel-line locus
    assert on_sigma(4, 1, REF)
    assert not on_cusp_locus(4, 1, REF)
    assert normal_form_f(4, 1, REF) == tuple(
        Fraction(v) for v in (-2, 1, -3, -1, -2))
    assert sigma_closed(4, 1, REF) == (
        Fraction(-2, 3), Fraction(-2, 3), Fraction(-3),
        Fraction(2, 3), Fraction(3))
    pt = GermPoint.make(4, 1, [-2, 1, -3, 1], t=1)
    assert tilde_f(4, 1, pt) == (
        Fraction(-8, 3), Fraction(1, 3), Fraction(-6),
        Fraction(-1, 3), Fraction(1))


def _rfrac(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def _random_sigma_point(rng, n, k):
    # choose free coordinates, then solve the locus equations for the rest
    z = _rfrac(rng)
    coords = []
    for _ in range(k):
        xe = _rfrac(rng)
        coords.extend([-2 * z * xe, xe])
    coords.append(-3 * z * z)
    coords.append(z)
    coords.extend(_rfrac(rng) for _ in range(n - 2 * k - 2))
    return GermPoint.make(n, k, coords)


@pytest.mark.parametrize("n,k", [(4, 1), (5, 1), (6, 2), (8, 3)])
def test_sigma_closed_matches_gram_schmidt_oracle(n, k):
    rng = random.Random(100 * n + k)
    for _ in range(30):
        p = _random_sigma_point(rng, n, k)
        assert sigma_closed(n, k, p) == sigma_oracle(n, k, p)


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _dense_sigma_oracle(n, k, p):
    """The Gram-Schmidt oracle on dense Fraction vectors of length n+k, as
    sigma_oracle was before it went sparse and fraction-free."""
    dim = n + k
    z = p.z

    def vec(entries):
        v = [Fraction(0)] * dim
        for idx, val in entries.items():
            v[idx] = Fraction(val)
        return v

    def X(j):
        return j - 1

    def Y(i):
        return 2 * k + 1 + i - 1

    Z = 2 * k + 1 + k

    us = [vec({X(2 * i - 1): 1, Y(i): z}) for i in range(1, k + 1)]
    us.append(vec({X(2 * k + 1): 1, Z: z}))
    vs = [vec({X(2 * i): 1, Y(i): z * z}) for i in range(1, k + 1)]
    d2 = vec({Y(i): 2 * p.x[2 * i - 1] for i in range(1, k + 1)})
    d2[Z] = 6 * z

    vts = []
    for u, v in zip(us, vs):
        c = _dot(u, v) / _dot(u, u)
        vts.append([b - c * a for a, b in zip(u, v)])
    sigma = d2
    for u in us + vts:
        c = _dot(u, sigma) / _dot(u, u)
        sigma = [b - c * a for a, b in zip(u, sigma)]
    return tuple(sigma)


@pytest.mark.parametrize("n,k,count", [(4, 1, 40), (5, 1, 40), (6, 2, 30), (8, 3, 30),
                                       (12, 5, 20), (64, 30, 1)])
def test_sigma_oracle_matches_the_dense_reference(n, k, count):
    rng = random.Random(1000 * n + k)
    for _ in range(count):
        p = _random_sigma_point(rng, n, k)
        got = sigma_oracle(n, k, p)
        assert got == _dense_sigma_oracle(n, k, p)
        assert all(type(c) is Fraction for c in got)


class _Work:
    products = 0


class _CountingInt(int):
    """An int that counts the products it takes part in; sums, differences
    and products with it stay counting ints."""

    def __mul__(self, other):
        _Work.products += 1
        return _CountingInt(int(self) * int(other))

    __rmul__ = __mul__

    def __add__(self, other):
        return _CountingInt(int(self) + int(other))

    __radd__ = __add__

    def __sub__(self, other):
        return _CountingInt(int(self) - int(other))

    def __rsub__(self, other):
        return _CountingInt(int(other) - int(self))


class _CountingFraction(Fraction):
    """A Fraction that counts its products and hands out its numerator and
    denominator as counting ints."""

    def __mul__(self, other):
        _Work.products += 1
        return Fraction.__mul__(self, other)

    def __rmul__(self, other):
        _Work.products += 1
        return Fraction.__rmul__(self, other)

    @property
    def numerator(self):
        return _CountingInt(self._numerator)

    @property
    def denominator(self):
        return _CountingInt(self._denominator)


def test_sigma_oracle_work_does_not_grow_with_the_s_block(monkeypatch):
    # with germs.Fraction patched the point holds counting Fractions, so every
    # product the oracle forms from its coordinates is counted; building the
    # n+k output Fractions forms none
    work = {}
    for n in (4, 40, 400):
        coords = [Fraction(-2, 3), Fraction(2, 3), Fraction(-3, 4), Fraction(1, 2)]
        coords += [Fraction(5, 7)] * (n - 4)
        with monkeypatch.context() as m:
            m.setattr(germs, "Fraction", _CountingFraction)
            p = GermPoint.make(n, 1, coords)
            _Work.products = 0
            got = sigma_oracle(n, 1, p)
            work[n] = _Work.products
        assert got == sigma_closed(n, 1, p)
    assert work[4] > 0
    assert work[4] == work[40] == work[400]


def test_sigma_oracle_rejects_off_locus():
    p = GermPoint.make(4, 1, [1, 1, 1, 1])
    assert not on_sigma(4, 1, p)
    with pytest.raises(ValueError):
        sigma_oracle(4, 1, p)


def test_sigma_vanishing_is_cusp_locus():
    # within the locus, sigma = 0 exactly on x = y = z = 0
    vals = [Fraction(v) for v in (-2, -1, 0, 1, 2)]
    rng = random.Random(7)
    for _ in range(200):
        z = rng.choice(vals)
        xe = rng.choice(vals)
        x2 = rng.choice(vals)
        p = GermPoint.make(6, 2, [-2 * z * xe, xe, -2 * z * x2, x2,
                                  -3 * z * z, z])
        sig = sigma_closed(6, 2, p)
        vanishes = all(c == 0 for c in sig)
        assert vanishes == on_cusp_locus(6, 2, p)


def test_tilde_f_is_f_plus_t_sigma():
    rng = random.Random(9)
    for n, k in [(4, 1), (6, 2)]:
        for _ in range(20):
            p = _random_sigma_point(rng, n, k)
            t = _rfrac(rng)
            pt = GermPoint.make(n, k, p.coords(), t=t)
            f = normal_form_f(n, k, p)
            sig = sigma_closed(n, k, p)
            assert tilde_f(n, k, pt) == tuple(
                a + t * b for a, b in zip(f, sig))


def test_jacobian_hand_matches_ad():
    rng = random.Random(13)
    for n, k in [(4, 1), (6, 2)]:
        for _ in range(15):
            coords = [_rfrac(rng) for _ in range(n)]
            t = _rfrac(rng)
            p = GermPoint.make(n, k, coords, t=t)
            hand = jacobian_tilde_f(n, k, p)
            ad = jacobian_ad(lambda v: _tilde_f_coords(n, k, v),
                             coords + [t])
            assert hand == ad


def _fraction_jacobian_tilde_f(n, k, p, t=None):
    """d tilde_f from the hand-differentiated entries in Fraction
    arithmetic, as jacobian_tilde_f was before it went to integer
    numerators."""
    if t is None:
        t = p.t
    t = Fraction(t)
    z = p.z
    y = p.y
    ncols = n + 1
    col_y, col_z, col_t = 2 * k, 2 * k + 1, n
    zero, one = Fraction(0), Fraction(1)

    z2 = z * z
    z4 = z2 * z2
    q1 = one + z2
    q2 = one + z2 + z4
    q2sq = q2 * q2
    odd_e = -2 * t * z / q2
    odd_z = -2 * t * (1 - z2 - 3 * z4) / q2sq
    odd_t = -2 * z / q2
    even_e = 1 - 2 * t * z2 / q2
    even_z = -4 * t * z * (1 - z4) / q2sq
    even_t = -2 * z2 / q2
    y_e = z2 + 2 * t / q2
    y_z = 2 * z - 2 * t * (2 * z + 4 * z * z2) / q2sq
    y_t = 2 / q2

    def row(entries):
        r = [zero] * ncols
        for idx, val in entries.items():
            r[idx] = Fraction(val)
        return r

    rows = []
    for i in range(1, k + 1):
        co, ce = 2 * i - 2, 2 * i - 1
        xe = p.x[ce]
        rows.append(row({co: one, ce: odd_e, col_z: odd_z * xe, col_t: odd_t * xe}))
        rows.append(row({ce: even_e, col_z: even_z * xe, col_t: even_t * xe}))
    rows.append(row({col_y: one, col_z: -12 * t * z / (q1 * q1),
                     col_t: -6 * z2 / q1}))
    for i in range(1, k + 1):
        co, ce = 2 * i - 2, 2 * i - 1
        xo, xe = p.x[co], p.x[ce]
        rows.append(row({co: z, ce: y_e, col_z: xo + y_z * xe, col_t: y_t * xe}))
    rows.append(row({col_y: z, col_z: y + 3 * z2 + 6 * t * (1 - z2) / (q1 * q1),
                     col_t: 6 * z / q1}))
    for i in range(n - 2 * k - 2):
        rows.append(row({2 * k + 2 + i: one}))
    return rows


def _assert_same_matrix(got, ref):
    assert got == ref
    assert all(type(v) is Fraction for row in got for v in row)


def _special_points(rng, n, k):
    # z = 0, x = 0, t = 0 and a negative z over a denominator > 1, each with
    # the other coordinates random
    base = [_rfrac(rng) for _ in range(n)]
    zero_x = [Fraction(0)] * (2 * k) + base[2 * k:]
    zero_z = base[:2 * k + 1] + [Fraction(0)] + base[2 * k + 2:]
    neg_z = base[:2 * k + 1] + [Fraction(-5, 3)] + base[2 * k + 2:]
    return [(zero_z, _rfrac(rng)), (zero_x, _rfrac(rng)), (base, Fraction(0)),
            (neg_z, Fraction(7, 4)), ([Fraction(0)] * n, Fraction(0))]


@pytest.mark.parametrize("n,k", [(4, 1), (5, 1), (6, 2), (8, 3), (10, 4)])
def test_jacobian_matches_the_fraction_reference(n, k):
    rng = random.Random(17 * n + k)
    cases = [([_rfrac(rng) for _ in range(n)], _rfrac(rng)) for _ in range(40)]
    cases += _special_points(rng, n, k)
    assert any(c[2 * k + 1] < 0 and c[2 * k + 1].denominator > 1 for c, _ in cases)
    for coords, t in cases:
        p = GermPoint.make(n, k, coords, t=t)
        _assert_same_matrix(jacobian_tilde_f(n, k, p), _fraction_jacobian_tilde_f(n, k, p))
        # t passed as an argument overrides the point's
        other = t + Fraction(1, 3)
        _assert_same_matrix(jacobian_tilde_f(n, k, p, t=other),
                            _fraction_jacobian_tilde_f(n, k, p, t=other))
        # and jacobian_f is the t = 0 family without its t-column
        assert jacobian_f(n, k, p) == [row[:-1] for row in
                                      _fraction_jacobian_tilde_f(n, k, p, t=0)]


@pytest.mark.parametrize("n,k", [(4, 1), (8, 3)])
def test_jacobian_of_int_points_matches_the_fraction_reference(n, k):
    rng = random.Random(31 * n + k)
    for _ in range(10):
        coords = [rng.randint(-4, 4) for _ in range(n)]
        t = rng.randint(-3, 3)
        direct = GermPoint(tuple(coords[:2 * k]), coords[2 * k], coords[2 * k + 1],
                           tuple(coords[2 * k + 2:]), t)
        ref = _fraction_jacobian_tilde_f(n, k, direct)
        _assert_same_matrix(jacobian_tilde_f(n, k, direct), ref)
        # an int t as the argument, with the point's t left unset
        made = GermPoint.make(n, k, coords)
        _assert_same_matrix(jacobian_tilde_f(n, k, made, t=t), ref)
        _assert_same_matrix(jacobian_tilde_f(n, k, made, t=0),
                            _fraction_jacobian_tilde_f(n, k, made, t=0))


FRACTION_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                       "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
                       "__mod__", "__rmod__", "__divmod__", "__rdivmod__", "__pow__",
                       "__rpow__", "__neg__", "__pos__", "__abs__")


def test_jacobian_does_no_fraction_arithmetic(monkeypatch):
    # every entry is one Fraction(num, den) built from integer numerators and
    # denominators; no Fraction operator runs, forward or reflected
    points = [(8, 3, GermPoint.make(8, 3, [Fraction(-1, 2), 3, 0, Fraction(5, 4), -2,
                                           Fraction(2, 3), Fraction(-3, 5), 1])),
              (4, 1, GermPoint.make(4, 1, [Fraction(1, 4), Fraction(-1, 2),
                                           Fraction(1, 8), Fraction(3, 4)]))]
    t = Fraction(-7, 3)
    calls = []

    def spy(name):
        real = getattr(Fraction, name)
        return lambda *args: calls.append(name) or real(*args)

    for name in FRACTION_ARITHMETIC:
        monkeypatch.setattr(Fraction, name, spy(name))
    for n, k, p in points:
        jacobian_tilde_f(n, k, p, t=t)
    assert calls == []
    _fraction_jacobian_tilde_f(4, 1, points[1][2], t=t)
    assert calls, "the spy sees the Fraction reference's arithmetic"


def test_jacobian_t_column_is_sigma():
    # the perturbation column equals the characteristic direction when the
    # point sits on the locus
    rng = random.Random(14)
    for n, k in [(4, 1), (6, 2)]:
        for _ in range(10):
            p = _random_sigma_point(rng, n, k)
            t = _rfrac(rng)
            pt = GermPoint.make(n, k, p.coords(), t=t)
            hand = jacobian_tilde_f(n, k, pt)
            sig = sigma_closed(n, k, p)
            assert tuple(row[n] for row in hand) == sig


def test_jacobian_f_drops_t_column():
    p = GermPoint.make(4, 1, [-2, 1, -3, 1])
    pt = GermPoint.make(4, 1, [-2, 1, -3, 1], t=0)
    full = jacobian_tilde_f(4, 1, pt)
    assert jacobian_f(4, 1, p) == [row[:4] for row in full]


def test_corank_two_exactly_at_origin_with_t_zero():
    for n, k in [(4, 1), (5, 1), (6, 2)]:
        pt = GermPoint.make(n, k, [0] * n, t=0)
        rep = corank(jacobian_tilde_f(n, k, pt))
        assert rep.corank == 2
        assert rep.rank == n - 1
        # kernel concentrates on the z and t columns
        cols = set()
        for v in rep.kernel_basis:
            cols |= {i for i, c in enumerate(v) if c != 0}
        assert cols == {2 * k + 1, n}


def test_corank_drops_to_one_when_t_moves():
    for t in (Fraction(1, 2), Fraction(-1), Fraction(3)):
        pt = GermPoint.make(4, 1, [0, 0, 0, 0], t=t)
        rep = corank(jacobian_tilde_f(4, 1, pt))
        assert rep.corank == 1
        assert rep.rank == 4


def test_unperturbed_jacobian_never_reaches_corank_two():
    # without the t column the corank stays 1 even on the cusp locus
    p0 = GermPoint.make(4, 1, [0, 0, 0, 0])
    assert corank(jacobian_f(4, 1, p0)).corank == 1
    assert corank(jacobian_f(4, 1, REF)).corank == 1


def test_stratify_grid_matches_closed_form():
    rep = stratify_grid(4, 1, [Fraction(-1), Fraction(0), Fraction(1)])
    assert rep.status == "pass"
    sing = rep.artifacts["singular_points"]
    assert len(sing) == 3
    # singular exactly where x1 = z = 0 and y = 0; x2 free on the grid
    assert rep.artifacts["corank2_points"] == []


def test_stratify_grid_rejects_empty_grid():
    with pytest.raises(ValueError, match="empty grid"):
        stratify_grid(4, 1, [])


def test_stratify_grid_refuses_repeated_values(monkeypatch):
    # the grid values are compared as Fractions, so 0 and "0/2" repeat; the
    # refusal comes before any Jacobian is built
    def no_scan(*args, **kwargs):
        raise AssertionError("the scan must not start")

    monkeypatch.setattr(germs, "jacobian_f", no_scan)
    monkeypatch.setattr(germs, "jacobian_tilde_f", no_scan)
    for grid, value in (([0, 0, 1], "0"), ([0, "0/2", 1], "0"),
                        ([Fraction(1, 2), -1, "2/4"], "1/2")):
        with pytest.raises(ValueError, match=f"grid value {value} is repeated"):
            stratify_grid(4, 1, grid, t_values=[0])


def test_stratify_grid_keeps_repeated_t_values():
    # a repeated t is scanned again: its profile entry is the same and its
    # corank-2 points are listed once per occurrence
    once = stratify_grid(4, 1, [-1, 0, 1], t_values=[0])
    twice = stratify_grid(4, 1, [-1, 0, 1], t_values=[0, "0/3"])
    assert twice.artifacts["family_corank_profile"] == once.artifacts["family_corank_profile"]
    assert twice.artifacts["family_corank2_points"] == 2 * once.artifacts["family_corank2_points"]


def test_stratify_grid_family_profile():
    rep = stratify_grid(4, 1, [Fraction(-1), Fraction(0), Fraction(1)],
                        t_values=[Fraction(0), Fraction(1)])
    prof = rep.artifacts["family_corank_profile"]
    assert prof == {"0": {"0": 56, "1": 24, "2": 1},
                    "1": {"0": 66, "1": 15}}
    c2 = rep.artifacts["family_corank2_points"]
    assert c2 == [["0", "0", "0", "0", "0"]]  # t first, then coordinates


@pytest.mark.parametrize("n,k,grid,t_values", [
    (4, 1, [Fraction(-1), Fraction(0), Fraction(1, 2)],
     [Fraction(0), Fraction(1), Fraction(-1, 3)]),
    (6, 2, [Fraction(0), Fraction(-2, 3)], [Fraction(0), Fraction(3)]),
])
def test_stratify_grid_report_equals_full_corank_at_every_point(n, k, grid, t_values):
    # the scan computes ranks only; rebuild its artifacts from full corank()
    # reports, whose rank is also read off the sizes of their bases
    def full(matrix):
        jr = corank(matrix)
        rows, cols = len(matrix), len(matrix[0])
        assert jr.rank == cols - len(jr.kernel_basis) == rows - len(jr.cokernel_basis)
        return jr.corank

    fmt = lambda coords: [str(c) for c in coords]
    singular, corank2, family_c2 = [], [], []
    for coords in product(grid, repeat=n):
        c = full(jacobian_f(n, k, GermPoint.make(n, k, coords)))
        if c >= 1:
            singular.append(fmt(coords))
        if c >= 2:
            corank2.append(fmt(coords))
    profile = {}
    for t in t_values:
        counts = profile.setdefault(str(t), {})
        for coords in product(grid, repeat=n):
            c = full(jacobian_tilde_f(n, k, GermPoint.make(n, k, coords), t=t))
            counts[str(c)] = counts.get(str(c), 0) + 1
            if c >= 2:
                family_c2.append([str(t)] + fmt(coords))
    rep = stratify_grid(n, k, grid, t_values)
    assert rep.status == "pass"
    assert rep.artifacts == {"singular_points": singular, "corank2_points": corank2,
                             "family_corank_profile": profile,
                             "family_corank2_points": family_c2}


@pytest.mark.parametrize("n,k", [(4, 1), (5, 1), (6, 2)])
def test_transversality_at_cusp_origin(n, k):
    pt = GermPoint.make(n, k, [0] * n, t=0)
    rep = transversality_check(n, k, pt)
    trans = rep.transversality
    assert trans["required_rank"] == 2 * (k + 1)
    assert trans["rank"] == trans["required_rank"]
    assert trans["surjective"] is True
    # the y/t pair alone misses the target; swapping in the z column fixes it
    assert trans["claimed_units_span"] is False
    assert trans["z_variant_units_span"] is True


def _dense_pairing(n, k, p, t, kerb, cokb):
    """a . (d_v J) b for every direction v, over every Hessian and kernel
    entry, zeros included."""
    hess = hessian_ad(lambda c: _tilde_f_coords(n, k, c), p.coords() + [Fraction(t)])
    m = n + 1

    def pair(a, v, b):
        return sum((a[row] * sum((hess[row][v][j] * b[j] for j in range(m)), Fraction(0))
                    for row in range(len(a))), Fraction(0))

    return [[pair(a, v, b) for a in cokb for b in kerb] for v in range(m)]


def _mix_cokernel(report):
    # an invertible recombination with no zero coefficient (Vandermonde rows
    # j^i): every new covector has the same support, so a pairing that reads
    # only where a covector is nonzero, not its entries, loses rank
    cokb = report.cokernel_basis
    mixed = [tuple(sum((Fraction(j + 1) ** i * a[q] for j, a in enumerate(cokb)),
                       Fraction(0)) for q in range(len(cokb[0])))
             for i in range(len(cokb))]
    return JetReport(report.rank, report.corank, report.kernel_basis, mixed)


@pytest.mark.parametrize("mixed", [False, True])
@pytest.mark.parametrize("n,k", [(4, 1), (5, 1), (6, 2)])
def test_transversality_pairing_matches_the_dense_reference(monkeypatch, n, k, mixed):
    coords = [0] * (2 * k + 2) + [Fraction(7, 2)] * (n - 2 * k - 2)
    pt = GermPoint.make(n, k, coords, t=0)
    plain = transversality_check(n, k, pt)
    if mixed:
        real_corank = germs.corank
        monkeypatch.setattr(germs, "corank", lambda jac: _mix_cokernel(real_corank(jac)))
    ranked = []

    def spy(matrix):
        ranked.append(matrix)
        return bareiss_rank(matrix)

    monkeypatch.setattr(germs, "bareiss_rank", spy)
    rep = transversality_check(n, k, pt)
    pairing = _dense_pairing(n, k, pt, 0, rep.kernel_basis, rep.cokernel_basis)
    assert ranked[0] == pairing
    # the fields that read the pairing come from the dense one, the unit-span
    # fields (which do not) from the report
    got = bareiss_rank(pairing)
    ref = JetReport(rep.rank, rep.corank, rep.kernel_basis, rep.cokernel_basis,
                    dict(rep.transversality, rank=got, surjective=got == 2 * (k + 1)))
    assert rep == ref
    # surjectivity does not depend on the cokernel basis
    assert rep.transversality == plain.transversality


def test_transversality_invariant_under_s_translation():
    base = transversality_check(5, 1, GermPoint.make(5, 1, [0] * 5, t=0))
    moved = transversality_check(
        5, 1, GermPoint.make(5, 1, [0, 0, 0, 0, Fraction(7, 2)], t=0))
    assert base.transversality == moved.transversality
    assert (base.rank, base.corank) == (moved.rank, moved.corank)


def test_transversality_requires_corank_two():
    pt = GermPoint.make(4, 1, [0, 0, 0, 0], t=1)
    with pytest.raises(ValueError):
        transversality_check(4, 1, pt)
