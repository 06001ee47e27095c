"""Determinantal and Morin classes, their verifiers, integral versions."""

from itertools import combinations, permutations
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singcalc.bundles import LineBundle, Named, Sum, TwistedPrim, apply_regime, total_sw
from singcalc.gf2 import (GF2Poly, gen_degree, gen_sort_key, linegen, mono, mono_degree, wgen,
                          wpoly)
from singcalc.integral import IntPoly, v_class
from singcalc.reports import FAIL, PASS, SKIPPED
from singcalc.thom import (default_degree, gtp, gtp_matrix, morin_tp,
                           morin_tp_integral, sigma2_integral,
                           verify_cusp_coincidence, verify_gtp_convention,
                           verify_morin_derivation, verify_prim_coincidence,
                           verify_twisted_coincidence)
import singcalc.thom as thom


def _permanent(r, l, d=None):
    # independent expansion: sum over permutations of single-class entries
    acc = GF2Poly.zero(d)
    for perm in permutations(range(1, r + 1)):
        term = GF2Poly.one(d)
        for i, j in enumerate(perm, start=1):
            idx = l + r + j - i
            term = term * (wpoly(idx, "", d) if idx >= 0 else GF2Poly.zero(d))
        acc = acc + term
    return acc


def _laplace(mat, d):
    # the plain-GF2Poly Laplace expansion along the rows, memoized on the
    # surviving column set
    r = len(mat)
    memo = {0: GF2Poly.one(d)}

    def minor(cols):
        if cols not in memo:
            i = r - bin(cols).count("1")
            acc = GF2Poly.zero(d)
            for j in range(r):
                if cols >> j & 1 and not mat[i][j].is_zero():
                    acc = acc + mat[i][j] * minor(cols & ~(1 << j))
            memo[cols] = acc
        return memo[cols]

    return minor((1 << r) - 1)


class _Packing:
    # a monomial as one int (packed exponent vectors, Monagan and Pearce, CASC
    # 2007): generator g owns a field of (bound // deg g).bit_length() bits,
    # in gen_sort_key order from the least significant end, and the total
    # degree sits in the unbounded top field. While every monomial formed has
    # degree <= bound no field overflows, so a product is one addition and
    # "degree <= d" is one compare.

    def __init__(self, gens, bound):
        self.fields, shift = [], 0  # (generator, shift, mask)
        for g in sorted(set(gens), key=gen_sort_key):
            width = max(1, (bound // gen_degree(g)).bit_length())
            self.fields.append((g, shift, (1 << width) - 1))
            shift += width
        self.top = shift
        self.unit = {g: (1 << s) + (gen_degree(g) << shift) for g, s, _ in self.fields}

    def pack(self, m):
        return sum(self.unit[g] * e for g, e in m)

    def unpack(self, x):
        return tuple([(g, e) for g, s, mask in self.fields if (e := x >> s & mask)])

    def limit(self, d):
        return max(d + 1, 0) << self.top


def _column_set_det(mat, max_degree):
    # the packed Laplace expansion along the rows, one bottom-up pass over
    # the column sets: level c forms the minor of every column set of size c
    # (on the bottom c rows) from level c-1; no symmetry is used, and the
    # monomials are the test's own packed ints, not gf2's tuples
    r = len(mat)
    distinct = dict.fromkeys(e for row in mat for e in row)
    degree = {e: max(map(mono_degree, e.terms), default=0) for e in distinct}
    top = sum(max(degree[e] for e in row) for row in mat)
    pk = _Packing((g for e in distinct for m in e.terms for g, _ in m), top)
    codes = {e: [pk.pack(m) for m in e.terms] for e in distinct}
    packed = [[codes[e] for e in row] for row in mat]
    bounds = [[inf if e.max_degree is None else e.max_degree for e in row] for row in mat]
    outer = inf if max_degree is None else max_degree
    states = {0: ({0}, outer)}
    for c in range(1, r + 1):
        row, row_bounds = packed[r - c], bounds[r - c]
        level = {}
        for js in combinations(range(r), c):
            cols = sum(1 << j for j in js)
            acc: set = set()
            bound = outer
            for j in js:
                if row[j]:
                    sub, sub_bound = states[cols ^ 1 << j]
                    bound = min(bound, sub_bound, row_bounds[j])
                    for x in row[j]:
                        acc.symmetric_difference_update(map(x.__add__, sub))
            if bound < top:
                limit = pk.limit(bound)
                acc = {x for x in acc if x < limit}
            level[cols] = (acc, bound)
        states = level
    terms, bound = states[(1 << r) - 1]
    return GF2Poly(frozenset(map(pk.unpack, terms)), None if bound == inf else bound)


def test_codim():
    assert default_degree(3) == 16


@pytest.mark.parametrize("r,l", [(1, 0), (1, 4), (2, 0), (2, 3), (3, 1), (3, 2), (4, 2),
                                 (5, 0), (5, 3), (6, 1)])
def test_gtp_matches_permanent(r, l):
    assert gtp(r, l) == _permanent(r, l)


@pytest.mark.parametrize("r,l", [(9, 0), (9, 99_999), (10, 0)])
def test_gtp_matches_the_column_set_expansion(r, l):
    # the largest coranks below the cost bound, against the expansion that
    # uses no symmetry
    got = gtp(r, l)
    want = _column_set_det(gtp_matrix(r, l), None)
    assert (got.terms, got.max_degree) == (want.terms, want.max_degree)


@pytest.mark.parametrize("r", range(1, 9))
@pytest.mark.parametrize("l", [0, 1, 3, 99_999])
def test_gtp_matches_plain_laplace(r, l):
    # l = 99 999: generators of a large index, each exponent at most r
    deg = r * (l + r)
    for d in (None, deg, deg - 1, 10):
        got = gtp(r, l, d)
        want = _laplace(gtp_matrix(r, l, d), d)
        assert got == want and got.max_degree == want.max_degree
        assert str(got) == str(want)


# mixed generators: two bundle families, line classes, exponents up to 3
_GENS = [wgen(1), wgen(2), wgen(3), wgen(1, "E"), wgen(2, "E"),
         linegen("t"), linegen("u")]
_monos = st.lists(st.tuples(st.sampled_from(_GENS), st.integers(1, 3)),
                  max_size=3).map(mono)
_bounds = st.one_of(st.none(), st.integers(-1, 12))


@st.composite
def _persymmetric_matrices(draw):
    # a symmetric h with every entry carrying the drawn bound; _det takes
    # h with its rows reversed, as gtp_matrix lays it out
    r = draw(st.integers(1, 5))
    d = draw(_bounds)
    entry = st.builds(GF2Poly.from_terms, st.lists(_monos, max_size=3), st.just(d))
    h = [[None] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            h[i][j] = h[j][i] = draw(entry)
    return h[::-1], d


@given(_persymmetric_matrices())
@settings(max_examples=200, deadline=None)
def test_det_matches_plain_laplace(case):
    mat, d = case
    got = thom._det(mat, d)
    want = _laplace(mat, d)
    assert got == want and got.max_degree == want.max_degree


def test_det_refuses_a_matrix_outside_its_contract():
    w = wpoly
    assert thom._det(gtp_matrix(2, 1, 6), 6) == w(3) ** 2 + w(2) * w(4)
    # reversed rows [[w2, w1], [w3, w4]] are not symmetric
    with pytest.raises(ValueError, match="persymmetric"):
        thom._det([[w(3), w(4)], [w(2), w(1)]], None)
    # one entry's bound differs from the determinant's
    with pytest.raises(ValueError, match="max_degree"):
        thom._det([[w(3, "", 5), w(4, "", 5)], [w(2, "", 6), w(3, "", 5)]], 5)
    with pytest.raises(ValueError, match="max_degree"):
        thom._det(gtp_matrix(2, 1), 5)


def test_gtp_reads_wpoly_at_call_time(monkeypatch):
    # the determinant keeps no cache across calls: a patched entry source
    # must show in the very next result
    before = gtp(2, 2)
    monkeypatch.setattr(thom, "wpoly",
                        lambda i, bundle="", max_degree=None: wpoly(i + 1, bundle, max_degree))
    after = gtp(2, 2)
    assert after != before
    assert after == wpoly(5) ** 2 + wpoly(4) * wpoly(6)


@pytest.mark.parametrize("r,l", [(1, 0), (3, 1), (5, 4), (8, 99_999)])
def test_gtp_calls_wpoly_once_per_distinct_entry(monkeypatch, r, l):
    # each of the 2r-1 distinct entries comes from one wpoly call, made at
    # call time
    want = gtp(r, l)
    calls = []
    monkeypatch.setattr(thom, "wpoly",
                        lambda i, bundle="", max_degree=None:
                        calls.append(i) or wpoly(i, bundle, max_degree))
    assert gtp(r, l) == want
    assert sorted(calls) == list(range(l + 1, l + 2 * r))


@pytest.mark.parametrize("r,l", [(1, 2), (2, 1), (3, 0), (3, 3)])
def test_gtp_homogeneous_of_locus_codimension(r, l):
    p = gtp(r, l)
    assert p.is_homogeneous()
    assert p.degree() == r * (l + r)


def test_gtp_rank_one_row():
    for l in range(0, 7):
        assert gtp(1, l) == wpoly(l + 1)


def test_gtp_matrix_layout():
    mat = gtp_matrix(3, 1)
    expected = [[4, 5, 6], [3, 4, 5], [2, 3, 4]]
    for i in range(3):
        for j in range(3):
            assert mat[i][j] == wpoly(expected[i][j])


def test_gtp_validation():
    with pytest.raises(ValueError):
        gtp(0, 2)
    with pytest.raises(ValueError):
        gtp(2, -1)


def test_morin_closed_form():
    for k in range(0, 7):
        a = wpoly(k + 1) ** 2 + wpoly(k) * wpoly(k + 2)
        assert morin_tp(1, k) == wpoly(k + 1)
        assert morin_tp(2, k) == a
        assert morin_tp(3, k) == wpoly(k + 1) * a
        assert morin_tp(4, k) == a ** 2
    with pytest.raises(ValueError):
        morin_tp(0, 3)
    with pytest.raises(ValueError):
        morin_tp(2, -1)


@pytest.mark.parametrize("r,k", [(1, 2), (2, 2), (3, 4), (5, 1)])
def test_morin_degree(r, k):
    p = morin_tp(r, k)
    assert p.is_homogeneous() and p.degree() == r * (k + 1)


def test_morin_two_step_multiplicativity():
    for k in (1, 2, 3):
        a = morin_tp(2, k)
        for r in (1, 2, 3, 4):
            assert morin_tp(r + 2, k) == morin_tp(r, k) * a


def test_integral_constructors():
    assert sigma2_integral(1) == morin_tp_integral(2, 1)
    assert sigma2_integral(3).rationalize() == IntPoly.p(2)
    assert sigma2_integral(3).torsion == (v_class((3, 5))).torsion
    assert morin_tp_integral(4, 3) == sigma2_integral(3) * sigma2_integral(3)
    for bad in [(2, 2), (3, 3), (2, 0)]:
        with pytest.raises(ValueError):
            morin_tp_integral(*bad)
    with pytest.raises(ValueError):
        sigma2_integral(2)


def test_convention_report_passes_and_pins_layout(monkeypatch):
    assert verify_gtp_convention().status == PASS
    # transposing the index rule leaves every determinant fixed, so the
    # layout check is what must catch it; the entries shared between cells
    # are keyed by index, so the transpose still reaches the matrix
    documented = gtp_matrix(3, 1)
    monkeypatch.setattr(thom, "_entry_index", lambda r, l, i, j: l + r - j + i)
    assert gtp_matrix(3, 1) == [list(col) for col in zip(*documented)] != documented
    assert gtp(2, 2) == wpoly(4) ** 2 + wpoly(3) * wpoly(5)
    assert verify_gtp_convention().status == FAIL


@pytest.mark.parametrize("k", [1, 2, 5])
def test_cusp_verifier(k):
    rep = verify_cusp_coincidence(k)
    assert rep.status == PASS
    statuses = {c.name: c.status for c in rep.checks}
    if k % 2 == 1:
        assert statuses["integral classes agree"] == PASS
    else:
        assert statuses["integral comparison"] == SKIPPED
    with pytest.raises(ValueError):
        verify_cusp_coincidence(0)


def test_prim_verifier():
    assert verify_prim_coincidence(3, 4).status == PASS
    rep = verify_prim_coincidence(2, 3)
    assert rep.status == PASS
    assert any(c.name.startswith("rational part") for c in rep.checks)
    with pytest.raises(ValueError):
        verify_prim_coincidence(3, 1)


def test_twisted_verifier():
    assert verify_twisted_coincidence(3).status == PASS
    with pytest.raises(ValueError):
        verify_twisted_coincidence(2)


def test_morin_derivation_verifier():
    rep = verify_morin_derivation(3, 2)
    assert rep.status == PASS
    names = [c.name for c in rep.checks]
    assert any("pushforward" in n or "closed" in n for n in names)
    with pytest.raises(ValueError):
        verify_morin_derivation(0, 2)


def test_morin_derivation_checks_the_reduction_up_to_the_bound(monkeypatch):
    # the reduction check compares every degree up to the bound, so a raised
    # bound raises the rank of nu_f and the degree it is computed to
    seen = []
    total_sw = thom.total_sw
    monkeypatch.setattr(thom, "total_sw",
                        lambda expr, d: seen.append((expr, d)) or total_sw(expr, d))
    r, k = 3, 2
    high = verify_morin_derivation(r, k, 20)
    assert seen == [(Sum(Named("nu_f", 20), LineBundle("t")), 20)]
    default = verify_morin_derivation(r, k)
    assert high.params["max_degree"] == 20
    assert high.checks == default.checks and high.artifacts == default.artifacts


@pytest.mark.parametrize("k", [0, 1, 3, 6])
def test_morin_derivation_sees_a_surviving_class_above_k_plus_1(monkeypatch, k):
    # a rewriting that leaves w_{k+2} alone changes no degree <= k+1, so only
    # the reduction check, reaching past k+1 even at r = 1, can catch it
    monkeypatch.setattr(thom, "apply_regime",
                        lambda p, regime: apply_regime(p, TwistedPrim(regime.k + 1, regime.tag)))
    rep = verify_morin_derivation(1, k)
    assert [c.name for c in rep.checks if c.status == FAIL] == [
        "rank-(k+1) reduction: no classes above degree k+1"]


def test_verifier_reports_carry_witnesses_on_failure(monkeypatch):
    # breaking the closed form must produce a degree-tagged witness
    monkeypatch.setattr(thom, "morin_tp",
                        lambda r, k, max_degree=None: wpoly(k + 1, "", max_degree) ** 2)
    rep = verify_cusp_coincidence(2)
    assert rep.status == FAIL
    assert rep.witnesses, "failed checks must carry witnesses"
