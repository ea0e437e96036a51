"""Exact counting: distributions, uniformity, secret independence, QMS.

Expected values are cross-checked against a deliberately naive
reimplementation built on scalar evaluation and plain dictionaries.
"""

import itertools
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from maskcheck import (
    BudgetExceeded,
    CountVector,
    Qms,
    UncoveredVariable,
    VariableTimeout,
    binop,
    check_si,
    check_uniform,
    const,
    corpus_dir,
    counting,
    distribution,
    eval_expr,
    expr_of,
    make_domain,
    neg,
    parse,
    qms_exact,
    var,
)
from maskcheck import expr as ex

K = var("k", ex.SECRET)
K2 = var("k2", ex.SECRET)
R0 = var("r0", ex.RANDOM)
R1 = var("r1", ex.RANDOM)
R2 = var("r2", ex.RANDOM)
P = var("p", ex.PUBLIC)

D1 = make_domain(1)
D2 = make_domain(2)
D3 = make_domain(3)
D8 = make_domain(8)


def xor(a, b):
    return binop("^", a, b)


# --- naive reference implementations -----------------------------------------

def slow_distribution(e, sigma, d):
    rand = sorted(ex.rvars(e))
    counts = Counter()
    for values in itertools.product(range(d.size), repeat=len(rand)):
        env = dict(sigma)
        env.update(zip(rand, values))
        counts[eval_expr(e, env, d)] += 1
    return counts


def all_sigmas(e, d):
    names = sorted(ex.variables(e) - ex.rvars(e))
    for values in itertools.product(range(d.size), repeat=len(names)):
        yield dict(zip(names, values))


def slow_qms(e, d, publics=()):
    """1 - max gap / 2^m by four nested dictionary loops."""
    dists = {tuple(sorted(s.items())): slow_distribution(e, s, d)
             for s in all_sigmas(e, d)}
    den = d.size ** len(ex.rvars(e))
    gap = 0
    for s1, c1 in dists.items():
        for s2, c2 in dists.items():
            if any(dict(s1).get(p) != dict(s2).get(p) for p in publics):
                continue
            for c in range(d.size):
                gap = max(gap, c1.get(c, 0) - c2.get(c, 0))
    if den == 1:
        return Fraction(0 if gap or len(set(map(tuple, (
            sorted(cv.items()) for cv in dists.values())))) > 1 else 1, 1)
    return Fraction(den - gap, den)


BATTERY = [
    (xor(K, R0), D1),
    (xor(K, R0), D2),
    (binop("&", K, R0), D2),
    (binop("|", K, R0), D2),
    (binop("+", K, R0), D3),
    (binop("-", R0, K), D3),
    (binop("*", K, R0), D2),
    (binop("@", K, R0), D2),
    (binop("@", xor(K, R0), xor(K, R1)), D2),
    (binop("<<", xor(K, R0), const(1)), D2),
    (binop(">>", binop("&", K, R0), const(1)), D3),
    (neg(binop("&", K, R0)), D2),
    (binop("|", binop("&", K, R0), P), D2),
    (xor(binop("@", R0, R1), binop("&", K, R2)), D2),
]


class TestDistribution:
    @pytest.mark.parametrize("e,d", BATTERY)
    def test_matches_naive_counting(self, e, d):
        for sigma in all_sigmas(e, d):
            got = distribution(e, sigma, d)
            want = slow_distribution(e, sigma, d)
            assert got.total == d.size ** len(ex.rvars(e))
            for value in range(d.size):
                assert got.counts[value] == want.get(value, 0), (sigma, value)

    def test_no_randoms_is_point_mass(self):
        got = distribution(binop("&", K, P), {"k": 3, "p": 5}, D8)
        assert got.total == 1
        assert got.counts[3 & 5] == 1
        assert got.counts.sum() == 1

    def test_missing_assignment_rejected(self):
        with pytest.raises(UncoveredVariable, match="'k'"):
            distribution(xor(K, R0), {}, D8)

    def test_budget(self):
        e = xor(xor(R0, R1), R2)
        with pytest.raises(BudgetExceeded):
            distribution(e, {}, D8, budget=100)

    def test_sigma_values_masked(self):
        e = xor(K, R0)
        assert distribution(e, {"k": 0x101}, D8) == \
            distribution(e, {"k": 1}, D8)


class TestCountVector:
    def test_is_flat(self):
        assert CountVector(np.array([2, 2]), 4).is_flat()
        assert not CountVector(np.array([3, 1]), 4).is_flat()
        assert not CountVector(np.array([1, 0]), 1).is_flat()

    def test_probability(self):
        cv = CountVector(np.array([3, 1]), 4)
        assert cv.probability(0) == Fraction(3, 4)
        assert cv.probability(1) == Fraction(1, 4)

    def test_eq(self):
        a = CountVector(np.array([2, 2]), 4)
        assert a == CountVector(np.array([2, 2]), 4)
        assert a != CountVector(np.array([3, 1]), 4)
        assert a != "CountVector"


class TestCheckUniform:
    def test_masked_secret(self):
        assert check_uniform(xor(K, R0), D8)

    def test_bare_secret(self):
        assert not check_uniform(K, D8)

    def test_or_is_biased(self):
        assert not check_uniform(binop("|", R0, R1), D1)

    def test_self_and_is_identity(self):
        assert check_uniform(binop("&", R0, R0), D1)

    def test_agrees_with_naive(self):
        for e, d in BATTERY:
            flat = all(
                slow_distribution(e, s, d) ==
                {v: d.size ** (len(ex.rvars(e)) - 1) for v in range(d.size)}
                for s in all_sigmas(e, d))
            assert check_uniform(e, d) == flat, ex.pretty(e)


class TestCheckSi:
    def test_uniform_implies_si(self):
        ok, witness = check_si(xor(K, R0), D8)
        assert ok and witness is None

    def test_public_only_variation_is_si(self):
        ok, witness = check_si(binop("|", xor(K, R0), P), D2)
        assert ok and witness is None

    def test_sdd_with_public_witness_agrees_on_public(self):
        ok, witness = check_si(binop("|", binop("&", K, R0), P), D2)
        assert not ok
        assert witness == ({"k": 0, "p": 0}, {"k": 1, "p": 0})

    def test_witness_is_lex_smallest(self):
        ok, witness = check_si(binop("&", K, R0), D2)
        assert not ok
        assert witness == ({"k": 0}, {"k": 1})

    def test_ineffective_secret_pinned_in_witness(self):
        e = xor(xor(K, K), binop("&", K2, R0))
        ok, witness = check_si(e, D1)
        assert not ok
        assert witness == ({"k": 0, "k2": 0}, {"k": 0, "k2": 1})

    def test_no_randoms(self):
        ok, witness = check_si(binop("&", K, const(1)), D1)
        assert not ok
        assert witness == ({"k": 0}, {"k": 1})

    def test_agrees_with_naive(self):
        for e, d in BATTERY:
            publics = {n for n in ex.variables(e)
                       if ex.var(n, ex.PUBLIC) in ex.var_leaves(e)}
            ok, _ = check_si(e, d)
            assert ok == (slow_qms(e, d, publics) == 1), ex.pretty(e)


@pytest.fixture(scope="module")
def cube():
    return parse((corpus_dir() / "cube.mv").read_text())


class TestQmsExact:
    def test_uniform_expression(self):
        got = qms_exact(xor(K, R0), D8)
        assert (got.num, got.den, got.witness) == (256, 256, None)
        assert got.fraction == 1
        assert float(got) == 1.0

    def test_and_mask(self):
        got = qms_exact(binop("&", K, R0), D2)
        assert got.fraction == Fraction(1, 4)
        assert got.witness == ({"k": 0}, {"k": 3}, 0)

    def test_witness_realizes_gap(self):
        got = qms_exact(binop("&", K, R0), D2)
        s1, s2, c = got.witness
        d1 = distribution(binop("&", K, R0), s1, D2)
        d2 = distribution(binop("&", K, R0), s2, D2)
        assert int(d1.counts[c]) - int(d2.counts[c]) == got.den - got.num

    def test_no_randoms_leaky(self):
        got = qms_exact(K, D1)
        assert (got.num, got.den) == (0, 1)
        assert got.witness == ({"k": 0}, {"k": 1}, 0)

    def test_no_randoms_constant(self):
        got = qms_exact(binop("@", K, const(0)), D2)
        assert (got.num, got.den, got.witness) == (1, 1, None)

    def test_no_variables(self):
        got = qms_exact(const(5), D2)
        assert (got.num, got.den, got.witness) == (1, 1, None)

    def test_agrees_with_naive(self):
        for e, d in BATTERY:
            publics = {n for n in ex.variables(e)
                       if ex.var(n, ex.PUBLIC) in ex.var_leaves(e)}
            assert qms_exact(e, d).fraction == slow_qms(e, d, publics), \
                ex.pretty(e)

    def test_cube_leaky_variables(self, cube):
        for name in ("x2", "x3"):
            got = qms_exact(expr_of(cube, name), D8)
            assert got.fraction == Fraction(253, 256), name
            assert round(float(got), 3) == 0.988
            assert got.witness == ({"k": 0}, {"k": 1}, 1), name

    def test_cube_x6_is_si_before_reduction(self, cube):
        e = expr_of(cube, "x6")
        assert qms_exact(e, D8).fraction == 1
        ok, _ = check_si(e, D8)
        assert ok


class TestResourceLimits:
    def test_budget_exceeded(self, cube):
        with pytest.raises(BudgetExceeded, match="256 sigma x 256"):
            qms_exact(expr_of(cube, "x2"), D8, budget=100)

    def test_budget_boundary_is_inclusive(self, cube):
        got = qms_exact(expr_of(cube, "x2"), D8, budget=256 * 256)
        assert got.fraction == Fraction(253, 256)

    def test_deadline(self, cube):
        with pytest.raises(VariableTimeout):
            qms_exact(expr_of(cube, "x2"), D8,
                      deadline=time.monotonic() - 1.0)

    def test_check_si_budget(self, cube):
        with pytest.raises(BudgetExceeded):
            check_si(expr_of(cube, "x2"), D8, budget=100)


class TestDeterminism:
    def test_block_size_does_not_change_the_counts(self, monkeypatch):
        # 2^16 sigma rows by 16 columns: one default block tallies
        # 2^16 x 16 bins, past uint16, where 2^12-cell blocks need 4096
        d = make_domain(4)
        k3, k4 = var("k3", ex.SECRET), var("k4", ex.SECRET)
        e = xor(binop("+", binop("&", K, R0), K2), binop("@", k3, R0))
        e = binop("|", e, binop("*", k4, R0))
        space, _ = counting._sigma_space(e, d, 1 << 20)
        assert space.step * d.size > 1 << 16
        whole = counting._counts_matrix(e, d, space, 1, None)
        monkeypatch.setattr(counting, "_CHUNK_CELLS", 1 << 12)
        space, _ = counting._sigma_space(e, d, 1 << 20)
        assert space.step * d.size <= 1 << 16
        assert np.array_equal(counting._counts_matrix(e, d, space, 1, None),
                              whole)
        assert (whole.sum(axis=1) == 16).all()

    def test_jobs_do_not_change_the_answer(self):
        d = make_domain(4)
        e = binop("+", xor(binop("&", K, R0), binop("|", K2, R1)),
                  binop("@", var("k3", ex.SECRET), R2))
        serial = qms_exact(e, d, jobs=1)
        threaded = qms_exact(e, d, jobs=4)
        assert (serial.num, serial.den, serial.witness) == \
            (threaded.num, threaded.den, threaded.witness)

    def test_jobs_do_not_change_si_witness(self, cube):
        e = expr_of(cube, "x3")
        assert check_si(e, D8, jobs=1) == check_si(e, D8, jobs=4)
