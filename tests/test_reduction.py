"""Expression reductions: each pass alone and the fixpoint."""

import random
import time
from unittest import mock

import numpy as np
import pytest

from maskcheck import (
    BUILTIN_META,
    SDD,
    EngineConfig,
    RunMemo,
    VariableTimeout,
    apply_algebraic_laws,
    apply_meta_theorems,
    binop,
    const,
    corpus_dir,
    distribution,
    eliminate_dominated,
    eliminate_ineffective,
    expr_of,
    infer,
    is_effective,
    load_meta_patterns,
    make_domain,
    neg,
    parse,
    parse_pattern,
    pretty,
    qms_compute,
    simplify,
    var,
)
from maskcheck import cli
from maskcheck import expr as ex
from maskcheck.infer import _masks
from maskcheck.reduction import _instantiate, _outside
from conftest import occurrences, var_counts
from randprog import BINOPS, random_expr

K = var("k", ex.SECRET)
R0 = var("r0", ex.RANDOM)
R1 = var("r1", ex.RANDOM)
P = var("p", ex.PUBLIC)

D2 = make_domain(2)
D4 = make_domain(4)
D8 = make_domain(8)


def xor(a, b):
    return binop("^", a, b)


def same_distributions(e1, e2, d):
    """Exhaustively compare the distributions of e1 and e2 per fixing."""
    names = sorted((ex.variables(e1) | ex.variables(e2))
                   - ex.rvars(e1) - ex.rvars(e2))
    for idx in range(d.size ** len(names)):
        sigma = {}
        rest = idx
        for name in names:
            sigma[name] = rest % d.size
            rest //= d.size
        lhs = distribution(e1, {n: v for n, v in sigma.items()
                                if n in ex.variables(e1)}, d)
        rhs = distribution(e2, {n: v for n, v in sigma.items()
                                if n in ex.variables(e2)}, d)
        if not np.array_equal(lhs.counts * rhs.total, rhs.counts * lhs.total):
            return False
    return True


class TestEffectiveness:
    def test_cancelled_variable_is_ineffective(self):
        e = xor(xor(K, R0), K)
        assert not is_effective("k", e, D8)
        assert is_effective("r0", e, D8)

    def test_absent_variable(self):
        assert not is_effective("k", R0, D8)

    def test_effective_variable(self):
        assert is_effective("k", xor(K, R0), D8)

    def test_annihilated_variable(self):
        e = binop("@", K, const(0))
        assert not is_effective("k", e, D8)

    def test_over_budget_is_conservative(self):
        # 3 variables x 8 bits = 24 > 20: must answer True untested
        e = xor(xor(xor(K, R0), R1), K)
        assert is_effective("k", e, D8)
        # at 2 bits the same shape fits and k is seen to cancel
        assert not is_effective("k", e, D2)

    def test_eliminate_ineffective(self):
        e = xor(xor(K, R0), K)
        assert eliminate_ineffective(e, D8) is xor(xor(const(0), R0), const(0))

    def test_eliminate_keeps_effective(self):
        e = xor(K, R0)
        assert eliminate_ineffective(e, D8) is e

    def test_eliminate_evaluates_once(self):
        # 3 variables x 4 bits: one grid of 4096 cells answers for all
        e = xor(xor(xor(K, R0), binop("&", P, const(0))), K)
        with mock.patch.object(ex, "eval_vec", wraps=ex.eval_vec) as spy:
            got = eliminate_ineffective(e, D4)
        assert spy.call_count == 1
        assert got is xor(xor(xor(const(0), R0), binop("&", const(0),
                                                       const(0))), const(0))

    def test_eliminate_over_budget_evaluates_nothing(self):
        e = xor(xor(xor(K, R0), R1), K)
        with mock.patch.object(ex, "eval_vec", wraps=ex.eval_vec) as spy:
            assert eliminate_ineffective(e, D8) is e
        assert spy.call_count == 0


class TestAlgebraicLaws:
    def test_xor_self(self):
        e = binop("&", K, R0)
        assert apply_algebraic_laws(xor(e, e)) is ex.ZERO

    def test_sub_self(self):
        assert apply_algebraic_laws(binop("-", K, K)) is ex.ZERO

    def test_add_self_not_rewritten(self):
        e = binop("+", K, K)
        assert apply_algebraic_laws(e) is e

    def test_annihilators(self):
        for op in ("*", "@", "&"):
            assert apply_algebraic_laws(binop(op, K, const(0))) is ex.ZERO
            assert apply_algebraic_laws(binop(op, const(0), K)) is ex.ZERO

    def test_or_zero_not_rewritten(self):
        # e | 0 = e holds, but the pass leaves | alone
        e = binop("|", K, const(0))
        assert apply_algebraic_laws(e) is e

    def test_xor_unit(self):
        assert apply_algebraic_laws(xor(K, const(0))) is K
        assert apply_algebraic_laws(xor(const(0), K)) is K

    def test_mul_units(self):
        assert apply_algebraic_laws(binop("*", K, const(1))) is K
        assert apply_algebraic_laws(binop("@", const(1), K)) is K

    def test_double_complement(self):
        assert apply_algebraic_laws(neg(neg(K))) is K
        assert apply_algebraic_laws(neg(neg(neg(K)))) is neg(K)

    def test_cascade_to_fixpoint(self):
        # (k ^ k) @ r0 -> 0 @ r0 -> 0
        e = binop("@", xor(K, K), R0)
        assert apply_algebraic_laws(e) is ex.ZERO

    def test_rewrites_inside_larger_tree(self):
        e = binop("&", xor(R0, const(0)), P)
        assert apply_algebraic_laws(e) is binop("&", R0, P)


class TestEliminateDominated:
    def test_basic_collapse(self):
        # r1 ^ (x0 @ r0) is dominated by r1 which occurs nowhere else
        t = xor(R1, binop("@", binop("&", K, P), R0))
        assert eliminate_dominated(t, D8) is R1

    def test_side_condition_blocks_shared_random(self):
        # (r0 ^ k) & r0: the inner xor is r0-dominated, but r0 appears
        # outside it, so collapsing would change the distribution
        e = binop("&", xor(R0, K), R0)
        assert eliminate_dominated(e, D8) is e

    def test_replaces_all_occurrences(self):
        t = xor(K, R0)
        e = binop("&", t, binop("|", t, P))
        got = eliminate_dominated(e, D8)
        assert got is binop("&", R0, binop("|", R0, P))

    def test_innermost_first(self):
        # inner k ^ r0 collapses to r0; the outer & is not dominated
        e = binop("&", xor(K, R0), P)
        assert eliminate_dominated(e, D8) is binop("&", R0, P)

    def test_preserves_distribution(self):
        e = binop("&", xor(K, R0), xor(P, R1))
        got = eliminate_dominated(e, D2)
        assert got is binop("&", R0, R1)
        assert same_distributions(e, got, D2)


class TestMetaTheorems:
    def test_builtin_pattern(self):
        lhs = xor(R0, binop("&", binop("*", const(2), R0), K))
        assert apply_meta_theorems(lhs, D8) is R0

    def test_builtin_pattern_commuted_and(self):
        lhs = xor(R0, binop("&", K, binop("*", const(2), R0)))
        assert apply_meta_theorems(lhs, D8) is R0

    def test_builtin_blocked_when_r_escapes(self):
        inner = xor(R0, binop("&", binop("*", const(2), R0), K))
        e = binop("&", inner, R0)
        assert apply_meta_theorems(e, D8) is e

    def test_builtin_sound(self):
        lhs = xor(R0, binop("&", binop("*", const(2), R0), K))
        assert same_distributions(lhs, R0, D2)

    def test_metavariable_matches_any_subterm(self):
        e_part = binop("|", binop("&", K, P), P)
        lhs = xor(R1, binop("&", binop("*", const(2), R1), e_part))
        assert apply_meta_theorems(lhs, D8) is R1

    def test_r_only_matches_randoms(self):
        # same shape built on the secret must not fire
        lhs = xor(K, binop("&", binop("*", const(2), K), P))
        assert apply_meta_theorems(lhs, D8) is lhs

    def test_custom_pattern(self):
        pats = [parse_pattern("(r + e) - e => r")]
        e = binop("-", binop("+", R0, binop("&", K, P)), binop("&", K, P))
        assert apply_meta_theorems(e, D8, pats) is R0
        assert same_distributions(e, R0, D2)

    def test_patterns_argument_replaces_builtin(self):
        builtin_hit = xor(R0, binop("&", binop("*", const(2), R0), K))
        assert apply_meta_theorems(builtin_hit, D8, patterns=[]) is builtin_hit

    def test_parse_pattern_rejects_unbound_rhs(self):
        with pytest.raises(ValueError):
            parse_pattern("r ^ e => q")

    def test_parse_pattern_rejects_missing_arrow(self):
        with pytest.raises(ValueError):
            parse_pattern("r ^ e")

    def test_load_meta_patterns(self, tmp_path):
        path = tmp_path / "extra.meta"
        path.write_text(
            "# sound for modular arithmetic\n"
            "(r + e) - e => r\n"
            "\n"
            "r ^ ((2 * r) & e) => r  # builtin restated\n")
        pats = load_meta_patterns(path)
        assert len(pats) == 2
        assert pretty(pats[0][1]) == "r"


class TestSimplify:
    def test_example_reductions(self):
        cube = parse((corpus_dir() / "cube.mv").read_text())
        hats = {n: simplify(expr_of(cube, n), D8) for n in ("x0", "x4", "x6")}
        assert pretty(hats["x0"]) == "(r0 @ r0)"
        assert hats["x4"] is var("r1", ex.RANDOM)
        assert pretty(hats["x6"]) == "((r0 @ r0) @ r0)"

    def test_idempotent(self):
        cube = parse((corpus_dir() / "cube.mv").read_text())
        for name in cube.internals:
            once = simplify(expr_of(cube, name), D8)
            assert simplify(once, D8) is once

    def test_never_grows(self):
        cube = parse((corpus_dir() / "cube.mv").read_text())
        for name in cube.internals:
            e = expr_of(cube, name)
            assert ex.size(simplify(e, D8)) <= ex.size(e)

    def test_preserves_distribution_small_sweep(self):
        cube = parse((corpus_dir() / "cube.mv").read_text())
        for name in cube.internals:
            e = expr_of(cube, name)
            assert same_distributions(e, simplify(e, D2), D2), name

    def test_custom_patterns_flow_through(self):
        pats = list(BUILTIN_META) + [parse_pattern("(r + e) - e => r")]
        e = binop("-", binop("+", R0, K), K)
        assert simplify(e, D8, pats) is R0

    def test_type_improves_after_reduction(self):
        cube = parse((corpus_dir() / "cube.mv").read_text())
        e = expr_of(cube, "x4")
        assert infer(e, D8).dist.value == "RUD"
        reduced = simplify(expr_of(cube, "x6"), D8)
        # unreduced x6 is UKD; the reduced form has no secret left
        assert infer(expr_of(cube, "x6"), D8).dist.value == "UKD"
        assert infer(reduced, D8).dist.value == "SID"


class TestSharedMemo:
    # (k & k) ^ (r0 & k): nothing dominates it and the built-in table
    # does not match it, so it is its own reduced form
    SETTLED = binop("^", binop("&", K, K), binop("&", R0, K))

    def test_reduced_form_is_settled(self):
        memo = RunMemo(D4)
        assert simplify(self.SETTLED, D4, memo=memo) is self.SETTLED
        assert memo.settled == {tuple(BUILTIN_META): {self.SETTLED}}

    def test_laws_are_kept_per_node(self):
        memo = RunMemo(D4)
        e = binop("^", binop("@", K, const(1)), const(0))
        assert apply_algebraic_laws(e, memo) is K
        assert memo.laws[e] is memo.laws[binop("@", K, const(1))] is K
        with mock.patch.object(ex, "postorder", wraps=ex.postorder) as walk:
            assert apply_algebraic_laws(e, memo) is K
        # e and K are kept: each walk lists its root only
        assert [c.args[0] for c in walk.call_args_list] == [e, K]

    def test_scans_skip_settled_nodes(self):
        memo = RunMemo(D4)
        simplify(self.SETTLED, D4, memo=memo)
        e = binop("*", self.SETTLED, P)
        scans = []

        def subterms(*args):
            scans.append(real_subterms(*args))
            return scans[-1]

        real_subterms = ex.subterms
        with mock.patch.object(ex, "subterms", subterms):
            assert simplify(e, D4, memo=memo) is e
        assert scans == [[P, e], [P, e]]

    def test_another_pattern_table_gets_the_fresh_answer(self):
        # `a & a => a` fires inside the expression settled under the
        # built-in table; the memo keeps settled nodes per table
        memo = RunMemo(D4)
        simplify(self.SETTLED, D4, memo=memo)
        table = list(BUILTIN_META) + [parse_pattern("a & a => a")]
        e = binop("*", self.SETTLED, P)
        fresh = simplify(e, D4, table)
        assert pretty(fresh) == "((k ^ (r0 & k)) * p)"
        assert simplify(e, D4, table, memo) is fresh
        assert simplify(e, D4, memo=memo) is e

    def test_memo_over_another_domain_is_rejected(self):
        with pytest.raises(ValueError, match="memo is over"):
            simplify(self.SETTLED, D4, memo=RunMemo(D2))

    def test_passed_deadline_stops_the_reduction(self):
        past = time.monotonic() - 1.0
        with pytest.raises(VariableTimeout):
            simplify(self.SETTLED, D4, deadline=past)
        with pytest.raises(VariableTimeout):
            eliminate_dominated(binop("^", K, R0), D4, deadline=past)
        with pytest.raises(VariableTimeout):
            apply_meta_theorems(K, D4, deadline=past)



class TestOutside:
    @staticmethod
    def shared_expr(rng):
        """An expression whose later nodes reuse earlier ones, so a
        subterm occurs more than once."""
        pool = [R0, R1, var("r2", ex.RANDOM), K, P, const(2)]
        for _ in range(rng.randint(2, 9)):
            a, b = rng.choice(pool), rng.choice(pool)
            pool.append(neg(a) if rng.random() < 0.1 else
                        binop(rng.choice("^^+-&@*"), a, b))
        return pool[-1]

    def test_agrees_with_occurrence_counts(self):
        # v occurs outside t exactly when its count in e is not the
        # count of t in e times its count in t
        rng = random.Random(28)
        memo = RunMemo(D4)      # one run's memo, shared by every e
        for _ in range(300):
            e = self.shared_expr(rng)
            for t in ex.subterms(e):
                want = 0
                for v, n in var_counts(e).items():
                    if n != occurrences(e, t) * var_counts(t)[v]:
                        want |= _masks(v, D4, memo)[0]
                assert _outside(e, t, memo) == want, \
                    (pretty(e), pretty(t))


# `r ^ ((2 * r) & e) => r` holds only for an e free of r; here e is r
SHARED_BINDING = """fn F(k: secret, r: random) {
  t = (2 * r) & r; u = r ^ t; y = k ^ u; return y;
}"""


class TestBindingRule:
    @pytest.mark.parametrize("bits, qms", [(2, (2, 4)), (4, (12, 16)),
                                           (8, (244, 256))])
    def test_r_inside_another_binding_is_not_rewritten(self, bits, qms,
                                                       tmp_path, capsys):
        report = qms_compute(parse(SHARED_BINDING),
                             EngineConfig(make_domain(bits)))
        y = report.verdicts[-1]
        assert (y.name, y.dist, y.qms.num, y.qms.den) == ("y", SDD, *qms)
        path = tmp_path / "f.mv"
        path.write_text(SHARED_BINDING)
        assert cli.run(["check", str(path), "--bits", str(bits)]) == 1

    def test_refused_when_another_binding_holds_r(self):
        e = xor(R0, binop("&", binop("*", const(2), R0), R0))
        assert apply_meta_theorems(e, D8) is e

    def test_builtin_rewrites_keep_every_distribution(self):
        """Each built-in pattern, its other metavariables bound to small
        expressions that often hold r, alone or in a context that may
        hold r: a rewrite keeps every fixing's distribution."""
        rng = random.Random(28)
        fired = refused = 0
        for lhs, _ in BUILTIN_META:
            others = sorted(ex.variables(lhs) - {"r"})
            for _ in range(30):
                d = make_domain(rng.choice((2, 3)))
                r = var(f"r{rng.randrange(2)}", ex.RANDOM)
                bind = {"r": r}
                for name in others:
                    part = random_expr(rng, d.bits, 2, 1, depth=2)
                    if rng.random() < 0.5:
                        part = binop(rng.choice(BINOPS), part, r)
                    bind[name] = part
                e = _instantiate(lhs, bind)
                if rng.random() < 0.3:
                    e = binop(rng.choice(BINOPS), e,
                              random_expr(rng, d.bits, 2, 1, depth=1))
                got = apply_meta_theorems(e, d)
                if got is e:
                    refused += 1
                else:
                    fired += 1
                    assert same_distributions(e, got, d), pretty(e)
        assert fired > 5 and refused > 5
