"""Distribution-type inference: rule priorities, traces, whole programs."""

import random
from unittest import mock

import pytest

from maskcheck import (
    METHOD_COUNT_BF,
    METHOD_REDUCED,
    METHOD_TYPE,
    RUD,
    SDD,
    SID,
    UKD,
    EngineConfig,
    RunMemo,
    at_most_sid,
    binop,
    const,
    corpus_dir,
    dominant_vars,
    expr_of,
    infer,
    make_domain,
    neg,
    parse,
    pm_check,
    qms_compute,
    var,
)
from maskcheck import expr as ex
from maskcheck import verify
from conftest import deep_chain, var_counts

K = var("k", ex.SECRET)
K2 = var("k2", ex.SECRET)
R0 = var("r0", ex.RANDOM)
R1 = var("r1", ex.RANDOM)
P = var("p", ex.PUBLIC)

D8 = make_domain(8)


def xor(a, b):
    return binop("^", a, b)


class TestDominantVars:
    def test_single_fresh_random(self):
        assert dominant_vars(xor(K, R0)) == {"r0"}

    def test_two_fresh_randoms(self):
        e = xor(xor(K, R0), R1)
        assert dominant_vars(e) == {"r0", "r1"}

    def test_repeated_random_not_dominant(self):
        e = xor(xor(R0, P), R0)
        assert dominant_vars(e) == set()

    def test_secret_never_dominant(self):
        assert dominant_vars(K) == set()
        assert dominant_vars(xor(K, P)) == set()

    def test_add_sub_preserve_reachability(self):
        assert dominant_vars(binop("+", K, R0)) == {"r0"}
        assert dominant_vars(binop("-", K, R0)) == {"r0"}

    def test_complement_preserves_reachability(self):
        assert dominant_vars(neg(xor(K, R0))) == {"r0"}

    def test_and_or_shift_block(self):
        assert dominant_vars(binop("&", K, R0)) == set()
        assert dominant_vars(binop("|", K, R0)) == set()
        assert dominant_vars(binop("<<", R0, const(1))) == set()
        assert dominant_vars(binop(">>", R0, const(1))) == set()

    def test_field_mul_by_nonzero_const(self):
        assert dominant_vars(binop("@", R0, const(3))) == {"r0"}
        assert dominant_vars(binop("@", const(3), R0)) == {"r0"}

    def test_field_mul_by_zero_const_blocks(self):
        assert dominant_vars(binop("@", R0, const(0))) == set()

    def test_field_mul_masked_const_is_zero(self):
        # 256 truncates to 0 in an 8-bit word
        e = binop("@", R0, const(256))
        assert dominant_vars(e, D8) == set()
        # without a domain the raw value counts as nonzero
        assert dominant_vars(e) == {"r0"}

    def test_ring_mul_needs_odd_const(self):
        assert dominant_vars(binop("*", R0, const(3))) == {"r0"}
        assert dominant_vars(binop("*", R0, const(2))) == set()
        # 257 truncates to odd 1
        assert dominant_vars(binop("*", R0, const(257)), D8) == {"r0"}

    def test_mul_by_non_const_blocks(self):
        assert dominant_vars(binop("@", R0, P)) == set()

    def test_occurs_once_but_unreachable(self):
        # reachable through ^, but the second occurrence disqualifies it
        e = xor(R0, binop("&", R0, K))
        assert dominant_vars(e) == set()

    def test_reachable_side_only(self):
        # r0 reachable on the ^ side; r1 buried under &
        e = xor(R0, binop("&", R1, K))
        assert dominant_vars(e) == {"r0"}


class TestSubtyping:
    def test_at_most_sid(self):
        assert at_most_sid(RUD)
        assert at_most_sid(SID)
        assert not at_most_sid(SDD)
        assert not at_most_sid(UKD)

    def test_str(self):
        assert str(RUD) == "RUD"
        assert str(UKD) == "UKD"


class TestRulePriorities:
    def test_dominant_wins(self):
        j = infer(xor(K, R0))
        assert j.dist is RUD
        assert j.rule_trace == ("dominant",)

    def test_no_secret(self):
        j = infer(binop("&", R0, R0))
        assert j.dist is SID
        assert j.rule_trace == ("no-secret",)

    def test_no_secret_with_publics(self):
        j = infer(binop("&", P, P))
        assert j.dist is SID
        assert j.rule_trace == ("no-secret",)

    def test_constant_is_no_secret(self):
        j = infer(const(7))
        assert j.dist is SID
        assert j.rule_trace == ("no-secret",)

    def test_bare_secret(self):
        j = infer(K)
        assert j.dist is SDD
        assert j.rule_trace == ("secret",)

    def test_self_cancel_xor(self):
        e = binop("&", K, R0)
        j = infer(xor(e, e))
        assert j.dist is SID
        assert j.rule_trace == ("self-cancel",)

    def test_self_cancel_sub(self):
        e = binop("&", K, R0)
        j = infer(binop("-", e, e))
        assert j.dist is SID
        assert j.rule_trace == ("self-cancel",)

    def test_self_cancel_sees_through_interning(self):
        # hash consing makes structurally equal copies the same object,
        # so separately built operands still cancel
        a = binop("&", K, R0)
        b = binop("&", K, R0)
        assert a is b
        assert infer(xor(a, b)).rule_trace == ("self-cancel",)

    def test_complement_carries_type(self):
        # root dominance would shortcut ~(k ^ r0), so square first
        sq = binop("@", xor(K, R0), xor(K, R0))
        j = infer(neg(sq))
        assert j.dist is SID
        assert j.rule_trace == ("dominant", "self-op", "complement")

    def test_complement_of_dominant_is_still_dominant(self):
        j = infer(neg(xor(K, R0)))
        assert j.dist is RUD
        assert j.rule_trace == ("dominant",)

    def test_complement_of_secret(self):
        j = infer(neg(K))
        assert j.dist is SDD
        assert j.rule_trace == ("secret", "complement")

    def test_complement_of_ukd_stays_ukd(self):
        j = infer(neg(binop("&", K, P)))
        assert j.dist is UKD
        assert j.rule_trace == ("unknown",)

    def test_self_op_on_sid_operand(self):
        e = xor(K, R0)           # RUD
        j = infer(binop("@", e, e))
        assert j.dist is SID
        assert j.rule_trace == ("dominant", "self-op")

    def test_self_op_add(self):
        e = xor(K, R0)
        j = infer(binop("+", e, e))
        assert j.dist is SID
        assert j.rule_trace == ("dominant", "self-op")

    def test_self_absorb_and(self):
        j = infer(binop("&", K, K))
        assert j.dist is SDD
        assert j.rule_trace == ("secret", "self-absorb")

    def test_self_absorb_or(self):
        j = infer(binop("|", K, K))
        assert j.dist is SDD
        assert j.rule_trace == ("secret", "self-absorb")

    def test_sdd_square_is_not_typed(self):
        # k @ k is a bijective image of k, but the rules stay silent
        j = infer(binop("@", K, K))
        assert j.dist is UKD

    def test_masked_product(self):
        e = binop("@", xor(K, R0), xor(K, R1))
        j = infer(e)
        assert j.dist is SID
        assert j.rule_trace == ("dominant", "dominant", "masked-product")

    def test_masked_product_commute(self):
        # fresh dominant only on the right operand
        left = xor(xor(K, R0), R1)   # dominant {r0, r1}
        right = xor(K, R0)           # dominant {r0}
        e = binop("@", right, left)
        j = infer(e)
        assert j.dist is SID
        assert j.rule_trace[-2:] == ("masked-product", "commute")

    def test_masked_product_requires_fresh_dominant(self):
        # both sides uniform via the same r0: no fresh dominant either way
        left = xor(K, R0)
        right = xor(P, R0)
        j = infer(binop("@", left, right))
        assert j.rule_trace[-1] != "masked-product"

    def test_independent_op(self):
        left = xor(K, R0)            # RUD
        right = binop("@", R1, R1)   # SID, no secret
        j = infer(binop("&", left, right))
        assert j.dist is SID
        assert j.rule_trace == ("dominant", "no-secret", "independent-op")

    def test_independent_op_applies_to_shifts(self):
        j = infer(binop("<<", xor(K, R0), const(1)))
        assert j.dist is SID
        assert j.rule_trace == ("dominant", "no-secret", "independent-op")

    def test_independent_op_blocked_by_shared_random(self):
        left = xor(K, R0)
        right = binop("@", R0, R0)
        j = infer(binop("&", left, right))
        assert j.dist is UKD

    def test_tainted_product(self):
        j = infer(binop("&", K, R0))
        assert j.dist is SDD
        assert j.rule_trace == ("secret", "dominant", "tainted-product")

    def test_tainted_product_commute(self):
        j = infer(binop("&", R0, K))
        assert j.dist is SDD
        assert j.rule_trace == ("dominant", "secret", "tainted-product",
                                "commute")

    def test_tainted_product_field_mul(self):
        j = infer(binop("@", K, R0))
        assert j.dist is SDD
        assert j.rule_trace[-1] == "tainted-product"

    def test_tainted_product_needs_fresh_dominant(self):
        sdd = binop("&", K, R0)      # SDD, uses r0
        j = infer(binop("&", sdd, R0))
        assert j.dist is UKD

    def test_tainted_product_needs_bare_secret(self):
        # k | 1 is never 0, so (k | 1) @ r0 is uniform for every k
        j = infer(binop("@", binop("|", K, const(1)), R0), D8)
        assert j.dist is UKD

    def test_tainted_product_not_for_xor(self):
        # k ^ r0 is RUD by dominance, so force the shape differently:
        # an SDD left with a fresh random under ^ goes to "dominant"
        j = infer(xor(binop("&", K, K), R0))
        assert j.dist is RUD
        assert j.rule_trace == ("dominant",)

    def test_unknown(self):
        j = infer(binop("&", K, P))
        assert j.dist is UKD
        assert j.rule_trace == ("unknown",)


class TestStore:
    def test_recalled(self):
        e = binop("&", K, P)
        store = {e: SDD}
        j = infer(e, store=store)
        assert j.dist is SDD
        assert j.rule_trace == ("recalled",)

    def test_store_feeds_larger_expressions(self):
        inner = binop("@", binop("|", K, const(1)), R0)    # SID, rules UKD
        store = {inner: SID}
        j = infer(binop("&", inner, R1), store=store)
        assert j.dist is SID
        assert j.rule_trace == ("recalled", "dominant", "independent-op")

    def test_store_consulted_only_at_dead_ends(self):
        e = xor(K, R0)
        # a (wrong) store entry must not override a direct derivation
        j = infer(e, store={e: SDD})
        assert j.dist is RUD
        assert j.rule_trace == ("dominant",)

    def test_ukd_store_entries_are_ignored(self):
        e = binop("&", K, P)
        j = infer(e, store={e: UKD})
        assert j.dist is UKD
        assert j.rule_trace == ("unknown",)


class TestDomainAwareness:
    def test_masked_zero_constant_blocks_rud(self):
        e = binop("@", xor(K, R0), const(256))
        assert infer(e, D8).dist is not RUD

    def test_unmasked_same_expression_is_rud(self):
        e = binop("@", xor(K, R0), const(3))
        assert infer(e, D8).dist is RUD


EXPECTED_CUBE = {
    "x": (RUD, ("dominant",)),
    "x0": (SID, ("dominant", "self-op")),
    "x1": (SID, ("no-secret",)),
    "x2": (UKD, ("unknown",)),
    "x3": (UKD, ("unknown",)),
    "x4": (RUD, ("dominant",)),
    "x5": (RUD, ("dominant",)),
    "x6": (UKD, ("unknown",)),
    "x7": (RUD, ("dominant",)),
    "x8": (SID, ("no-secret",)),
    "x9": (RUD, ("dominant",)),
}


@pytest.fixture(scope="module")
def cube():
    return parse((corpus_dir() / "cube.mv").read_text())


class TestPrograms:
    def test_cube_judgements(self, cube):
        for name, (dist, trace) in EXPECTED_CUBE.items():
            j = infer(expr_of(cube, name), D8)
            assert j.dist is dist, name
            assert j.rule_trace == trace, name

    def test_cube_fixed_fully_typed(self):
        p = parse((corpus_dir() / "cube_fixed.mv").read_text())
        for name in p.internals:
            j = infer(expr_of(p, name), D8)
            assert j.dist in (RUD, SID), name

    def test_secmult_fully_typed(self):
        p = parse((corpus_dir() / "secmult.mv").read_text())
        expected = {
            "a0": RUD, "b0": RUD,
            "t0": SID, "t1": SID, "t2": SID, "t3": SID,
            "s1": RUD, "s2": RUD, "c0": RUD, "c1": RUD,
        }
        for name, dist in expected.items():
            assert infer(expr_of(p, name), D8).dist is dist, name


# J = (k & r0) ^ (r0 & r1) is secret independent, but the rules leave it
# UKD. It first appears inside a's reduced expansion ((J ^ p) & r2), where
# J ^ p is judged UKD too and not stored; c's expansion then reduces to
# J, which is stored as counted. g reduces to (J ^ p) & r3, which the
# rules close only if J ^ p is judged again with J recalled.
STALE = parse("""
fn Stale(k: secret, r0: random, r1: random, r2: random, r3: random,
         p: public, q: public, s: public) {
  a1 = k & r0;
  a2 = r0 & r1;
  kq = k & q;
  b = a2 ^ kq;
  j = a1 ^ b;
  m = j ^ p;
  w = m & r2;
  v = kq & r2;
  a = w ^ v;
  t = s & 0;
  a4 = a2 ^ t;
  c = a1 ^ a4;
  w3 = m & r3;
  v3 = kq & r3;
  g = w3 ^ v3;
  return g;
}
""")


class TestRunMemo:
    def test_store_entry_below_a_kept_judgement(self):
        d = make_domain(2)
        shared = pm_check(STALE, EngineConfig(d))
        fresh_infer = infer
        with mock.patch.object(verify, "infer",
                               lambda e, d, store, memo:
                               fresh_infer(e, d, store)):
            fresh = pm_check(STALE, EngineConfig(d))
        assert [(v.name, v.dist, v.method, v.rule_trace)
                for v in shared.verdicts] == \
            [(v.name, v.dist, v.method, v.rule_trace)
             for v in fresh.verdicts]
        g = shared.verdicts[-1]
        assert (g.name, g.dist, g.method) == ("g", SID, METHOD_REDUCED)
        assert g.rule_trace == ("recalled", "no-secret", "independent-op",
                                "dominant", "independent-op")

    def test_memo_is_over_one_domain(self):
        # 256 is 0 in an 8-bit word, so r0 dominates only without a domain
        e = binop("@", R0, const(256))
        memo = RunMemo(D8)
        assert dominant_vars(e, D8, memo) == set()
        assert dominant_vars(e, None, RunMemo()) == {"r0"}
        with pytest.raises(ValueError, match="memo is over"):
            dominant_vars(e, None, memo)
        with pytest.raises(ValueError, match="memo is over"):
            infer(e, make_domain(4), memo=memo)


# --- variable-set masks against their definitions ---------------------------

PRODUCT_CONSTANTS = (0, 1, 2, 3, 255, 256, 257, 512)   # 256, 512: 0 at 8 bits


def random_dag(rng: random.Random) -> ex.Expr:
    """An expression whose later nodes reuse earlier ones, so subterms
    are shared and operands are often equal."""
    pool = [R0, R1, var("r2", ex.RANDOM), K, K2, P]
    for _ in range(rng.randint(1, 7)):
        a, b = rng.choice(pool), rng.choice(pool)
        roll = rng.random()
        if roll < 0.1:
            node = neg(a)
        elif roll < 0.3:
            c = const(rng.choice(PRODUCT_CONSTANTS))
            node = binop(rng.choice("*@"), *rng.sample((a, c), 2))
        elif roll < 0.35:
            node = binop(rng.choice(("<<", ">>")), a, const(1))
        else:
            node = binop(rng.choice("^^+-&|*@@"), a, b)
        pool.append(node)
    return pool[-1]


def reference_reach(e: ex.Expr, d) -> set[str]:
    """Randoms reachable from e through bijective steps, by definition:
    ^, ~, + and -, and * (@) with a constant operand that is odd
    (nonzero) once masked to the word."""
    if isinstance(e, ex.Var):
        return {e.name} if e.kind == ex.RANDOM else set()
    if isinstance(e, ex.Unary):
        return reference_reach(e.operand, d)
    if not isinstance(e, ex.Binary):
        return set()
    both = reference_reach(e.left, d) | reference_reach(e.right, d)
    if e.op in "^+-":
        return both
    unit = {"*": lambda c: c % 2 == 1, "@": lambda c: c != 0}.get(e.op)
    constants = [c.value if d is None else c.value & d.mask
                 for c in (e.left, e.right) if isinstance(c, ex.Const)]
    return both if unit and any(map(unit, constants)) else set()


def reference_dominant(e: ex.Expr, d) -> set[str]:
    once = {v.name for v, k in var_counts(e).items()
            if v.kind == ex.RANDOM and k == 1}
    return once & reference_reach(e, d)


def reference_infer(e: ex.Expr, d) -> tuple:
    """(dist, rule trace) by the rules in their order, on name sets."""
    def secret(n):
        return isinstance(n, ex.Var) and n.kind == ex.SECRET

    if reference_dominant(e, d):
        return RUD, ("dominant",)
    if not any(map(secret, var_counts(e))):
        return SID, ("no-secret",)
    if secret(e):
        return SDD, ("secret",)
    if isinstance(e, ex.Binary) and e.left is e.right and e.op in "^-":
        return SID, ("self-cancel",)
    if isinstance(e, ex.Unary):
        dist, trace = reference_infer(e.operand, d)
        return (UKD, ("unknown",)) if dist is UKD else \
            (dist, trace + ("complement",))
    (ld, lt), (rd, rt) = reference_infer(e.left, d), \
        reference_infer(e.right, d)
    if e.left is e.right:
        if at_most_sid(ld):
            return SID, lt + ("self-op",)
        if ld is SDD and e.op in "&|":
            return SDD, lt + ("self-absorb",)
    both = lt + rt
    product = e.op in "&|*@"
    fresh_left = reference_dominant(e.left, d) - ex.rvars(e.right)
    fresh_right = reference_dominant(e.right, d) - ex.rvars(e.left)
    if product and ld is RUD and rd is RUD:
        if fresh_left:
            return SID, both + ("masked-product",)
        if fresh_right:
            return SID, both + ("masked-product", "commute")
    if at_most_sid(ld) and at_most_sid(rd) and \
            not ex.rvars(e.left) & ex.rvars(e.right):
        return SID, both + ("independent-op",)
    if product:
        if secret(e.left) and rd is RUD and fresh_right:
            return SDD, both + ("tainted-product",)
        if secret(e.right) and ld is RUD and fresh_left:
            return SDD, both + ("tainted-product", "commute")
    return UKD, ("unknown",)


class TestMasksAgainstReference:
    @pytest.mark.parametrize("d", [None, make_domain(2), D8],
                             ids=["unmasked", "2-bit", "8-bit"])
    def test_dominance_and_rules_match_definitions(self, d):
        rng = random.Random(15)
        memo = RunMemo(d)   # one run's memo, shared by every expression
        fired = set()
        for _ in range(600):
            e = random_dag(rng)
            want = reference_dominant(e, d)
            assert dominant_vars(e, d) == want, ex.pretty(e)
            assert dominant_vars(e, d, memo) == want, ex.pretty(e)
            j = infer(e, d)
            assert (j.dist, j.rule_trace) == reference_infer(e, d), \
                ex.pretty(e)
            assert infer(e, d, memo=memo) == j
            fired.update(j.rule_trace)
        assert {"dominant", "no-secret", "masked-product", "independent-op",
                "tainted-product", "self-op", "complement"} <= fired


def isw_text(order: int) -> str:
    """ISW multiplication of a and b at the given order: shares
    x_i = a_i (i > 0) and x_0 = a ^ a_1 ^ ... (likewise y for b), a
    fresh r_i_j for each i < j, outputs c_i = x_i y_i ^ (cross terms)."""
    n = order + 1
    randoms = [f"{s}{i}" for s in "ab" for i in range(1, n)] + \
        [f"r{i}_{j}" for i in range(n) for j in range(i + 1, n)]
    params = ", ".join(["a: secret", "b: secret"]
                       + [f"{r}: random" for r in randoms])
    lines = [f"fn Isw({params}) {{"]
    xs, ys = ["x0"], ["y0"]
    for s, shares in (("a", xs), ("b", ys)):
        tail = [f"{s}{i}" for i in range(1, n)]
        lines.append(f"  {shares[0]} = {' ^ '.join([s] + tail)};")
        shares += tail
    cross = {}
    for i in range(n):
        for j in range(i + 1, n):
            lines.append(f"  s{i}_{j} = r{i}_{j} ^ ({xs[i]} @ {ys[j]});")
            lines.append(f"  s{j}_{i} = s{i}_{j} ^ ({xs[j]} @ {ys[i]});")
            cross[i, j], cross[j, i] = f"r{i}_{j}", f"s{j}_{i}"
    for i in range(n):
        terms = [f"({xs[i]} @ {ys[i]})"] + \
            [cross[i, j] for j in range(n) if j != i]
        lines.append(f"  c{i} = {' ^ '.join(terms)};")
    lines += [f"  return {', '.join(f'c{i}' for i in range(n))};", "}"]
    return "\n".join(lines)


def test_runs_read_variable_sets_from_the_memo_only():
    # every stage of a run reads a node's variables from the memo's
    # bitmasks, never from a walk of the expr module
    corpus = [parse(path.read_text())
              for path in sorted(corpus_dir().glob("*.mv"))]
    with mock.patch.object(ex, "variables", wraps=ex.variables) as names, \
            mock.patch.object(ex, "rvars", wraps=ex.rvars) as randoms:
        for p in corpus:
            qms_compute(p, EngineConfig(D8))
        chain = qms_compute(parse(deep_chain(50)),
                            EngineConfig(make_domain(4)))
        isw = pm_check(parse(isw_text(5)), EngineConfig(D8, "type-only"))
    assert names.call_count == randoms.call_count == 0
    assert any(v.method == METHOD_COUNT_BF for v in chain.verdicts)
    assert len(isw.verdicts) > 100
    assert all(v.method == METHOD_TYPE and v.dist is not UKD
               for v in isw.verdicts)
