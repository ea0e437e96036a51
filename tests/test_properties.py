"""Property tests: the enumerator against naive scalar references, and
the deciders against each other.

Random expressions at widths 1-3 over a leaf pool that includes
publics and variables that cannot change the value. `distribution`,
`check_si`, `qms_exact`, `is_effective` and `effective_variables` are
compared with references built from `eval_expr` and
`itertools.product`, whose loops run in lexicographic order, so the
first gap they meet is the witness the enumerator must report. Each of
these properties runs twice: with the default chunk, and with
`counting._CHUNK_CELLS` at 16 cells, so that rows wider than a chunk
come in column slices.

The differential properties check that every reduction pass, and
`simplify`, keeps the strength and the secret-independence answer of
counting, and that the type rules never contradict counting; zeroing
the ineffective leaves in one walk gives the node that one `replace`
per leaf gives.

The run-memo properties check that sharing one `RunMemo` across calls
changes no answer: judgements as the store grows, kept block values
as the expressions of a run follow one another, and reductions of forms
that contain earlier forms or their reduced forms.

The bit-serial properties check that counting an expression of `^ & |
~ + -` one bit position at a time gives enumeration's count matrix, and
so the same answers and witnesses, at widths 1-4 and on Goubin's
conversion at 8 bits, and that at 8 bits a Boolean-only expression's
matrix is the product of its 1-bit matrix over the bits.

The word-width properties check that evaluation keeps values in the
domain's own type (`d.dtype`) at every width and operator, with the
values a uint32 evaluation and the scalar evaluator give, and that the
blocks an 8-bit count tallies are bytes.
"""

import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maskcheck import (
    MAX_BITS,
    METHOD_COUNT_BF,
    RUD,
    SDD,
    SID,
    UKD,
    EngineConfig,
    Qms,
    RunMemo,
    SolverSession,
    apply_algebraic_laws,
    apply_meta_theorems,
    check_sat,
    check_si,
    check_uniform,
    counting,
    distribution,
    effective_variables,
    eliminate_dominated,
    eliminate_ineffective,
    encode_psi,
    eval_expr,
    eval_vec,
    expr_of,
    gf_mul_vec,
    infer,
    is_effective,
    make_domain,
    parse,
    pm_check,
    qms_compute,
    qms_exact,
    qms_smt,
    simplify,
    smt,
)
from maskcheck import domain
from maskcheck import expr as ex
from maskcheck.domain import BINARY_OPS, UNARY_OPS
from conftest import GOUBIN, replayed_gap, var_counts
from fragment_solver import decide
from randprog import BINOPS, random_expr, random_program

FIXED = (ex.var("k", ex.SECRET), ex.var("k2", ex.SECRET),
         ex.var("p", ex.PUBLIC))
RANDOMS = tuple(ex.var(f"r{i}", ex.RANDOM) for i in range(5))
OPS = ("^", "&", "|", "+", "-", "*", "@")
CELL_BITS = 8       # bits * |variables| <= 8: at most 256 assignments

K, K2, P = FIXED
R0, R1, R2, R3, R4 = RANDOMS

CHUNKS = pytest.mark.parametrize("chunk", [counting._CHUNK_CELLS, 16])
PROPERTY = settings(derandomize=True, max_examples=40, deadline=None,
                    database=None)


def property_test(fn):
    """Run fn on drawn cases, plus two leaky ones whose rows are wider
    than 16 cells, which the draws seldom produce."""
    leaky2 = ex.binop("&", K2, ex.binop("^", R0, ex.binop("&", R1, R2)))
    leaky1 = ex.binop("|", ex.binop("^", ex.binop("&", K, R0), ex.binop(
        "+", ex.binop("&", R1, R2), ex.binop("@", R3, R4))), P)
    fn = example(case=(leaky2, make_domain(2)))(fn)
    fn = example(case=(leaky1, make_domain(1)))(fn)
    return CHUNKS(PROPERTY(given(case=cases())(fn)))


@st.composite
def cases(draw, max_bits=3, random_bits=CELL_BITS):
    """(e, domain): at most max_bits wide, bits * |randoms| <= random_bits."""
    bits = draw(st.integers(1, max_bits))
    room = CELL_BITS // bits
    leaves = [v for v in FIXED + RANDOMS if draw(st.booleans())][:room]
    rands = [v for v in leaves if v.kind == ex.RANDOM][random_bits // bits:]
    leaves = [v for v in leaves if v not in rands]
    leaf = st.integers(0, (1 << bits) - 1).map(ex.const)
    if leaves:
        leaf = st.one_of(st.sampled_from(leaves), leaf)

    def extend(inner):
        return st.one_of(
            inner.map(ex.neg),
            st.builds(ex.binop, st.sampled_from(OPS), inner, inner),
            st.builds(lambda op, e, n: ex.binop(op, e, ex.const(n)),
                      st.sampled_from(ex.SHIFT_OPS), inner,
                      st.integers(0, bits - 1)),
            # v & 0 keeps v in the expression but not in its value
            st.builds(lambda e, v: ex.binop("^", e,
                                            ex.binop("&", v, ex.ZERO)),
                      inner, leaf))

    e = draw(st.recursive(leaf, extend, max_leaves=8))
    # every pool variable occurs, so the space is as wide as the pool
    for v in leaves:
        e = ex.binop(draw(st.sampled_from(OPS)), e, v)
    return e, make_domain(bits)


# --- naive references ---------------------------------------------------------

def ref_distribution(e, sigma, d):
    rands = sorted(ex.rvars(e))
    counts = [0] * d.size
    for values in itertools.product(range(d.size), repeat=len(rands)):
        counts[eval_expr(e, {**sigma, **dict(zip(rands, values))}, d)] += 1
    return counts


def sigmas(e, d):
    names = sorted(ex.variables(e) - ex.rvars(e))
    return [dict(zip(names, values))
            for values in itertools.product(range(d.size), repeat=len(names))]


def ref_pairs(e, d):
    """(sigma1, counts1, sigma2, counts2) over sigma pairs that agree
    on the publics, in lexicographic order."""
    publics = {v.name for v in var_counts(e) if v.kind == ex.PUBLIC}
    dists = [(s, ref_distribution(e, s, d)) for s in sigmas(e, d)]
    for s1, c1 in dists:
        for s2, c2 in dists:
            if all(s1[p] == s2[p] for p in publics):
                yield s1, c1, s2, c2


def ref_check_si(e, d):
    for s1, c1, s2, c2 in ref_pairs(e, d):
        if c1 != c2:
            return False, (s1, s2)
    return True, None


def ref_qms(e, d):
    den = d.size ** len(ex.rvars(e))
    gap, witness = 0, None
    for s1, c1, s2, c2 in ref_pairs(e, d):
        for c in range(d.size):
            if c1[c] - c2[c] > gap:
                gap, witness = c1[c] - c2[c], (s1, s2, c)
    return Qms(den - gap, den, witness)


def ref_is_effective(x, e, d):
    names = sorted(ex.variables(e))
    others = [n for n in names if n != x]
    for values in itertools.product(range(d.size), repeat=len(others)):
        env = dict(zip(others, values))
        if len({eval_expr(e, {**env, x: v}, d) for v in range(d.size)}) > 1:
            return True
    return False


# --- properties -----------------------------------------------------------------

@property_test
def test_distribution(chunk, case):
    e, d = case
    with mock.patch.object(counting, "_CHUNK_CELLS", chunk):
        for sigma in sigmas(e, d):
            got = distribution(e, {**sigma, "unused": 1}, d)
            assert got.total == d.size ** len(ex.rvars(e))
            assert got.counts.tolist() == ref_distribution(e, sigma, d)


@property_test
def test_check_si(chunk, case):
    e, d = case
    with mock.patch.object(counting, "_CHUNK_CELLS", chunk):
        assert check_si(e, d) == ref_check_si(e, d)


@property_test
def test_qms_exact(chunk, case):
    e, d = case
    with mock.patch.object(counting, "_CHUNK_CELLS", chunk):
        assert counting.qms_exact(e, d) == ref_qms(e, d)


@property_test
def test_is_effective(chunk, case):
    e, d = case
    with mock.patch.object(counting, "_CHUNK_CELLS", chunk):
        for x in sorted(ex.variables(e)):
            assert is_effective(x, e, d) == ref_is_effective(x, e, d), x
        assert not is_effective("absent", e, d)
        assert effective_variables(e, d) == {
            x for x in ex.variables(e) if ref_is_effective(x, e, d)}


# --- differential: reductions and type rules against counting -------------------

PASSES = {
    "eliminate_ineffective": eliminate_ineffective,
    "apply_algebraic_laws": lambda e, d: apply_algebraic_laws(e),
    "eliminate_dominated": eliminate_dominated,
    "apply_meta_theorems": apply_meta_theorems,
    "simplify": simplify,
}


def differential_test(fn):
    """Run fn on drawn cases, plus two that the collapsing passes must
    leave alone or rewrite: r0 occurs outside the subterm it dominates,
    and the built-in meta-theorem fires."""
    shared = ex.binop("^", ex.binop("^", R0, K), R0)
    meta = ex.binop("^", R0, ex.binop("&", ex.binop("*", ex.const(2), R0),
                                      ex.binop("|", K, P)))
    fn = example(case=(shared, make_domain(2)))(fn)
    fn = example(case=(meta, make_domain(2)))(fn)
    return settings(PROPERTY, max_examples=100)(given(case=cases())(fn))


@differential_test
def test_reductions_keep_the_counted_answers(case):
    e, d = case
    strength = qms_exact(e, d).fraction
    si = check_si(e, d)[0]
    for name, reduce in PASSES.items():
        e_hat = reduce(e, d)
        assert qms_exact(e_hat, d).fraction == strength, name
        assert check_si(e_hat, d)[0] == si, name


@settings(PROPERTY, max_examples=100)
@given(case=cases())
@example(case=(ex.binop("^", ex.binop("^", ex.binop("+", K, R0), ex.binop(
    "&", R1, ex.ZERO)), ex.binop("*", ex.binop("&", P, ex.ZERO), R1)),
    make_domain(2)))
def test_zeroing_in_one_walk_equals_one_replace_per_leaf(case):
    """eliminate_ineffective zeroes every ineffective leaf in one walk;
    one `replace` per leaf gives the same interned node."""
    e, d = case
    effective = effective_variables(e, d)
    expected = e
    for leaf in sorted(var_counts(e), key=ex.pretty):
        if leaf.name not in effective:
            expected = ex.replace(expected, leaf, ex.ZERO)
    assert eliminate_ineffective(e, d) is expected


@differential_test
def test_type_rules_agree_with_counting(case):
    e, d = case
    for form in (e, simplify(e, d)):
        dist = infer(form, d).dist
        strength = qms_exact(form, d).fraction
        if dist is RUD:
            assert check_uniform(form, d)
        if dist in (RUD, SID):
            assert strength == 1, ex.pretty(form)
        elif dist is SDD:
            assert strength < 1, ex.pretty(form)


# --- counted once: qms_compute against the two-stage reference ----------------

# y's reduced expansion keeps no random: SDD with QMS 0/1 and a pair witness
BARE = parse("""
fn Bare(k: secret, p: public, r0: random) {
  a = k @ k;
  y = a ^ p;
  return y;
}
""")


def check_counted_once(p, d):
    """qms_compute gives pm_check's verdicts, and every counted variable
    the strength and witness of qms_exact on its reduced expansion."""
    cfg = EngineConfig(d)
    report = qms_compute(p, cfg)
    reference = pm_check(p, cfg)
    for v, ref in zip(report.verdicts, reference.verdicts, strict=True):
        assert (v.name, v.dist, v.method) == (ref.name, ref.dist, ref.method)
        if v.method != METHOD_COUNT_BF:
            continue
        e_hat = report.reduced[v.name]
        qms = qms_exact(e_hat, d)
        assert v.qms.fraction == qms.fraction, v.name
        if v.dist is SDD and not ex.rvars(e_hat):
            assert v.qms == Qms(0, 1), v.name
            assert v.witness == ref.witness == check_si(e_hat, d)[1], v.name
        elif v.dist is SDD:
            assert v.witness == qms.witness, v.name
    return report


programs = st.builds(
    lambda seed, bits: (random_program(random.Random(seed), bits),
                        make_domain(bits)),
    st.integers(0, 2**32 - 1), st.integers(2, 3))


@settings(PROPERTY, max_examples=150)
@given(case=programs)
def test_qms_compute_counts_like_two_stages(case):
    check_counted_once(*case)


@pytest.mark.parametrize("bits", [2, 3])
def test_counted_without_randoms_keeps_the_pair(bits):
    y = check_counted_once(BARE, make_domain(bits)).verdicts[-1]
    assert (y.name, y.dist, y.method) == ("y", SDD, METHOD_COUNT_BF)
    assert y.witness == ({"k": 0, "p": 0}, {"k": 1, "p": 0})


# --- differential: the solver's strength against counting ----------------------

FRAGMENT_SOLVER = \
    f"{sys.executable} {Path(__file__).resolve().parent / 'fragment_solver.py'}"


# each search starts a solver process (about 70 ms): few draws, m <= 4
@settings(PROPERTY, max_examples=12)
@given(case=cases(max_bits=2, random_bits=4))
def test_solver_strength_matches_counting(case):
    e, d = case
    e_hat = simplify(e, d)
    stats = {}
    got = qms_smt(e_hat, d, FRAGMENT_SOLVER, stats=stats)
    assert got.fraction == qms_exact(e_hat, d).fraction, ex.pretty(e_hat)
    assert stats["queries"] <= stats["m"] + 1, stats
    # the fragment solver always gives a model: every gap is replayed
    if got.num < got.den:
        assert replayed_gap(e_hat, d, got.witness) == got.den - got.num
    else:
        assert got.witness is None


# one session, each prefix sent once, against a fresh process per
# threshold and the standalone script decided whole: few draws, m <= 3
@settings(PROPERTY, max_examples=8)
@given(case=cases(max_bits=2, random_bits=3))
def test_session_answers_as_a_fresh_solver(case):
    e, d = case
    e_hat = simplify(e, d)
    copies = d.size ** len(ex.rvars(e_hat))
    prefix = None
    with SolverSession(FRAGMENT_SOLVER) as session:
        for t in range(copies + 1):
            q = Fraction(copies - t, copies)
            query = encode_psi(e_hat, q, d, prefix)
            prefix = query.prefix
            whole = encode_psi(e_hat, q, d)
            got = check_sat(query, session)
            fresh = check_sat(whole, FRAGMENT_SOLVER)
            assert (got.kind, got.model) == (fresh.kind, fresh.model), \
                (ex.pretty(e_hat), q)
            lines = decide(whole.text)
            assert lines[0] == got.kind
            if got.kind == "sat":
                assert got.model == smt._parse_model(lines[1])


# --- one run memo: shared against fresh --------------------------------------

@settings(PROPERTY, max_examples=100)
@given(case=cases())
def test_subterms_orders_by_size_then_print(case):
    e, _ = case
    assert ex.subterms(e) == sorted(ex.postorder(e),
                                    key=lambda t: (ex.size(t), ex.pretty(t)))


def program_forms(rng, d):
    """Each variable's expansion, in program order."""
    p = random_program(rng, d.bits, n_stmts=8)
    for x in p.internals:
        yield expr_of(p, x)


def chain_forms(rng, d):
    """A random expression grown step by step, as a chain of variables
    grows, with subterms of its own that no variable names."""
    e = random_expr(rng, d.bits)
    for _ in range(5):
        e = ex.binop(rng.choice(BINOPS), e, random_expr(rng, d.bits, depth=2))
        yield e


@pytest.mark.parametrize("forms", [program_forms, chain_forms])
@settings(PROPERTY, max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), bits=st.integers(2, 4))
def test_shared_judgements_equal_fresh_ones(forms, seed, bits):
    """Every form seen so far and its reduced form, typed with one memo
    while store entries land on random subterms the rules leave UKD
    (where an entry can change a judgement), as fresh calls type them
    with the same store."""
    rng = random.Random(seed)
    d = make_domain(bits)
    memo = RunMemo(d)
    store = {}
    seen = []
    for e in forms(rng, d):
        seen += [e, simplify(e, d, memo=memo)]
        for form in seen:
            assert infer(form, d, store, memo) == infer(form, d, store)
        nodes = [n for form in seen[-2:] for n in ex.postorder(form)
                 if infer(n, d, store).dist is UKD]
        for node in rng.sample(nodes, min(3, len(nodes))):
            store[node] = rng.choice((RUD, SID, SDD))
            memo.forget(node)


def reducible_forms(rng, d):
    """A random expression grown step by step on itself, on its reduced
    form or on a subterm of its reduced form (which may fire in a
    context of its own), with ineffective leaves `v & 0` and shapes
    `r ^ ((2 * r) & e)` of the built-in pattern spliced in."""
    e = random_expr(rng, d.bits)
    for _ in range(6):
        part = random_expr(rng, d.bits, depth=2)
        roll = rng.random()
        if roll < 0.3:
            v = rng.choice(sorted(var_counts(part), key=ex.pretty)
                           or [ex.ONE])
            part = ex.binop("^", part, ex.binop("&", v, ex.ZERO))
        elif roll < 0.6:
            r = ex.var(f"r{rng.randrange(3)}", ex.RANDOM)
            part = ex.binop("^", r, ex.binop(
                "&", ex.binop("*", ex.const(2), r), part))
        reduced = simplify(e, d)
        base = rng.choice((e, reduced, rng.choice(ex.postorder(reduced))))
        e = ex.binop(rng.choice(BINOPS), base, part)
        yield e


@settings(PROPERTY, max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), bits=st.integers(1, 3))
def test_shared_reductions_equal_fresh_ones(seed, bits):
    """simplify with one memo over a run of forms built on each other,
    whose scans skip the forms already reduced, gives what a fresh
    simplify gives."""
    rng = random.Random(seed)
    d = make_domain(bits)
    memo = RunMemo(d)
    for e in reducible_forms(rng, d):
        assert simplify(e, d, memo=memo) is simplify(e, d)


@pytest.mark.parametrize("jobs", [1, 4])
@settings(PROPERTY, max_examples=40)
@given(case=cases(), data=st.data())
def test_kept_blocks_equal_fresh_evaluation(jobs, case, data):
    """Counting a run of expressions, each built on the one before or
    unrelated to it, with one memo gives the answers of fresh calls; and
    eval_vec stopped at any subterm's values gives the whole values."""
    e, d = case
    leaves = sorted(var_counts(e), key=ex.pretty) or [ex.ONE]
    forms = [e]
    for _ in range(data.draw(st.integers(1, 3))):
        forms.append(ex.binop(data.draw(st.sampled_from(OPS)),
                              forms[-1], data.draw(st.sampled_from(leaves))))
    forms += [simplify(forms[-1], d), e, forms[-1]]
    memo = RunMemo(d)
    for form in forms:
        assert qms_exact(form, d, jobs=jobs, memo=memo) == \
            qms_exact(form, d, jobs=jobs)
        assert check_si(form, d, jobs=jobs, memo=memo) == \
            check_si(form, d, jobs=jobs)
        assert effective_variables(form, d, memo) == \
            effective_variables(form, d)

    names = sorted(ex.variables(e))
    env = counting._digits(np.arange(d.size ** len(names), dtype=np.uint64),
                           names, d)
    whole = np.broadcast_to(eval_vec(e, env, d), (d.size ** len(names),))
    for t in ex.postorder(e):
        got = eval_vec(e, env, d, {t: eval_vec(t, env, d)})
        assert np.array_equal(np.broadcast_to(got, whole.shape), whole)


# --- bit-serial counting against enumeration -----------------------------------

SERIAL_OPS = tuple(op for op, o in domain.OPS.items()
                   if o.level and (o.bitwise or o.carries))
CARRYING = tuple(op for op, o in domain.OPS.items() if o.carries)
BOOLEAN = tuple(op for op, o in domain.OPS.items() if o.level and o.bitwise)


@st.composite
def serial_cases(draw, ops=SERIAL_OPS, consts=None, max_bits=4,
                 cell_bits=12, fixed=FIXED, randoms=3):
    """(e, domain): e of bitwise and carrying operators only, over a
    random and at most cell_bits // bits others drawn from `fixed` and
    `randoms` randoms, so maybe no secret, maybe a public; constants may
    be wider than the word. Drawing its own carrying subterm into e
    twice makes a shared carry."""
    bits = draw(st.integers(1, max_bits))
    pool = [v for v in fixed + RANDOMS[:randoms] if draw(st.booleans())]
    leaves = pool[:cell_bits // bits] + [draw(st.sampled_from(RANDOMS[:2]))]
    leaf = st.sampled_from(leaves) | (
        st.sampled_from(consts) if consts else
        st.integers(0, (1 << bits + 3) - 1)).map(ex.const)
    e = draw(st.recursive(leaf, lambda inner: st.one_of(
        inner.map(ex.neg),
        st.builds(ex.binop, st.sampled_from(ops), inner, inner)),
        max_leaves=8))
    for v in leaves:    # every pool variable occurs
        if v not in var_counts(e):
            e = ex.binop(draw(st.sampled_from(ops)), e, v)
    if set(ops) & set(CARRYING) and draw(st.booleans()):
        shared = ex.binop(draw(st.sampled_from(CARRYING)), e,
                          draw(st.sampled_from(leaves)))
        e = ex.binop(draw(st.sampled_from(ops)),
                     ex.binop(draw(st.sampled_from(ops)), shared, e), shared)
    return e, make_domain(bits)


def serial_forced(on):
    return mock.patch.object(counting, "_bit_serial_pays",
                             lambda *args: on)


@settings(PROPERTY, max_examples=200)
@given(case=serial_cases())
def test_bit_serial_matrix_equals_enumeration(case):
    e, d = case
    space, _ = counting._sigma_space(e, d, 1 << 20)
    serial = counting._bit_serial_counts(e, d, space.rows, space.cols)
    with serial_forced(False):
        enumerated = counting._counts_matrix(e, d, space, 1, None)
    assert serial.dtype == enumerated.dtype == np.uint32
    assert np.array_equal(serial, enumerated), ex.pretty(e)
    answers = []
    for on in (True, False):
        with serial_forced(on):
            answers.append((check_si(e, d), qms_exact(e, d),
                            check_uniform(e, d)))
    assert answers[0] == answers[1], ex.pretty(e)


def test_bit_serial_counts_goubins_conversion_at_8_bits():
    d = make_domain(8)
    e = expr_of(parse(GOUBIN), "a")
    space, _ = counting._sigma_space(e, d, counting.DEFAULT_BUDGET)
    assert counting._bit_serial_pays(e, d, space)
    serial = counting._bit_serial_counts(e, d, space.rows, space.cols)
    with serial_forced(False):
        assert np.array_equal(
            serial, counting._counts_matrix(e, d, space, 1, None))
    # a = x - r for every g: uniform, as the gadget promises
    assert (serial == 1 << 8).all()


@PROPERTY
@given(case=serial_cases(ops=BOOLEAN, consts=(0, 0xFF), max_bits=1,
                         cell_bits=5, fixed=(K,), randoms=4))
@example(case=(ex.binop("^", ex.binop("&", K, R0), ex.binop("&", R1, R2)),
               make_domain(1)))
def test_bit_serial_boolean_counts_are_products_of_one_bit(case):
    """A Boolean-only e acts on each bit apart, so its 8-bit count of
    (sigma, v) is the product over bits i of its 1-bit count of (bit i
    of sigma, bit i of v). Constants 0 and 0xFF are every bit alike;
    one secret at most keeps the 8-bit matrix at 2^8 rows. Called past
    the S x F gate: (k & r0) ^ (r1 & r2) has 2^32 cells."""
    e, d1 = case
    space, _ = counting._sigma_space(e, d1, 1 << 20)
    with serial_forced(False):
        one = counting._counts_matrix(e, d1, space, 1, None)
    d8 = make_domain(8)
    got = counting._bit_serial_counts(e, d8, space.rows, space.cols)
    sigma = np.arange(len(got))[:, None] if space.rows else 0
    value = np.arange(d8.size)[None, :]
    want = np.ones(got.shape, dtype=np.uint64)
    for i in range(8):
        want *= one[sigma >> i & 1, value >> i & 1]
    assert np.array_equal(got, want), ex.pretty(e)


# --- word width -----------------------------------------------------------------

X, Y = ex.var("x", ex.SECRET), ex.var("y", ex.RANDOM)


def one_op_forms(op, c, bits):
    """Each operand shape of op: variables, and constants on either side."""
    if op == "~":
        return [ex.neg(X), ex.neg(ex.const(c))]
    if op in ex.SHIFT_OPS:
        amount = ex.const(c % bits)
        return [ex.binop(op, X, amount), ex.binop(op, ex.const(c), amount)]
    return [ex.binop(op, X, Y), ex.binop(op, X, ex.const(c)),
            ex.binop(op, ex.const(c), Y)]


@pytest.mark.parametrize("bits", range(1, MAX_BITS + 1))
@settings(PROPERTY, max_examples=10)
@given(data=st.data())
def test_eval_vec_keeps_the_domain_width(bits, data):
    d = make_domain(bits)
    words = st.lists(st.integers(0, d.mask), min_size=8, max_size=8)
    x, y = data.draw(words), data.draw(words)
    c = data.draw(st.integers(0, d.mask))
    narrow = {"x": np.array(x, dtype=d.dtype),
              "y": np.array(y, dtype=d.dtype)}
    wide = {n: v.astype(np.uint32) for n, v in narrow.items()}
    for op in BINARY_OPS + UNARY_OPS:
        for e in one_op_forms(op, c, bits):
            got = eval_vec(e, narrow, d)
            assert got.dtype == d.dtype, (op, ex.pretty(e))
            assert np.array_equal(got, eval_vec(e, wide, d))
            got = np.broadcast_to(got, (8,))
            for i in range(8):
                assert int(got[i]) == eval_expr(e, {"x": x[i], "y": y[i]}, d)


@pytest.mark.parametrize("bits", range(1, 9))
@settings(PROPERTY, max_examples=10)
@given(data=st.data())
def test_gf_mul_paths_keep_the_domain_width(bits, data):
    d = make_domain(bits)
    words = st.lists(st.integers(0, d.mask), min_size=16, max_size=16)
    a = np.array(data.draw(words), dtype=d.dtype)
    b = np.array(data.draw(words), dtype=d.dtype)
    table, direct = gf_mul_vec(a, b, d), gf_mul_vec(a, b, d, _direct=True)
    assert table.dtype == direct.dtype == d.dtype
    assert np.array_equal(table, direct)


def test_counting_blocks_are_bytes_at_8_bits():
    d = make_domain(8)
    e = ex.binop("^", K, R0)
    for op, right in (("&", ex.const(0x5A)), ("|", R1), ("+", ex.const(7)),
                      ("-", K), ("*", R0), ("@", ex.const(3)),
                      ("<<", ex.const(1)), (">>", ex.const(2))):
        e = ex.binop(op, e, right)
    e = ex.neg(e)
    seen = set()
    blocks = counting._Space.blocks

    def spy(space, *args):
        for r, f, block in blocks(space, *args):
            seen.add(block.dtype)
            yield r, f, block

    with mock.patch.object(counting._Space, "blocks", spy):
        qms_exact(e, d)
    assert seen == {np.dtype(np.uint8)}
