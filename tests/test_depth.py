"""Expression depth and buffer lifetime: long programs expand into deep
expressions, and no stage may recurse on that depth or keep dead
intermediate arrays alive."""

import gc
import importlib
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from maskcheck import (
    RANDOM,
    RUD,
    SECRET,
    EngineConfig,
    ParseError,
    binop,
    const,
    encode_psi,
    eval_vec,
    expr_of,
    make_domain,
    parse,
    pm_check,
    qms_compute,
    subterms,
    var,
)
from maskcheck import expr as ex
from maskcheck.domain import gf_table
from maskcheck.program import MAX_NESTING
from conftest import deep_chain


def stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def test_pipeline_runs_in_bounded_stack():
    headroom = 100
    text = deep_chain(headroom + 50)
    d = make_domain(2)
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + headroom)
    try:
        p = parse(text)
        checked = pm_check(p, EngineConfig(d))
        report = qms_compute(p, EngineConfig(d))
        query = encode_psi(expr_of(p, p.internals[-1]), "1/2", d)
    finally:
        sys.setrecursionlimit(saved)
    assert len(report.verdicts) == headroom + 51
    assert [v.dist for v in checked.verdicts] == \
        [v.dist for v in report.verdicts]
    assert all(v.method != "inconclusive" for v in report.verdicts)
    assert query.m == 4 and query.text.endswith(
        "(check-sat)\n(get-value (k_k kk_k c))\n")


def test_type_only_on_deep_chain_completes():
    p = parse(deep_chain(2000))
    report = pm_check(p, EngineConfig(make_domain(4), engine="type-only"))
    assert len(report.verdicts) == 2001
    assert report.verdicts[0].dist is RUD


def test_chain_costs_grow_linearly():
    # one run shares judgements, kept block values, law passes and
    # settled reductions across variables: doubling a chain about
    # doubles the closed-rule evaluations, the GF(2^n) products and the
    # nodes the reductions walk, where re-deriving every variable from
    # the leaves quadruples them. Each chain has names of its own, so
    # no expression of an earlier test or chain is in the process-wide
    # caches of the expr module
    rules = importlib.import_module("maskcheck.infer")
    verify = importlib.import_module("maskcheck.verify")
    costs = {}
    for n in (100, 200):
        p = parse(deep_chain(n, f"lin{n}_"))
        walked = []
        reducing = []

        def postorder(*args, **kwargs):
            order = real_postorder(*args, **kwargs)
            if reducing:
                walked.append(len(order))
            return order

        def simplify(*args, **kwargs):
            reducing.append(True)
            try:
                return real_simplify(*args, **kwargs)
            finally:
                reducing.pop()

        real_postorder, real_simplify = ex.postorder, verify.simplify
        with mock.patch.object(rules, "_closed",
                               wraps=rules._closed) as closed, \
                mock.patch.object(ex, "gf_mul_vec",
                                  wraps=ex.gf_mul_vec) as mul, \
                mock.patch.object(ex, "postorder", postorder), \
                mock.patch.object(verify, "simplify", simplify):
            pm_check(p, EngineConfig(make_domain(4)))
        costs[n] = closed.call_count, mul.call_count, sum(walked)
    for i in range(3):
        assert costs[200][i] <= 2.5 * costs[100][i], costs


def test_bruteforce_deep_chain_completes():
    p = parse(deep_chain(2000))
    report = pm_check(p, EngineConfig(make_domain(4)))
    assert report.totals == {"internal": 2001, "sid": 533, "sdd": 1468,
                             "counted": 1999, "unknown": 0}


def test_subterms_prints_a_chain_in_linear_space():
    n = 5000
    e = var("lin_k", SECRET)
    for i in range(n):
        e = binop("@" if i % 2 else "^", e,
                  var(f"lin_r{i % 2}", RANDOM))
    before = sum(map(len, ex._PRETTY.values()))
    out = subterms(e)
    added = sum(map(len, ex._PRETTY.values())) - before
    assert len(out) == n + 3 and out[-1] is e
    assert added <= 20 * n


def test_flat_statement_splits_without_recursion():
    terms = 5001
    rhs = " ^ ".join(["k"] + ["r0"] * (terms - 1))
    p = parse(f"fn F(k: secret, r0: random) {{ x = {rhs}; return x; }}")
    # names in pre-order: x, then _t1 for its left operand, and so on
    # down the left spine; statements in post-order, innermost first
    assert p.internals == tuple(f"_t{i}" for i in range(terms - 2, 0, -1)) \
        + ("x",)
    assert str(p.statements[0]) == f"_t{terms - 2} = k ^ r0;"
    assert str(p.statements[-1]) == "x = _t1 ^ r0;"


def test_nesting_past_the_cap_is_a_parse_error():
    ok = "(" * MAX_NESTING + "k" + ")" * MAX_NESTING
    assert parse(f"fn F(k: secret) {{ x = {ok}; return x; }}").internals \
        == ("x",)
    for deep in ("(" * 1000 + "k" + ")" * 1000, "~" * 1000 + "k",
                 "(~" * MAX_NESTING + "k" + ")" * MAX_NESTING):
        with pytest.raises(ParseError, match="nesting"):
            parse(f"fn F(k: secret) {{ x = {deep}; return x; }}")


def test_eval_vec_frees_intermediates():
    # 40 chained operators over 2^20 cells: each a 4 MB array
    d = make_domain(8)
    side = 1 << 10
    cell_bytes = side * side * 4
    e = var("k", SECRET)
    ops = ("^", "@", "+", "*")
    for i in range(40):
        right = var("r", RANDOM) if i % 2 else const(3 + i)
        e = binop(ops[i % 4], e, right)
    env = {"k": np.arange(side, dtype=np.uint32).reshape(side, 1) & 0xFF,
           "r": np.arange(side, dtype=np.uint32).reshape(1, side) & 0xFF}
    gf_table(d)     # built once per domain and kept
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = eval_vec(e, env, d)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert out.shape == (side, side)
    assert peak - before < 8 * cell_bytes
    assert after - before < out.nbytes + (1 << 16)


def test_eval_vec_frees_intermediates_narrow():
    # the same chain on uint8 words: each array 1 MB, and no operator,
    # constant or table gather widens one
    d = make_domain(8)
    side = 1 << 10
    cell_bytes = side * side
    e = var("k", SECRET)
    ops = ("^", "@", "+", "*")
    for i in range(40):
        right = var("r", RANDOM) if i % 2 else const(3 + i)
        e = binop(ops[i % 4], e, right)
    words = (np.arange(side) & 0xFF).astype(np.uint8)
    env = {"k": words.reshape(side, 1), "r": words.reshape(1, side)}
    gf_table(d)
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = eval_vec(e, env, d)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert out.shape == (side, side) and out.dtype == np.uint8
    assert peak - before < 8 * cell_bytes
    assert after - before < out.nbytes + (1 << 16)
