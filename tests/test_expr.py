import numpy as np
import pytest

from maskcheck import (
    RANDOM,
    SECRET,
    ShiftOutOfRange,
    binop,
    const,
    eval_expr,
    eval_vec,
    make_domain,
    neg,
    postorder,
    pretty,
    replace,
    rvars,
    size,
    subterms,
    var,
    variables,
)

k = var("k", SECRET)
r0 = var("r0", RANDOM)
r1 = var("r1", RANDOM)


class TestInterning:
    def test_structural_equality_is_identity(self):
        a = binop("^", k, r0)
        b = binop("^", var("k", SECRET), var("r0", RANDOM))
        assert a is b
        assert neg(a) is neg(b)
        assert const(5) is const(5)

    def test_distinct_structures_differ(self):
        assert binop("^", k, r0) is not binop("^", r0, k)
        assert binop("^", k, r0) is not binop("&", k, r0)
        assert var("k", SECRET) is not var("k", RANDOM)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            const(-1)
        with pytest.raises(ValueError):
            var("x", "mystery")
        with pytest.raises(ValueError):
            binop("%", k, r0)


class TestTreeMeasures:
    def test_size_counts_shared_nodes_per_occurrence(self):
        x = binop("^", k, r0)        # 3 nodes
        sq = binop("@", x, x)        # tree has 7
        assert size(x) == 3
        assert size(sq) == 7
        assert size(binop("@", sq, x)) == 11

    def test_variable_name_sets(self):
        e = binop("^", binop("&", k, r0), r1)
        assert variables(e) == {"k", "r0", "r1"}
        assert rvars(e) == {"r0", "r1"}
        assert rvars(k) == set()

    def test_replace(self):
        x = binop("^", k, r0)
        e = binop("@", binop("@", x, x), r0)
        swapped = replace(e, x, r1)
        assert pretty(swapped) == "((r1 @ r1) @ r0)"
        assert x not in postorder(swapped)
        # replacement is a no-op when t does not occur
        assert replace(e, var("q", RANDOM), r1) is e

    def test_subterms_innermost_first(self):
        e = binop("@", binop("^", k, r0), r0)
        terms = subterms(e)
        assert terms[-1] is e
        sizes = [size(t) for t in terms]
        assert sizes == sorted(sizes)
        assert set(terms) == {k, r0, binop("^", k, r0), e}


class TestPostorder:
    def test_distinct_nodes_children_first(self):
        x = binop("^", k, r0)
        right = binop("+", x, neg(x))
        e = binop("@", x, right)
        assert postorder(e) == [k, r0, x, neg(x), right, e]

    def test_stop_lists_the_node_but_not_below(self):
        x = binop("^", k, r0)
        right = binop("+", x, neg(x))
        e = binop("@", x, right)
        assert postorder(e, lambda n: n is x) == [x, neg(x), right, e]

    def test_measures_on_a_deep_chain(self):
        e = k
        for i in range(5000):     # pretty keeps every prefix: O(n^2) bytes
            e = binop("@" if i % 2 else "^", e, r1 if i % 2 else r0)
        assert size(e) == 10001
        assert rvars(e) == {"r0", "r1"}
        assert variables(e) == {"k", "r0", "r1"}
        assert pretty(e).startswith("(" * 5000 + "k ^ r0)")


class TestPretty:
    def test_forms(self):
        assert pretty(const(7)) == "7"
        assert pretty(k) == "k"
        assert pretty(binop("^", k, r0)) == "(k ^ r0)"
        assert pretty(neg(k)) == "~k"
        assert pretty(neg(binop("^", k, r0))) == "~((k ^ r0))"
        assert pretty(binop("<<", k, const(2))) == "(k << 2)"


class TestEval:
    def setup_method(self):
        self.d = make_domain(4)

    def test_scalar_semantics(self):
        e = binop("@", binop("^", k, r0), r0)
        env = {"k": 0b0101, "r0": 0b0011}
        from maskcheck import gf_mul
        assert eval_expr(e, env, self.d) == gf_mul(0b0110, 0b0011, self.d)

    def test_constants_wrap(self):
        e = binop("^", k, const(0x1F))   # 5 bits, masked to 4
        assert eval_expr(e, {"k": 0}, self.d) == 0xF

    def test_env_values_wrap(self):
        assert eval_expr(k, {"k": 0x13}, self.d) == 3

    def test_shift_amount_must_be_constant(self):
        e = binop("<<", k, r0)
        with pytest.raises(ShiftOutOfRange):
            eval_expr(e, {"k": 1, "r0": 1}, self.d)
        with pytest.raises(ShiftOutOfRange):
            eval_vec(e, {"k": np.uint32(1), "r0": np.uint32(1)}, self.d)

    def test_vector_matches_scalar(self):
        rng = np.random.default_rng(3)
        e = binop("^", binop("@", k, r0),
                  binop("-", neg(r1), binop(">>", k, const(1))))
        kv = rng.integers(0, 16, 64).astype(np.uint32)
        r0v = rng.integers(0, 16, 64).astype(np.uint32)
        r1v = rng.integers(0, 16, 64).astype(np.uint32)
        out = eval_vec(e, {"k": kv, "r0": r0v, "r1": r1v}, self.d)
        for i in range(64):
            env = {"k": int(kv[i]), "r0": int(r0v[i]), "r1": int(r1v[i])}
            assert int(out[i]) == eval_expr(e, env, self.d)

    def test_vector_broadcasting(self):
        e = binop("+", k, r0)
        out = eval_vec(e, {"k": np.arange(4, dtype=np.uint32)[:, None],
                           "r0": np.arange(4, dtype=np.uint32)[None, :]},
                       self.d)
        assert out.shape == (4, 4)
        assert int(out[3, 2]) == 5

    def test_scalar_operands_wrap_silently(self):
        import warnings
        e = binop("-", const(0), const(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = eval_vec(e, {}, self.d)
        assert int(out) == 0xF
