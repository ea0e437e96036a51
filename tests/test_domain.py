import re
from pathlib import Path

import numpy as np
import pytest

from maskcheck import (
    DEFAULT_POLYS,
    BadDegree,
    ReduciblePolynomial,
    ShiftOutOfRange,
    eval_op,
    gf_mul,
    gf_mul_vec,
    is_irreducible,
    make_domain,
)
from maskcheck.domain import BINARY_OPS, OPS, UNARY_OPS, check_shift


def poly_mul_mod(a: int, b: int, poly: int, n: int) -> int:
    """Oracle: schoolbook carry-less multiply, then long division."""
    prod = 0
    for i in range(n):
        if (a >> i) & 1:
            prod ^= b << i
    for i in range(2 * n - 2, n - 1, -1):
        if (prod >> i) & 1:
            prod ^= poly << (i - n)
    return prod & ((1 << n) - 1)


class TestMakeDomain:
    def test_default_polynomials(self):
        assert make_domain(1).poly == 0b11
        assert make_domain(2).poly == 0b111
        assert make_domain(3).poly == 0b1011
        assert make_domain(4).poly == 0b10011
        assert make_domain(8).poly == 0x11D

    def test_other_widths_get_smallest_irreducible(self):
        # first irreducible above x^5: x^5 + x^2 + 1
        assert make_domain(5).poly == 0b100101
        for bits in range(1, 17):
            d = make_domain(bits)
            assert d.poly.bit_length() - 1 == bits
            assert is_irreducible(d.poly, bits)

    def test_bits_out_of_range(self):
        for bits in (0, -1, 17, "8"):
            with pytest.raises(BadDegree):
                make_domain(bits)

    def test_wrong_degree(self):
        with pytest.raises(BadDegree):
            make_domain(8, 0x1B)   # degree 4
        with pytest.raises(BadDegree):
            make_domain(4, 0x11B)  # degree 8

    def test_reducible_rejected(self):
        # x^8 + x^4 + x^3 + x^2 = x^2 (x^6 + x^2 + x + 1)
        with pytest.raises(ReduciblePolynomial):
            make_domain(8, 0x11C)
        # x^2 + 1 = (x + 1)^2
        with pytest.raises(ReduciblePolynomial):
            make_domain(2, 0b101)

    def test_mask_and_size(self):
        d = make_domain(8)
        assert d.mask == 0xFF
        assert d.size == 256
        assert "2^8" in str(d)


class TestIrreducibility:
    def test_known_irreducibles(self):
        assert is_irreducible(0b111, 2)       # x^2 + x + 1
        assert is_irreducible(0x11B, 8)       # the other common octic
        assert is_irreducible(0x11D, 8)

    def test_known_reducibles(self):
        assert not is_irreducible(0b101, 2)       # (x + 1)^2
        assert not is_irreducible(0b110, 2)       # x factor
        assert not is_irreducible(0b100011, 5)    # x^5+x+1 = (x^2+x+1)(x^3+x^2+1)

    def test_matches_bruteforce_factoring(self):
        # every degree-4 polynomial vs trial multiplication of factors
        products = set()
        for a in range(2, 1 << 4):
            for b in range(2, 1 << 4):
                if (a.bit_length() - 1) + (b.bit_length() - 1) == 4:
                    products.add(poly_mul_without_reduction(a, b))
        for poly in range(1 << 4, 1 << 5):
            assert is_irreducible(poly, 4) == (poly not in products)


def poly_mul_without_reduction(a: int, b: int) -> int:
    prod = 0
    for i in range(a.bit_length()):
        if (a >> i) & 1:
            prod ^= b << i
    return prod


class TestGfMul:
    def test_against_oracle(self):
        rng = np.random.default_rng(7)
        for bits in (1, 2, 3, 4, 8):
            d = make_domain(bits)
            for _ in range(200):
                a = int(rng.integers(0, d.size))
                b = int(rng.integers(0, d.size))
                assert gf_mul(a, b, d) == poly_mul_mod(a, b, d.poly, bits)

    def test_known_values_11d(self):
        d = make_domain(8)
        assert gf_mul(0x80, 2, d) == 0x1D    # one reduction step
        assert gf_mul(3, 7, d) == 9           # (x+1)(x^2+x+1) = x^3+1
        assert gf_mul(0, 0xAB, d) == 0
        assert gf_mul(1, 0xAB, d) == 0xAB

    def test_field_axioms_sampled(self):
        d = make_domain(4)
        values = range(d.size)
        for a in values:
            for b in values:
                assert gf_mul(a, b, d) == gf_mul(b, a, d)
                for c in (3, 9):
                    assert gf_mul(gf_mul(a, b, d), c, d) == \
                        gf_mul(a, gf_mul(b, c, d), d)
                    assert gf_mul(a, b ^ c, d) == \
                        gf_mul(a, b, d) ^ gf_mul(a, c, d)

    def test_nonzero_elements_form_a_group(self):
        d = make_domain(4)
        for a in range(1, d.size):
            products = {gf_mul(a, b, d) for b in range(1, d.size)}
            assert products == set(range(1, d.size))


class TestGfMulVec:
    @pytest.mark.parametrize("bits", [1, 2, 4, 8, 9, 12])
    def test_matches_scalar(self, bits):
        d = make_domain(bits)
        rng = np.random.default_rng(bits)
        a = rng.integers(0, d.size, 300).astype(np.uint32)
        b = rng.integers(0, d.size, 300).astype(np.uint32)
        got = gf_mul_vec(a, b, d)
        for x, y, z in zip(a, b, got):
            assert int(z) == gf_mul(int(x), int(y), d)

    def test_table_and_direct_paths_agree(self):
        for bits in range(1, 9):
            d = make_domain(bits)
            a = np.arange(d.size, dtype=np.uint32)[:, None]
            b = np.arange(d.size, dtype=np.uint32)[None, :]
            shape = (d.size, d.size)
            direct = gf_mul_vec(np.broadcast_to(a, shape),
                                np.broadcast_to(b, shape), d, _direct=True)
            # (n, 1) x (1, m), same-shape vectors, and scalar x vector
            assert np.array_equal(gf_mul_vec(a, b, d), direct), bits
            assert np.array_equal(gf_mul_vec(a[:, 0], b[0], d),
                                  direct.diagonal()), bits
            for x in range(d.size):
                assert np.array_equal(gf_mul_vec(np.uint32(x), b[0], d),
                                      direct[x]), (bits, x)
                assert np.array_equal(gf_mul_vec(a[:, 0], np.uint32(x), d),
                                      direct[:, x]), (bits, x)

    def test_broadcasting(self):
        d = make_domain(2)
        a = np.uint32(3)
        b = np.array([0, 1, 2, 3], dtype=np.uint32)
        assert gf_mul_vec(a, b, d).shape == (4,)


class TestEvalOp:
    def setup_method(self):
        self.d = make_domain(4)

    def test_ring_ops_wrap(self):
        assert eval_op("+", 15, 1, self.d) == 0
        assert eval_op("-", 0, 1, self.d) == 15
        assert eval_op("*", 5, 7, self.d) == (5 * 7) & 0xF
        assert eval_op("^", 0b1100, 0b1010, self.d) == 0b0110
        assert eval_op("&", 0b1100, 0b1010, self.d) == 0b1000
        assert eval_op("|", 0b1100, 0b1010, self.d) == 0b1110

    def test_complement_masks(self):
        assert eval_op("~", 0, None, self.d) == 15
        assert eval_op("~", 0b0101, None, self.d) == 0b1010

    def test_field_multiply(self):
        assert eval_op("@", 3, 7, self.d) == gf_mul(3, 7, self.d)

    def test_shifts(self):
        assert eval_op("<<", 0b0011, 2, self.d) == 0b1100
        assert eval_op(">>", 0b1100, 2, self.d) == 0b0011
        assert eval_op("<<", 0b1111, 1, self.d) == 0b1110  # drops high bit

    def test_shift_range_enforced(self):
        for amount in (-1, 4, 99):
            with pytest.raises(ShiftOutOfRange):
                eval_op("<<", 1, amount, self.d)
            with pytest.raises(ShiftOutOfRange):
                eval_op(">>", 1, amount, self.d)

    def test_default_poly_table_is_complete(self):
        assert set(DEFAULT_POLYS) == {1, 2, 3, 4, 8}


# --- the operator table, against the scalar reference eval_op ------------

def op_table(op, d):
    """{(a, b): a op b} by eval_op over every operand pair; a shift's
    right operand is each amount in [0, bits), and `~`'s is None."""
    words = range(d.size)
    if op in UNARY_OPS:
        rights = [None]
    else:
        rights = range(d.bits) if OPS[op].shift else words
    return {(a, b): eval_op(op, a, b, d) for a in words for b in rights}


def is_permutation(values, d):
    return sorted(values) == list(range(d.size))


WORD_LAWS = ("commutative", "bijective", "product", "self_cancelling",
             "idempotent", "annihilated", "unit_one", "inverted_by")


@pytest.mark.parametrize("bits", range(1, 5))
@pytest.mark.parametrize("op", BINARY_OPS)
def test_operator_classes_hold(op, bits):
    """Every class the table gives op holds at this width."""
    d = make_domain(bits)
    info, t = OPS[op], op_table(op, d)
    if info.shift:
        # the right operand is an amount, not a word: no law over words
        assert not any(getattr(info, law) for law in WORD_LAWS)
        assert [check_shift(a, d) for a in range(bits)] == list(range(bits))
        for amount in (-1, bits):
            with pytest.raises(ShiftOutOfRange):
                check_shift(amount, d)
            with pytest.raises(ShiftOutOfRange):
                eval_op(op, 1, amount, d)
        return
    words = range(d.size)
    rows = [[t[x, y] for y in words] for x in words]
    columns = [[t[y, x] for y in words] for x in words]
    if info.commutative:
        assert rows == columns
    if info.bijective:
        assert all(is_permutation(r, d) for r in rows + columns)
    if info.self_cancelling:
        assert all(t[x, x] == 0 for x in words)
    if info.idempotent:
        assert all(t[x, x] == x for x in words)
    if info.annihilated:
        assert rows[0] == columns[0] == [0] * d.size
    if info.unit_one:
        assert rows[1] == columns[1] == list(words)
    if info.product:
        # the product rules need an operand value that makes the result
        # constant and another that makes it a bijection of the other
        assert any(len(set(r)) == 1 for r in rows)
        assert any(is_permutation(r, d) for r in rows)
    if info.inverted_by is not None:
        # exactly the constants it names make op a bijection, either side
        for c in words:
            assert is_permutation(rows[c], d) == \
                is_permutation(columns[c], d) == info.inverted_by(c), c


@pytest.mark.parametrize("bits", range(1, 5))
@pytest.mark.parametrize("op", list(OPS))
def test_operator_kernels_match_eval_op(op, bits):
    """A kernel on d.dtype words, masked when the table says it wraps,
    computes eval_op; one the table says does not wrap stays in range."""
    d = make_domain(bits)
    info, t = OPS[op], op_table(op, d)
    if info.kernel is None:
        return      # gf_mul_vec, tested against gf_mul above
    operands = [np.array(side, dtype=d.dtype) for side in zip(*t)
                if None not in side]
    with np.errstate(over="ignore"):
        got = info.kernel(*operands)
    if info.wraps:
        got = got & d.dtype(d.mask)
    assert got.dtype == d.dtype
    assert got.tolist() == list(t.values())
    if op in UNARY_OPS:
        assert is_permutation(got.tolist(), d) == info.bijective


@pytest.mark.parametrize("bits", range(1, 5))
@pytest.mark.parametrize("op", [op for op, o in OPS.items()
                                if o.bitwise or o.carries])
def test_bit_serial_labels_match_eval_op(op, bits):
    """Bit by bit from the lowest, the kernel on the operands' bits (and
    on the carry, for a carrying operator) gives the bits of eval_op."""
    d = make_domain(bits)
    info, t = OPS[op], op_table(op, d)
    assert info.bitwise != info.carries
    for (a, b), want in t.items():
        got, carry = 0, np.int8(0)
        for i in range(bits):
            operands = [np.int8(x >> i & 1) for x in (a, b) if x is not None]
            bit = info.kernel(*operands)
            if info.carries:
                bit = info.kernel(bit, carry)
                carry = (bit >> 1) & 1
            got |= int(bit & 1) << i
        assert got == want, (a, b)


GRAMMAR = Path(__file__).resolve().parents[1] / "docs" / "grammar.md"


def test_grammar_doc_lists_the_table_levels():
    """The precedence table in docs/grammar.md names the same operators
    at the same levels as the operator table."""
    text = GRAMMAR.read_text().split("## Operators and precedence", 1)[1]
    levels, unary = {}, []
    for line in text.splitlines():
        if not line.startswith("| "):
            continue
        cells = [c.strip() for c in
                 line.replace("\\|", "\0").strip("|").split("|")]
        ops = [op.replace("\0", "|")
               for op in re.findall(r"`([^`]+)`", cells[1])]
        if cells[0] == "unary":
            unary += ops
        elif cells[0][:1].isdigit():
            levels.update((op, int(cells[0].split()[0])) for op in ops)
    assert levels == {op: OPS[op].level for op in BINARY_OPS}
    assert tuple(unary) == UNARY_OPS
