import pytest

from maskcheck import (
    NonConstShift,
    NotSSA,
    ParseError,
    UnknownClass,
    UnknownVariable,
    UseBeforeDef,
    corpus_dir,
    eval_expr,
    execute,
    expr_of,
    gf_mul,
    make_domain,
    parse,
    pretty,
)

CUBE = (corpus_dir() / "cube.mv").read_text()


def program(body: str, params: str = "k: secret, r0: random") -> str:
    return f"fn T({params}) {{\n{body}\n}}"


class TestParse:
    def test_cube_shape(self):
        p = parse(CUBE)
        assert p.name == "Cube"
        assert p.params == (("k", "secret"), ("r0", "random"),
                            ("r1", "random"))
        assert p.secrets == {"k"}
        assert p.randoms == {"r0", "r1"}
        assert p.publics == set()
        assert p.internals == ("x", "x0", "x1", "x2", "x3", "x4",
                               "x5", "x6", "x7", "x8", "x9")
        assert p.returns == ("x7", "x9")

    def test_single_operator_statements(self):
        p = parse(CUBE)
        for stmt in p.statements:
            text = str(stmt)
            ops = sum(text.count(op) for op in
                      ("^", "&", "|", "+", "*", "@", "~", "<<", ">>"))
            assert ops <= 1, text

    def test_expansion(self):
        p = parse(CUBE)
        assert pretty(expr_of(p, "x")) == "(k ^ r0)"
        assert pretty(expr_of(p, "x2")) == "(((k ^ r0) @ (k ^ r0)) @ r0)"
        assert pretty(expr_of(p, "x8")) == "((r0 @ r0) @ r0)"

    def test_expansion_only_for_internals(self):
        p = parse(CUBE)
        with pytest.raises(UnknownVariable):
            expr_of(p, "k")
        with pytest.raises(UnknownVariable):
            expr_of(p, "nope")

    def test_compound_rhs_splits(self):
        p = parse(program("a = k ^ r0 ^ 3;\nreturn a;"))
        assert len(p.statements) == 2
        assert p.statements[0].target == "_t1"
        assert pretty(expr_of(p, "a")) == "((k ^ r0) ^ 3)"

    def test_fresh_names_avoid_collisions(self):
        p = parse(program("_t1 = k ^ r0;\nb = _t1 ^ k ^ r0;\nreturn b;"))
        targets = p.internals
        assert len(set(targets)) == len(targets)
        assert pretty(expr_of(p, "b")) == "(((k ^ r0) ^ k) ^ r0)"

    def test_hex_and_decimal_constants(self):
        p = parse(program("a = k ^ 0x1F;\nb = a + 12;\nreturn b;"))
        assert pretty(expr_of(p, "b")) == "((k ^ 31) + 12)"

    def test_comments_ignored(self):
        src = program("# lead\na = k ^ r0; # trail\nreturn a;")
        assert parse(src).internals == ("a",)

    def test_round_trip_through_str(self):
        p = parse(CUBE)
        again = parse(str(p))
        assert again == p


class TestPrecedence:
    def assert_parses_as(self, rhs, expected):
        p = parse(program(f"z = {rhs};\nreturn z;",
                          params="a: public, b: public, c: public"))
        assert pretty(expr_of(p, "z")) == expected

    def test_and_binds_looser_than_xor(self):
        self.assert_parses_as("a ^ b & c", "((a ^ b) & c)")
        self.assert_parses_as("a & b ^ c", "(a & (b ^ c))")

    def test_xor_binds_looser_than_add(self):
        self.assert_parses_as("a ^ b + c", "(a ^ (b + c))")
        self.assert_parses_as("a + b ^ c", "((a + b) ^ c)")

    def test_mul_binds_tightest(self):
        self.assert_parses_as("a + b @ c", "(a + (b @ c))")
        self.assert_parses_as("a @ b + c", "((a @ b) + c)")
        self.assert_parses_as("a ^ b * c + a", "(a ^ ((b * c) + a))")

    def test_shift_binds_loosest(self):
        self.assert_parses_as("a ^ b << 1", "((a ^ b) << 1)")

    def test_same_level_is_left_associative(self):
        self.assert_parses_as("a ^ b ^ c", "((a ^ b) ^ c)")
        self.assert_parses_as("a - b - c", "((a - b) - c)")

    def test_parentheses_override(self):
        self.assert_parses_as("a & (b ^ c)", "(a & (b ^ c))")

    def test_unary_binds_tightest(self):
        self.assert_parses_as("~a ^ b", "(~a ^ b)")
        self.assert_parses_as("~(a ^ b)", "~((a ^ b))")


class TestErrors:
    def test_reassignment(self):
        with pytest.raises(NotSSA):
            parse(program("a = k ^ r0;\na = a ^ k;\nreturn a;"))

    def test_param_shadowing(self):
        with pytest.raises(NotSSA):
            parse(program("k = r0 ^ r0;\nreturn k;"))

    def test_duplicate_parameter(self):
        with pytest.raises(NotSSA):
            parse("fn T(k: secret, k: random) { a = k; return a; }")

    def test_use_before_def(self):
        with pytest.raises(UseBeforeDef):
            parse(program("a = b ^ k;\nb = k;\nreturn a;"))

    def test_undefined_return(self):
        with pytest.raises(UseBeforeDef):
            parse(program("a = k ^ r0;\nreturn ghost;"))

    def test_unknown_class(self):
        with pytest.raises(UnknownClass):
            parse("fn T(k: sekrit) { a = k; return a; }")

    def test_nonconst_shift(self):
        with pytest.raises(NonConstShift):
            parse(program("a = k << r0;\nreturn a;"))
        with pytest.raises(NonConstShift):
            parse(program("a = k << (r0 ^ r0);\nreturn a;"))

    def test_parse_error_carries_position(self):
        try:
            parse("fn T(k: secret) {\n  a = k ^^ k;\n  return a;\n}")
        except ParseError as err:
            assert err.line == 2
            assert err.col > 0
        else:
            pytest.fail("expected ParseError")

    def test_malformed_hex(self):
        with pytest.raises(ParseError):
            parse(program("a = k ^ 0x;\nreturn a;"))

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse(program("a = k;\nreturn a;") + " fn")

    @pytest.mark.parametrize("constant", ["²", "1²", "012", "0٣"])
    def test_constant_int_refuses_is_a_parse_error(self, constant):
        # str.isdigit digits that are not decimal make a constant token,
        # and so does a leading 0; neither is a number
        with pytest.raises(ParseError) as err:
            parse(program(f"x = k ^ {constant};\nreturn x;"))
        assert str(err.value) == \
            f"malformed constant {constant!r} (line 2, col 9)"

    def test_other_unicode_digits_are_decimal(self):
        p = parse(program("x = k ^ ٣;\nreturn x;"))
        assert str(p.statements[0]) == "x = k ^ 3;"

    def test_errors_in_later_lines_carry_their_position(self):
        cases = {
            "fn T(k: secret) {\n  x = k;\n  return x;\n} fn": (4, 3),
            "fn T(k: secret) {\n\tx = k ^ $;": (2, 10),
            "fn T(k: secret) {\n  x = k;\n  return x  # no ';'": (3, 13),
            "fn T(k: secret) {\n  x = k ^\n": (3, 1),
        }
        for text, (line, col) in cases.items():
            with pytest.raises(ParseError) as err:
                parse(text)
            assert (err.value.line, err.value.col) == (line, col), text
        with pytest.raises(UseBeforeDef, match=r"'y' .*\(line 3, col 4\)"):
            parse(program("x = k ^\n  (y);\nreturn x;"))
        with pytest.raises(UnknownClass, match=r"\(line 2\)"):
            parse("fn T(k: secret,\n r: rand) { x = k; return x; }")
        with pytest.raises(NotSSA, match=r"\(line 3\)"):
            parse(program("x = k;\nx = k;\nreturn x;"))


class TestExecute:
    def test_matches_expansion_eval(self):
        d = make_domain(8)
        p = parse(CUBE)
        env = {"k": 0xC3, "r0": 0x5A, "r1": 0x77}
        values = execute(p, env, d)
        for x in p.internals:
            assert values[x] == eval_expr(expr_of(p, x), env, d)

    def test_cube_recombines_to_k_cubed(self):
        d = make_domain(8)
        p = parse(CUBE)
        for k in (0, 1, 0x53, 0xFF):
            values = execute(p, {"k": k, "r0": 0x9D, "r1": 0x04}, d)
            assert values["x7"] ^ values["x9"] == \
                gf_mul(gf_mul(k, k, d), k, d)

    def test_fixed_cube_recombines_too(self):
        d = make_domain(8)
        p = parse((corpus_dir() / "cube_fixed.mv").read_text())
        for k in (0, 2, 0xB7):
            values = execute(p, {"k": k, "r0": 0x11, "r1": 0x22,
                                 "r2": 0x33}, d)
            assert values["x7"] ^ values["x9"] == \
                gf_mul(gf_mul(k, k, d), k, d)

    def test_secmult_recombines_to_product(self):
        d = make_domain(8)
        p = parse((corpus_dir() / "secmult.mv").read_text())
        env = {"a": 0x35, "b": 0xDA, "ra": 0x68, "rb": 0xEE, "r": 0x07}
        values = execute(p, env, d)
        assert values["c0"] ^ values["c1"] == gf_mul(0x35, 0xDA, d)
