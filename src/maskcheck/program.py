"""Straight-line masked programs and their surface syntax.

A program is a function header declaring each parameter as public,
secret, or random, followed by single-assignment statements and a
return list::

    fn Cube(k: secret, r0: random, r1: random) {
      x = k ^ r0;
      x0 = x @ x;
      ...
      return x7, x9;
    }

Operator precedence climbs through five levels, loosest first:
shifts, then & and |, then ^, then + and -, then * and @; unary ~
binds tightest. The levels are those of the operator table
(`domain.OPS`). `#` starts a line comment. Parentheses and `~` nest at
most MAX_NESTING deep, the only recursion in the module. Statements
whose right-hand side uses more than one operator are split into fresh
`_tN` temporaries so that every stored statement applies at most one
operator.

expr_of() substitutes the statement chain into a closed expression over
the program inputs, one statement at a time in program order. Shared
intermediate results are duplicated semantically (the result is a tree
over inputs) but interned structurally, so the expansion stays cheap to
hold in memory.
"""

from __future__ import annotations

import functools
import itertools
import re
import string
from dataclasses import dataclass, field

from . import expr as ex
from .domain import OPS, UNARY_OPS, DomainConfig
from .errors import (
    NonConstShift,
    NotSSA,
    ParseError,
    UnknownClass,
    UnknownVariable,
    UseBeforeDef,
)

MAX_NESTING = 100    # deepest `(`/`~` nesting: the parser recurses on it


@dataclass(frozen=True)
class Statement:
    target: str
    rhs: ex.Expr      # at most one operator; leaves are Var/Const

    def __str__(self):
        text = ex.pretty(self.rhs)
        if text.startswith("(") and text.endswith(")"):
            text = text[1:-1]
        return f"{self.target} = {text};"


@dataclass(frozen=True)
class Program:
    name: str
    params: tuple[tuple[str, str], ...]     # (name, kind) in source order
    statements: tuple[Statement, ...]
    returns: tuple[str, ...]
    _expansions: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def publics(self) -> frozenset[str]:
        return frozenset(n for n, k in self.params if k == ex.PUBLIC)

    @property
    def secrets(self) -> frozenset[str]:
        return frozenset(n for n, k in self.params if k == ex.SECRET)

    @property
    def randoms(self) -> frozenset[str]:
        return frozenset(n for n, k in self.params if k == ex.RANDOM)

    @property
    def internals(self) -> tuple[str, ...]:
        """Assigned variables, in SSA order."""
        return tuple(s.target for s in self.statements)

    def __str__(self):
        decls = ", ".join(f"{n}: {k}" for n, k in self.params)
        body = "\n".join(f"  {s}" for s in self.statements)
        rets = ", ".join(self.returns)
        return f"fn {self.name}({decls}) {{\n{body}\n  return {rets};\n}}\n"


# --- tokenizer ---------------------------------------------------------------
#
# A token is its text, and its kind is that of its first character: a
# letter or `_` starts a name, a digit a constant, anything else is an
# operator or punctuation. One regex match takes each token, skipping
# the whitespace and comments before it: a name, a hex or decimal
# constant, a two-character operator, or any one other character; the
# empty match at the end is the last token. A token that is none of
# these is an error. Lines and columns are found only for an error, by
# matching the text again up to its token.

_PUNCTUATION = "(){},;:="
_END = ""       # the last token

# first characters whose every token is well formed: see _problem
_FINE = frozenset(string.ascii_letters + "_123456789" + _PUNCTUATION
                  + "".join(op for op in OPS if len(op) == 1))


@functools.lru_cache(maxsize=16)
def _token_re(digits: str) -> re.Pattern:
    """The token pattern. `digits` lists the non-decimal digits of the
    text (str.isdigit: superscripts and the like, never ASCII), which
    make a constant as the decimal ones do, and never start a name."""
    digit = r"\d" + re.escape(digits)
    pairs = "|".join(re.escape(op) for op in OPS if len(op) == 2)
    return re.compile(
        rf"(?:[ \t\r\n]|#[^\n]*)*"
        rf"([^\W{digit}]\w*|0[xX][0-9a-fA-F]*|[{digit}]+|{pairs}|.|\Z)",
        re.S)


def _pattern(text: str) -> re.Pattern:
    if text.isascii():
        return _token_re("")
    return _token_re("".join(sorted(
        c for c in set(text) if c.isdigit() and not c.isdecimal())))


def _is_name(tok: str) -> bool:
    return tok[:1] == "_" or tok[:1].isalpha()


def _problem(tok: str) -> str | None:
    """Why tok is not a token, or None if it is one."""
    if tok == _END or _is_name(tok) or tok in OPS or tok in _PUNCTUATION:
        return None
    if tok[0].isdigit():
        return "malformed hex constant" if tok.lower() == "0x" else None
    return f"unexpected character {tok[0]!r}"


def _where(text: str, index: int) -> tuple[int, int]:
    """Line and column of token `index` of text. The end of a text whose
    last line holds a comment is where that comment starts."""
    match = next(itertools.islice(_pattern(text).finditer(text), index, None))
    at = match.start(1)
    if at == len(text):
        last = text.rfind("\n") + 1
        comment = text.find("#", last)
        if comment >= 0:
            at = comment
    start = text.rfind("\n", 0, at) + 1
    return text.count("\n", 0, at) + 1, at - start + 1


def _tokenize(text: str) -> list[str]:
    toks = _pattern(text).findall(text)
    if toks[-2:] == [_END, _END]:
        toks.pop()      # findall's empty match after trailing space
    for index, tok in enumerate(toks):
        if tok[:1] not in _FINE:
            problem = _problem(tok)
            if problem is not None:
                raise ParseError(problem, *_where(text, index))
    return toks


# --- parser ------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> str:
        return self.toks[self.pos]

    def next(self) -> str:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str):
        raise ParseError(message, *_where(self.text, self.pos))

    def expect(self, text: str) -> str:
        tok = self.peek()
        if tok != text:
            self.fail(f"expected {text!r}, found {tok!r}")
        return self.next()

    def ident(self, what: str) -> str:
        tok = self.peek()
        if not _is_name(tok):
            self.fail(f"expected {what}, found {tok!r}")
        return self.next()

    def expression(self, kinds: dict[str, str], min_prec: int = 1) -> ex.Expr:
        left = self.atom(kinds)
        while True:
            tok = self.peek()
            op = OPS.get(tok)
            if op is None or op.level < min_prec:  # `~`'s level 0 never binds
                return left
            self.next()
            right = self.expression(kinds, op.level + 1)
            left = ex.binop(tok, left, right)

    def atom(self, kinds: dict[str, str]) -> ex.Expr:
        tok = self.peek()
        if tok == "(" or tok in UNARY_OPS:
            if self.depth == MAX_NESTING:
                self.fail(f"nesting of '(' and '~' deeper than {MAX_NESTING}")
            self.next()
            self.depth += 1
            if tok == "(":
                inner = self.expression(kinds)
                self.expect(")")
            else:
                inner = ex.neg(self.atom(kinds))
            self.depth -= 1
            return inner
        if tok[:1].isdigit():
            try:
                value = int(tok, 0)
            except ValueError:  # a leading 0, or a digit int() refuses
                self.fail(f"malformed constant {tok!r}")
            self.next()
            return ex.const(value)
        if _is_name(tok):
            kind = kinds.get(tok)
            if kind is None:
                line, col = _where(self.text, self.pos)
                raise UseBeforeDef(
                    f"{tok!r} used before definition (line {line}, col {col})")
            self.next()
            return ex.var(tok, kind)
        self.fail("expected an expression")


def _check_shifts(e: ex.Expr):
    """Shift amounts must be literal constants (checked before splitting)."""
    for node in ex.postorder(e):
        if isinstance(node, ex.Binary) and OPS[node.op].shift and \
                not isinstance(node.right, ex.Const):
            raise NonConstShift(
                f"shift amount must be a constant, got {ex.pretty(node.right)}")


def _is_leaf(e: ex.Expr) -> bool:
    return isinstance(e, (ex.Var, ex.Const))


def _split(target: str, rhs: ex.Expr, out: list[Statement], fresh) -> None:
    """Append single-operator statements computing rhs into target.

    Fresh names go to non-leaf operands in pre-order and statements come
    out in post-order, once per occurrence of a subtree.
    """
    stack = [(target, rhs, [])]     # (name, node, operands made leaves)
    while stack:
        name, node, leaves = stack[-1]
        operands = ex.children(node)
        if len(leaves) < len(operands):
            operand = operands[len(leaves)]
            if _is_leaf(operand):
                leaves.append(operand)
            else:
                sub = fresh()
                leaves.append(ex.var(sub, ex.INTERNAL))
                stack.append((sub, operand, []))
            continue
        stack.pop()
        out.append(Statement(name, ex.rebuild(node, tuple(leaves))))


def parse(text: str) -> Program:
    """Parse, validate (SSA, defined-before-use), and normalize a program."""
    parser = _Parser(text)
    parser.expect("fn")
    name = parser.ident("function name")
    parser.expect("(")

    params: list[tuple[str, str]] = []
    kinds: dict[str, str] = {}
    if parser.peek() != ")":
        while True:
            pname = parser.ident("parameter name")
            parser.expect(":")
            klass = parser.ident("parameter class")
            if klass not in (ex.PUBLIC, ex.SECRET, ex.RANDOM):
                line, _ = _where(text, parser.pos - 1)
                raise UnknownClass(
                    f"unknown class {klass!r} for parameter "
                    f"{pname!r} (line {line})")
            if pname in kinds:
                raise NotSSA(f"parameter {pname!r} declared twice")
            kinds[pname] = klass
            params.append((pname, klass))
            if parser.peek() == ",":
                parser.next()
                continue
            break
    parser.expect(")")
    parser.expect("{")

    taken = set(kinds)
    counter = 0

    def fresh() -> str:
        nonlocal counter
        while True:
            counter += 1
            cand = f"_t{counter}"
            if cand not in taken:
                taken.add(cand)
                return cand

    statements: list[Statement] = []
    while parser.peek() != "return":
        if parser.peek() == _END:
            parser.fail("unterminated program body")
        target = parser.ident("assignment target")
        if target in kinds:
            line, _ = _where(text, parser.pos - 1)
            raise NotSSA(
                f"{target!r} assigned more than once (line {line})")
        parser.expect("=")
        rhs = parser.expression(kinds)
        parser.expect(";")
        _check_shifts(rhs)
        pre = len(statements)
        _split(target, rhs, statements, fresh)
        for stmt in statements[pre:]:
            kinds[stmt.target] = ex.INTERNAL
        taken.add(target)

    parser.expect("return")
    returns = [parser.ident("return variable")]
    while parser.peek() == ",":
        parser.next()
        returns.append(parser.ident("return variable"))
    parser.expect(";")
    parser.expect("}")
    if parser.peek() != _END:
        parser.fail("trailing input after program")

    for r in returns:
        if r not in kinds:
            raise UseBeforeDef(f"return variable {r!r} is never defined")

    return Program(name, tuple(params), tuple(statements), tuple(returns))


# --- expansion and execution --------------------------------------------------

def expr_of(p: Program, x: str) -> ex.Expr:
    """Closed expression over program inputs computed by internal variable x."""
    done = p._expansions

    def expand(leaf: ex.Expr) -> ex.Expr:
        internal = isinstance(leaf, ex.Var) and leaf.kind == ex.INTERNAL
        return done[leaf.name] if internal else leaf

    # expansions fill in statement order, and each right-hand side has
    # at most one operator, so one step substitutes its operands
    while x not in done and len(done) < len(p.statements):
        stmt = p.statements[len(done)]
        rhs = stmt.rhs
        done[stmt.target] = expand(rhs) if _is_leaf(rhs) else \
            ex.rebuild(rhs, tuple(map(expand, ex.children(rhs))))
    if x not in done:
        raise UnknownVariable(f"{x!r} is not an internal variable")
    return done[x]


def execute(p: Program, env: dict[str, int], d: DomainConfig) -> dict[str, int]:
    """Run the statement list; returns values of every variable."""
    values = dict(env)
    for stmt in p.statements:
        values[stmt.target] = ex.eval_expr(stmt.rhs, values, d)
    return values
