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

_PUNCTUATION = "(){},;:="


@dataclass
class _Token:
    kind: str       # ident | num | sym | eof
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    toks = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            if text[i:i + 2].lower() == "0x":
                j = i + 2
                while j < n and text[j] in "0123456789abcdefABCDEF":
                    j += 1
                if j == i + 2:
                    raise ParseError("malformed hex constant", line, col)
            else:
                while j < n and text[j].isdigit():
                    j += 1
            toks.append(_Token("num", text[i:j], line, col))
            col += j - i
            i = j
            continue
        sym = text[i:i + 2] if text[i:i + 2] in OPS else ch
        if sym in OPS or sym in _PUNCTUATION:
            toks.append(_Token("sym", sym, line, col))
            i += len(sym)
            col += len(sym)
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_Token("eof", "", line, col))
    return toks


# --- parser ------------------------------------------------------------------

class _Parser:
    def __init__(self, toks: list[_Token]):
        self.toks = toks
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def next(self) -> _Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text or tok.kind == "eof":
            self.fail(f"expected {text!r}, found {tok.text!r}")
        return self.next()

    def ident(self, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != "ident":
            self.fail(f"expected {what}, found {tok.text!r}")
        return self.next()

    def expression(self, kinds: dict[str, str], min_prec: int = 1) -> ex.Expr:
        left = self.atom(kinds)
        while True:
            tok = self.peek()
            op = OPS.get(tok.text) if tok.kind == "sym" else None
            if op is None or op.level < min_prec:  # `~`'s level 0 never binds
                return left
            self.next()
            right = self.expression(kinds, op.level + 1)
            left = ex.binop(tok.text, left, right)

    def atom(self, kinds: dict[str, str]) -> ex.Expr:
        tok = self.peek()
        if tok.text == "(" or tok.text in UNARY_OPS:
            if self.depth == MAX_NESTING:
                self.fail(f"nesting of '(' and '~' deeper than {MAX_NESTING}")
            self.next()
            self.depth += 1
            if tok.text == "(":
                inner = self.expression(kinds)
                self.expect(")")
            else:
                inner = ex.neg(self.atom(kinds))
            self.depth -= 1
            return inner
        if tok.kind == "num":
            self.next()
            return ex.const(int(tok.text, 0))
        if tok.kind == "ident":
            self.next()
            kind = kinds.get(tok.text)
            if kind is None:
                raise UseBeforeDef(
                    f"{tok.text!r} used before definition "
                    f"(line {tok.line}, col {tok.col})")
            return ex.var(tok.text, kind)
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
    parser = _Parser(_tokenize(text))
    parser.expect("fn")
    name = parser.ident("function name").text
    parser.expect("(")

    params: list[tuple[str, str]] = []
    kinds: dict[str, str] = {}
    if parser.peek().text != ")":
        while True:
            pname_tok = parser.ident("parameter name")
            parser.expect(":")
            klass_tok = parser.ident("parameter class")
            if klass_tok.text not in (ex.PUBLIC, ex.SECRET, ex.RANDOM):
                raise UnknownClass(
                    f"unknown class {klass_tok.text!r} for parameter "
                    f"{pname_tok.text!r} (line {klass_tok.line})")
            if pname_tok.text in kinds:
                raise NotSSA(f"parameter {pname_tok.text!r} declared twice")
            kinds[pname_tok.text] = klass_tok.text
            params.append((pname_tok.text, klass_tok.text))
            if parser.peek().text == ",":
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
    while parser.peek().text != "return":
        if parser.peek().kind == "eof":
            parser.fail("unterminated program body")
        target_tok = parser.ident("assignment target")
        target = target_tok.text
        if target in kinds:
            raise NotSSA(
                f"{target!r} assigned more than once (line {target_tok.line})")
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
    returns = [parser.ident("return variable").text]
    while parser.peek().text == ",":
        parser.next()
        returns.append(parser.ident("return variable").text)
    parser.expect(";")
    parser.expect("}")
    if parser.peek().kind != "eof":
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
