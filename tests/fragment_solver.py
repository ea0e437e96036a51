#!/usr/bin/env python3
"""Reference decision procedure for the scripts this package emits.

Not an SMT solver: it exhaustively enumerates the declared constants
(a handful of short bit-vectors), evaluates every definition over the
whole assignment space with numpy, and prints ``sat`` or ``unsat``.
A ``get-value`` after ``sat`` prints the first satisfying assignment
(in the order of the declarations' bits) as ``((name #b...) ...)``;
after ``unsat`` it prints ``(error "model is not available")``, as z3
does.
Supports exactly the SMT-LIB subset the encoder and the solver session
produce: QF_BV with zero-arity declare-fun, define-fun with and without
parameters, let, ite, extract, zero_extend, the usual bit-vector
operators, push, pop, echo and exit. Anything else is a hard error so
drift in the encoder shows up as a test failure, not a silent wrong
answer.

Usage: fragment_solver.py FILE.smt2 [FILE2.smt2 ...]
       fragment_solver.py < COMMANDS

With files, each script is decided whole. Without, commands are read
from stdin and each answer is printed, and flushed, as its command
arrives, as ``z3 -in`` does; ``echo`` prints its string unquoted.

Enumeration is capped at 2^22 assignments: a file with more free bits
prints a lone ``unknown``; on stdin, ``check-sat`` answers ``unknown``
until the ``pop`` of the scope where the free bits grew too wide.
"""

from __future__ import annotations

import sys

import numpy as np

MAX_FREE_BITS = 22


# --- s-expression reader ------------------------------------------------------

def tokenize(text: str):
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch == '"':
            j = text.index('"', i + 1) + 1
            out.append(text[i:j])
            i = j
        elif ch in "()":
            out.append(ch)
            i += 1
        elif ch.isspace():
            i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "();":
                j += 1
            out.append(text[i:j])
            i = j
    return out


def parse_all(tokens):
    pos = 0

    def node():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            items = []
            while tokens[pos] != ")":
                items.append(node())
            pos += 1
            return items
        return tok

    forms = []
    while pos < len(tokens):
        forms.append(node())
    return forms


# --- evaluation ---------------------------------------------------------------

class Unsupported(Exception):
    pass


def parse_sort(sexp):
    if isinstance(sexp, list) and sexp[:2] == ["_", "BitVec"]:
        return int(sexp[2])
    raise Unsupported(f"sort {sexp}")


def literal(tok):
    """Bit-vector constant token -> (width, value); (None, None) if the
    token is not one."""
    if tok.startswith("#b"):
        return len(tok) - 2, int(tok[2:], 2)
    if tok.startswith("#x"):
        return (len(tok) - 2) * 4, int(tok[2:], 16)
    return None, None


def mask(width):
    return np.uint64((1 << width) - 1)


class Evaluator:
    def __init__(self):
        self.env = {}        # name -> (width, ndarray); width None: Bool
        self.funs = {}       # name -> (params, body)
        self.free = []       # (name, width, offset)
        self.free_bits = 0
        self.asserts = []
        self.bound = False   # free constants materialized yet?
        self.wide = False    # too many free bits to materialize?
        self.hold = None     # where the assertions hold, after check-sat
        self.scopes = []     # what each open push saved

    def _bind(self):
        """Materialize the free constants at first use; False if too wide."""
        if not self.bound and not self.wide:
            if self.free_bits > MAX_FREE_BITS:
                self.wide = True
                return False
            idx = np.arange(1 << self.free_bits, dtype=np.uint64)
            for name, width, offset in self.free:
                self.env[name] = (width,
                                  (idx >> np.uint64(offset)) & mask(width))
            self.bound = True
        return self.bound

    def declare(self, name, width):
        self.free.append((name, width, self.free_bits))
        self.free_bits += width

    def eval(self, sexp, local):
        if isinstance(sexp, str):
            if sexp in local:
                return local[sexp]
            if sexp in self.env:
                return self.env[sexp]
            width, value = literal(sexp)
            if value is None:
                raise Unsupported(f"atom {sexp}")
            return width, np.uint64(value)
        head = sexp[0]
        if head == "_":
            if sexp[1].startswith("bv"):
                return int(sexp[2]), np.uint64(int(sexp[1][2:]))
            raise Unsupported(f"indexed {sexp}")
        if head == "let":
            inner = dict(local)
            for name, rhs in sexp[1]:
                inner[name] = self.eval(rhs, local)
            return self.eval(sexp[2], inner)
        if head == "ite":
            cond = self.eval(sexp[1], local)[1]
            tw, tv = self.eval(sexp[2], local)
            fw, fv = self.eval(sexp[3], local)
            return tw, np.where(cond, tv, fv)
        if isinstance(head, list) and head[0] == "_":
            op = head[1]
            arg = self.eval(sexp[1], local)
            if op == "extract":
                hi, lo = int(head[2]), int(head[3])
                width = hi - lo + 1
                return width, (arg[1] >> np.uint64(lo)) & mask(width)
            if op == "zero_extend":
                return arg[0] + int(head[2]), arg[1]
            raise Unsupported(f"indexed op {op}")
        if head in self.funs:
            params, body = self.funs[head]
            inner = {p: self.eval(a, local)
                     for (p, _), a in zip(params, sexp[1:])}
            return self.eval(body, inner)
        args = [self.eval(a, local) for a in sexp[1:]]
        return self.apply(head, args)

    def apply(self, op, args):
        if op == "=":
            return None, args[0][1] == args[1][1]
        if op == "bvugt":
            return None, args[0][1] > args[1][1]
        if op == "bvnot":
            w = args[0][0]
            return w, ~args[0][1] & mask(w)
        width = args[0][0]
        a = args[0][1]
        b = args[1][1] if len(args) > 1 else None
        if op == "bvxor":
            return width, a ^ b
        if op == "bvand":
            return width, a & b
        if op == "bvor":
            return width, a | b
        if op == "bvadd":
            return width, (a + b) & mask(width)
        if op == "bvsub":
            with np.errstate(over="ignore"):    # wraps below 0, then masked
                return width, (a - b) & mask(width)
        if op == "bvmul":
            return width, (a * b) & mask(width)
        if op in ("bvshl", "bvlshr"):
            shift = np.minimum(b, np.uint64(63))
            raw = (a << shift) if op == "bvshl" else (a >> shift)
            # SMT-LIB: shifting by >= width yields zero
            raw = np.where(b >= np.uint64(width), np.uint64(0), raw)
            return width, raw & mask(width)
        raise Unsupported(f"operator {op}")

    def run_form(self, form):
        """The line the command prints, or None."""
        if not isinstance(form, list):
            raise Unsupported(f"form {form}")
        head = form[0]
        if head in ("set-logic", "set-option", "set-info", "exit"):
            return None
        if head == "push":
            for _ in range(int(form[1]) if len(form) > 1 else 1):
                self.scopes.append((
                    dict(self.env), dict(self.funs), list(self.free),
                    self.free_bits, list(self.asserts), self.bound,
                    self.wide))
            return None
        if head == "pop":
            for _ in range(int(form[1]) if len(form) > 1 else 1):
                (self.env, self.funs, self.free, self.free_bits,
                 self.asserts, self.bound, self.wide) = self.scopes.pop()
            self.hold = None
            return None
        if head == "echo":
            return form[1].strip('"')
        if head == "declare-fun":
            name, params, sort = form[1], form[2], parse_sort(form[3])
            if params:
                raise Unsupported("declare-fun with parameters")
            self.declare(name, sort)
            return None
        if head == "define-fun":
            name, params, _sort, body = form[1], form[2], form[3], form[4]
            if params:
                self.funs[name] = ([(p[0], parse_sort(p[1])) for p in params],
                                   body)
            elif self._bind():
                self.env[name] = self.eval(body, {})
            return None
        if head == "assert":
            if self._bind():
                self.asserts.append(self.eval(form[1], {})[1])
            return None
        if head == "check-sat":
            if not self._bind():
                self.hold = None
                return "unknown"
            hold = np.ones(1 << self.free_bits, dtype=bool)
            for cond in self.asserts:
                hold = hold & cond
            self.hold = hold
            return "sat" if bool(np.any(hold)) else "unsat"
        if head == "get-value":
            if self.hold is None or not self.hold.any():
                return '(error "model is not available")'
            first = int(np.argmax(self.hold))
            pairs = []
            for name in form[1]:
                width, values = self.eval(name, {})
                if width is None:
                    raise Unsupported(f"get-value of {name}")
                value = int(np.broadcast_to(values, self.hold.shape)[first])
                pairs.append(f"({name} #b{value:0{width}b})")
            return f"({' '.join(pairs)})"
        raise Unsupported(f"command {head}")


def decide(text: str) -> list[str]:
    """The lines a solver prints for the script: one per check-sat or
    get-value, or a lone ``unknown`` when the script is too wide."""
    ev = Evaluator()
    out = []
    for form in parse_all(tokenize(text)):
        result = ev.run_form(form)
        if result is not None:
            out.append(result)
    if ev.wide:
        return ["unknown"]
    return out or ["unknown"]


def read_forms(lines):
    """Each complete top-level form of a stream of lines, as it ends."""
    tokens, depth = [], 0
    for line in lines:
        for tok in tokenize(line):
            tokens.append(tok)
            depth += (tok == "(") - (tok == ")")
            if depth == 0:
                yield parse_all(tokens)[0]
                tokens = []


def serve(lines, out) -> None:
    """Answer commands as they arrive, flushing each answer."""
    ev = Evaluator()
    for form in read_forms(lines):
        if form == ["exit"]:
            return
        result = ev.run_form(form)
        if result is not None:
            out.write(result + "\n")
            out.flush()


def main(argv):
    if not argv:
        serve(sys.stdin, sys.stdout)
        return 0
    for path in argv:
        with open(path) as handle:
            print("\n".join(decide(handle.read())))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
