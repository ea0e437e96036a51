"""Interned expression trees.

Every node is built through the module constructors (const, var, neg,
binop) and deduplicated in a global table, so structurally equal
expressions are the *same object*. That keeps fully expanded
computations affordable: the expansion of a straight-line program is a
tree semantically, but shared subtrees are stored once, and all the
per-node analyses (variable counts, sizes, evaluation) memoize on node
identity.

Every analysis walks an expression with `postorder`: its distinct nodes,
children first, from an explicit stack, since expansion depth grows with
program length. The global memos stop the walk at nodes they hold.

Tree-level quantities such as size and variable multiplicity still
count shared subtrees once per occurrence, matching the semantics of
the expanded tree.
"""

from __future__ import annotations

from collections import Counter
from itertools import groupby

import numpy as np

from .domain import BINARY_OPS, DomainConfig, eval_op, gf_mul_vec
from .errors import ShiftOutOfRange

PUBLIC = "public"
SECRET = "secret"
RANDOM = "random"
INTERNAL = "internal"

VAR_KINDS = (PUBLIC, SECRET, RANDOM, INTERNAL)

# Operator classes. COMMUTATIVE drives both printing-free rule symmetry
# and rewrite matching; RING_OPS excludes shifts (whose right operand is
# always a literal amount).
RING_OPS = ("^", "&", "|", "@", "+", "-", "*")
SHIFT_OPS = ("<<", ">>")
COMMUTATIVE = ("^", "&", "|", "@", "+", "*")


class Expr:
    """Base of the node classes. Hashing and equality are by identity,
    which interning makes the same as structural equality."""

    __slots__ = ()

    def __repr__(self):
        return f"<{type(self).__name__} {pretty(self)}>"


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class Var(Expr):
    __slots__ = ("name", "kind")

    def __init__(self, name, kind):
        self.name = name
        self.kind = kind


class Unary(Expr):
    """Bitwise complement; the only unary operator."""

    __slots__ = ("op", "operand")

    def __init__(self, operand):
        self.op = "~"
        self.operand = operand


class Binary(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        self.op = op
        self.left = left
        self.right = right


_INTERN: dict[tuple, Expr] = {}


def _intern(key, make):
    node = _INTERN.get(key)
    if node is None:
        # setdefault keeps construction safe under concurrent parsing
        node = _INTERN.setdefault(key, make())
    return node


def const(value: int) -> Const:
    if value < 0:
        raise ValueError("constants must be non-negative")
    return _intern(("c", value), lambda: Const(value))


def var(name: str, kind: str) -> Var:
    if kind not in VAR_KINDS:
        raise ValueError(f"bad variable kind {kind!r}")
    return _intern(("v", name, kind), lambda: Var(name, kind))


def neg(operand: Expr) -> Unary:
    return _intern(("u", operand), lambda: Unary(operand))


def binop(op: str, left: Expr, right: Expr) -> Binary:
    if op not in BINARY_OPS:
        raise ValueError(f"bad operator {op!r}")
    return _intern(("b", op, left, right), lambda: Binary(op, left, right))


ZERO = const(0)
ONE = const(1)


def children(e: Expr) -> tuple[Expr, ...]:
    if isinstance(e, Binary):
        return (e.left, e.right)
    if isinstance(e, Unary):
        return (e.operand,)
    return ()


def postorder(e: Expr, stop=None) -> list[Expr]:
    """Distinct nodes of e, children before parents (left before right).

    Walks with an explicit stack, so depth is unbounded. When
    `stop(node)` is true the node is listed but not descended into.
    """
    def below(node):
        return iter(() if stop is not None and stop(node) else children(node))

    order: list[Expr] = []
    seen = {e}
    stack = [(e, below(e))]     # (node, its children not yet taken)
    while stack:
        node, kids = stack[-1]
        for c in kids:
            if c not in seen:
                seen.add(c)
                stack.append((c, below(c)))
                break
        else:
            stack.pop()
            order.append(node)
    return order


def rebuild(node: Expr, kids: tuple[Expr, ...]) -> Expr:
    """node with its children replaced by kids; node itself if unchanged."""
    if isinstance(node, Binary):
        left, right = kids
        if left is node.left and right is node.right:
            return node
        return binop(node.op, left, right)
    if isinstance(node, Unary):
        return node if kids[0] is node.operand else neg(kids[0])
    return node


# --- memoized tree analyses ------------------------------------------------

_SIZE: dict[Expr, int] = {}
_COUNTS: dict[Expr, Counter] = {}
_PRETTY: dict[Expr, str] = {}


def size(e: Expr) -> int:
    """Node count of the expanded tree (shared nodes count per occurrence)."""
    got = _SIZE.get(e)
    if got is None:
        for node in postorder(e, _SIZE.__contains__):
            if node not in _SIZE:
                _SIZE[node] = 1 + sum(_SIZE[c] for c in children(node))
        got = _SIZE[e]
    return got


def var_counts(e: Expr) -> Counter:
    """Occurrences of each Var leaf, with tree multiplicity."""
    got = _COUNTS.get(e)
    if got is None:
        for node in postorder(e, _COUNTS.__contains__):
            if node in _COUNTS:
                continue
            if isinstance(node, Var):
                counts = Counter({node: 1})
            else:
                counts = Counter()
                for c in children(node):
                    counts.update(_COUNTS[c])
            _COUNTS[node] = counts
        got = _COUNTS[e]
    return got


def variables(e: Expr) -> set[str]:
    """Names of all variables occurring in e."""
    return {v.name for v in var_counts(e)}


def rvars(e: Expr) -> set[str]:
    """Names of the random variables occurring in e."""
    return {v.name for v in var_counts(e) if v.kind == RANDOM}


def var_leaves(e: Expr) -> set[Var]:
    return set(var_counts(e))


def occurrences(e: Expr, t: Expr) -> int:
    """How many times subterm t occurs in the tree of e."""
    memo: dict[Expr, int] = {}
    for node in postorder(e, lambda n: n is t):
        memo[node] = 1 if node is t else sum(memo[c] for c in children(node))
    return memo[e]


def substitute(e: Expr, mapping: dict[Expr, Expr]) -> Expr:
    """Replace every occurrence of each key of mapping in e with its value,
    in one walk that does not descend into the keys."""
    memo: dict[Expr, Expr] = {}
    for node in postorder(e, mapping.__contains__):
        memo[node] = mapping[node] if node in mapping else \
            rebuild(node, tuple(memo[c] for c in children(node)))
    return memo[e]


def replace(e: Expr, t: Expr, s: Expr) -> Expr:
    """Replace every occurrence of subterm t in e with s."""
    return substitute(e, {t: s})


def subterms(e: Expr, skip=frozenset()) -> list[Expr]:
    """Distinct subterms of e, innermost first (size, then print order).

    Nodes in `skip` are left out and not descended into; what lies
    below them is listed only if it is also reachable another way.
    Only subterms of equal size are printed to be ordered: both sorts
    are stable, so the order is that of the key (size, pretty), but a
    chain, whose subterms all differ in size, prints none of them.
    """
    nodes = postorder(e, skip.__contains__ if skip else None)
    if skip:
        nodes = [node for node in nodes if node not in skip]
    out: list[Expr] = []
    for _, run in groupby(sorted(nodes, key=size), key=size):
        run = list(run)
        out += sorted(run, key=pretty) if len(run) > 1 else run
    return out


def pretty(e: Expr) -> str:
    """Fully parenthesized rendering; reparses to the same tree."""
    got = _PRETTY.get(e)
    if got is None:
        for node in postorder(e, _PRETTY.__contains__):
            if node in _PRETTY:
                continue
            if isinstance(node, Const):
                text = str(node.value)
            elif isinstance(node, Var):
                text = node.name
            elif isinstance(node, Unary):
                inner = _PRETTY[node.operand]
                if isinstance(node.operand, (Binary, Unary)):
                    text = f"~({inner})"
                else:
                    text = f"~{inner}"
            else:
                text = f"({_PRETTY[node.left]} {node.op} {_PRETTY[node.right]})"
            _PRETTY[node] = text
        got = _PRETTY[e]
    return got


# --- evaluation -------------------------------------------------------------

def eval_expr(e: Expr, env: dict[str, int], d: DomainConfig) -> int:
    """Evaluate with scalar ints from env; constants wrap mod 2^bits."""
    memo: dict[Expr, int] = {}
    for node in postorder(e):
        if isinstance(node, Const):
            got = node.value & d.mask
        elif isinstance(node, Var):
            got = env[node.name] & d.mask
        elif isinstance(node, Unary):
            got = eval_op("~", memo[node.operand], None, d)
        elif node.op in SHIFT_OPS:
            if not isinstance(node.right, Const):
                raise ShiftOutOfRange("shift amount must be a constant")
            got = eval_op(node.op, memo[node.left], node.right.value, d)
        else:
            got = eval_op(node.op, memo[node.left], memo[node.right], d)
        memo[node] = got
    return memo[e]


_VEC_OPS = {"^": np.bitwise_xor, "&": np.bitwise_and, "|": np.bitwise_or,
            "+": np.add, "-": np.subtract, "*": np.multiply}
_WRAPPING_OPS = ("+", "-", "*")


def eval_vec(e: Expr, env: dict[str, np.ndarray], d: DomainConfig,
             kept: dict[Expr, np.ndarray] | None = None) -> np.ndarray:
    """Evaluate elementwise; values are `d.dtype` arrays (broadcasting
    allowed).

    Constants, the mask and shift amounts are `d.dtype` scalars too, so
    no operand widens the result: on `d.dtype` inputs every value stays
    `d.dtype`. Each intermediate array is dropped after its last use, so
    the live set stays near the widest cut of the expression, not its
    size. `kept` gives the values of some nodes on this same env: the
    walk stops at them. Wraparound of +, - and * (mod 2^8 or 2^16
    before the mask) is the intended modular semantics, so the numpy
    overflow warning (emitted only for scalar operands) is off.
    """
    word = d.dtype
    mask = word(d.mask)
    kept = kept or {}
    order = postorder(e, kept.__contains__ if kept else None)
    slots: dict[Expr, list] = {}    # node -> [value, uses still to come]
    for node in order:
        slots[node] = [None, 0]
        if node not in kept:
            for c in children(node):
                slots[c][1] += 1

    def take(node):
        slot = slots[node]
        value = slot[0]
        slot[1] -= 1
        if not slot[1]:
            slot[0] = None
        return value

    with np.errstate(over="ignore"):
        for node in order:
            if node in kept:
                got = kept[node]
            elif isinstance(node, Const):
                got = word(node.value & d.mask)
            elif isinstance(node, Var):
                got = env[node.name]
            elif isinstance(node, Unary):
                got = ~take(node.operand) & mask
            elif node.op in SHIFT_OPS:
                if not isinstance(node.right, Const):
                    raise ShiftOutOfRange("shift amount must be a constant")
                amount = node.right.value
                if not 0 <= amount < d.bits:
                    raise ShiftOutOfRange(
                        f"shift amount {amount} outside [0, {d.bits})")
                take(node.right)
                if node.op == "<<":
                    got = (take(node.left) << word(amount)) & mask
                else:
                    got = take(node.left) >> word(amount)
            elif node.op == "@":
                got = gf_mul_vec(take(node.left), take(node.right), d)
            else:
                got = _VEC_OPS[node.op](take(node.left), take(node.right))
                if node.op in _WRAPPING_OPS:
                    got &= mask
            slots[node][0] = got
            del got
        return slots[e][0]
