"""Distribution types and the syntax-directed rules that assign them.

Each expression over program inputs gets one of four labels:

* RUD - uniform for every fixing of secrets and publics
* SID - distribution identical across fixings that agree on publics
  (RUD is a subtype: uniform everywhere implies identical everywhere)
* SDD - provably NOT secret-independent
* UKD - the rules cannot decide

The workhorse is the dominant-variable check: a random r that occurs
exactly once, reachable from the root through bijective steps only
(xor, complement, modular add/sub, or a multiplication whose other
operand is an invertible constant), makes the whole expression uniform.
Which steps those are, and which rules apply to an operator, is read
from the operator table (`domain.OPS`).

Rules fire in a fixed priority order and every binary rule is also
tried with its operands swapped (commutativity of the ring operators),
so the outcome is deterministic. An optional store of already-resolved
expression types is consulted before giving up with UKD, which lets
verdicts established by model counting propagate into later, larger
expressions.

Inference walks an explicit stack and stays lazy: the rules that need
nothing from the children (dominant, no-secret, secret, self-cancel)
run first, and only a node they leave undecided has its children typed
before the combining rules run on it.

Judgements are memoised in a RunMemo, and so are the variable sets the
rules ask about: per node, bitmasks of the variables that occur, that
occur more than once and the randoms reachable through bijective
steps, each a few integer operations on its children's. A node's
dominant randoms are then `reach & ~repeated`, and the side conditions
of the combining rules are intersections of masks. A direct call gets
a fresh memo, so it derives its expression from the leaves; the
verifier passes one memo to every call of a run, so each node is judged
and its masks found once per program, not once per variable. A judgement
whose derivation never reached the store never changes. One that did
is dropped, with every judgement derived from it, when the verifier
writes a store entry for its node (`RunMemo.forget`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import expr as ex
from .domain import OPS, DomainConfig


class DistType(enum.Enum):
    RUD = "RUD"
    SID = "SID"
    SDD = "SDD"
    UKD = "UKD"

    def __str__(self):
        return self.value


RUD = DistType.RUD
SID = DistType.SID
SDD = DistType.SDD
UKD = DistType.UKD


def at_most_sid(t: DistType) -> bool:
    """Subtype check: RUD counts wherever SID is required."""
    return t in (RUD, SID)


@dataclass(frozen=True)
class Judgement:
    expr: ex.Expr
    dist: DistType
    rule_trace: tuple[str, ...]   # derivation, root rule last


def _opaque(node: ex.Expr, d: DomainConfig | None) -> bool:
    """Does uniformity fail to pass up through node from its operands?"""
    op = OPS[node.op] if isinstance(node, ex.Binary) else None
    if op is None or op.bijective:
        return False    # complement, leaves and bijective operators
    # a product with an invertible constant is a bijection of the other
    # operand; the constant itself holds no random variable
    return op.inverted_by is None or not any(
        isinstance(c, ex.Const)
        and op.inverted_by(c.value if d is None else c.value & d.mask)
        for c in (node.left, node.right))


class RunMemo:
    """What one verification run shares across its variables, over one
    domain (None: constants unmasked).

    `pm_check` and `qms_compute` create one, pass it to every infer,
    simplify and counting call of the run and drop it on return. Every
    entry is exact whatever order the calls come in:

    * judged - each node's judgement. `links` lists every node whose
      judgement reached the store, directly or through a child, with
      the nodes whose judgements were derived from it.
    * masks - per node, three sets of variables as bitmasks: those that
      occur in it, those that occur more than once (tree multiplicity)
      and the randoms reachable through bijective steps. Each Var node
      gets one bit, in the order they are first seen: `vars` gives
      each bit's Var node, `secrets` and `randoms` the bits of those
      kinds. `leaves` decodes a node's occurs mask; every stage of a
      run that asks which variables occur in a node asks it.
    * blocks - counting's kept block values: per block layout, the
      last expression evaluated there and its values.
    * laws - per node, what one pass of the algebraic laws makes of it
      (a function of the node alone).
    * settled - per meta-pattern table (a tuple), the expressions
      `simplify` has reduced under it: fixpoints of every reduction
      pass, which the rewrite scans of later reductions skip.
    """

    def __init__(self, d: DomainConfig | None = None):
        self.d = d
        self.judged: dict[ex.Expr, Judgement] = {}
        self.links: dict[ex.Expr, list[ex.Expr]] = {}
        self.masks: dict[ex.Expr, tuple[int, int, int]] = {}
        self.vars: list[ex.Var] = []
        self.secrets = 0
        self.randoms = 0
        self.blocks: dict = {}
        self.laws: dict[ex.Expr, ex.Expr] = {}
        self.settled: dict[tuple, set[ex.Expr]] = {}

    def forget(self, node: ex.Expr) -> None:
        """A store entry for node was written: drop its judgement and,
        transitively, every judgement derived from it."""
        stack = [node]
        while stack:
            node = stack.pop()
            self.judged.pop(node, None)
            stack.extend(self.links.pop(node, ()))


def _run_memo(memo: RunMemo | None, d: DomainConfig | None) -> RunMemo:
    """memo, or a fresh one for a single call; it must be over d."""
    if memo is None:
        return RunMemo(d)
    if memo.d != d:
        raise ValueError(f"memo is over {memo.d}, not {d}")
    return memo


def _masks(e: ex.Expr, d: DomainConfig | None,
           memo: RunMemo) -> tuple[int, int, int]:
    """e's variables as bitmasks: (occurring, occurring more than once,
    randoms reachable through bijective steps)."""
    masks = memo.masks
    got = masks.get(e)
    if got is None:
        for node in ex.postorder(e, masks.__contains__):
            if node in masks:
                continue
            if isinstance(node, ex.Binary):
                occ, rep, reach = masks[node.left]
                r_occ, r_rep, r_reach = masks[node.right]
                got = (occ | r_occ, rep | r_rep | (occ & r_occ),
                       0 if _opaque(node, d) else reach | r_reach)
            elif isinstance(node, ex.Unary):
                got = masks[node.operand]
            elif isinstance(node, ex.Var):
                bit = 1 << len(memo.vars)
                memo.vars.append(node)
                if node.kind == ex.SECRET:
                    memo.secrets |= bit
                if node.kind == ex.RANDOM:
                    memo.randoms |= bit
                got = (bit, 0, bit if node.kind == ex.RANDOM else 0)
            else:
                got = (0, 0, 0)
            masks[node] = got
        got = masks[e]
    return got


def _vars(mask: int, memo: RunMemo) -> list[ex.Var]:
    """The Var nodes of mask's bits, in bit order."""
    found = []
    while mask:
        low = mask & -mask
        found.append(memo.vars[low.bit_length() - 1])
        mask ^= low
    return found


def leaves(e: ex.Expr, d: DomainConfig | None = None,
           memo: RunMemo | None = None) -> list[ex.Var]:
    """e's variables, sorted by name, decoded from its occurs mask; a
    call without a run's memo gets a fresh one."""
    memo = _run_memo(memo, d)
    return sorted(_vars(_masks(e, d, memo)[0], memo), key=lambda v: v.name)


def _dominant(e: ex.Expr, d: DomainConfig | None, memo: RunMemo) -> int:
    """Bitmask of e's dominant randoms: reachable and occurring once."""
    _, rep, reach = _masks(e, d, memo)
    return reach & ~rep


def dominant_vars(e: ex.Expr, d: DomainConfig | None = None,
                  memo: RunMemo | None = None) -> set[str]:
    """Random variables that occur once and dominate the expression.

    Passing the domain lets constant siblings be judged by their masked
    value (a literal like 256 is 0 in an 8-bit word and must not count
    as invertible). A run's memo, over the same domain, keeps the
    variable sets of each node for every later call.
    """
    memo = _run_memo(memo, d)
    return {v.name for v in _vars(_dominant(e, d, memo), memo)}


def _is_secret(node: ex.Expr) -> bool:
    return isinstance(node, ex.Var) and node.kind == ex.SECRET


def _closed(node: ex.Expr, d: DomainConfig | None,
            memo: RunMemo) -> Judgement | None:
    """The rules that decide a node without typing its children."""
    # dominant random variable: uniform outright
    if _dominant(node, d, memo):
        return Judgement(node, RUD, ("dominant",))
    # no secret anywhere: the distribution cannot depend on one
    if not _masks(node, d, memo)[0] & memo.secrets:
        return Judgement(node, SID, ("no-secret",))
    if _is_secret(node):
        return Judgement(node, SDD, ("secret",))
    # e (+) e collapses to a constant
    if isinstance(node, ex.Binary) and node.left is node.right and \
            OPS[node.op].self_cancelling:
        return Judgement(node, SID, ("self-cancel",))
    return None


def _combined(node: ex.Expr, d: DomainConfig | None,
              memo: RunMemo) -> Judgement | None:
    """The rules that decide a node from its children's judgements."""
    judged = memo.judged
    if isinstance(node, ex.Unary):
        # complement is a bijection on values: type carries over
        sub = judged[node.operand]
        if sub.dist is not UKD:
            return Judgement(node, sub.dist, sub.rule_trace + ("complement",))
        return None
    left, right, op = node.left, node.right, OPS[node.op]   # never a leaf
    lj, rj = judged[left], judged[right]
    if left is right:
        # e op e is a pointwise function of e
        if at_most_sid(lj.dist):
            return Judgement(node, SID, lj.rule_trace + ("self-op",))
        if lj.dist is SDD and op.idempotent:
            return Judgement(node, SDD, lj.rule_trace + ("self-absorb",))

    both = lj.rule_trace + rj.rule_trace
    l_occ, r_occ = _masks(left, d, memo)[0], _masks(right, d, memo)[0]
    # uniform x uniform with a fresh dominant on one side
    if op.product and lj.dist is RUD and rj.dist is RUD:
        if _dominant(left, d, memo) & ~r_occ:
            return Judgement(node, SID, both + ("masked-product",))
        if _dominant(right, d, memo) & ~l_occ:
            return Judgement(node, SID, both + ("masked-product", "commute"))

    # independent secret-independent operands
    if at_most_sid(lj.dist) and at_most_sid(rj.dist) and \
            not l_occ & r_occ & memo.randoms:
        return Judgement(node, SID, both + ("independent-op",))

    # a bare secret times a freshly-masked uniform: the secret's values
    # 0 and all-ones (1 for `@` and `*`) give a point mass and a uniform
    # distribution; other dependent operands may never take those values
    if op.product:
        if _is_secret(left) and rj.dist is RUD and \
                _dominant(right, d, memo) & ~l_occ:
            return Judgement(node, SDD, both + ("tainted-product",))
        if _is_secret(right) and lj.dist is RUD and \
                _dominant(left, d, memo) & ~r_occ:
            return Judgement(node, SDD,
                             both + ("tainted-product", "commute"))
    return None


def infer(e: ex.Expr, d: DomainConfig | None = None,
          store: dict[ex.Expr, DistType] | None = None,
          memo: RunMemo | None = None) -> Judgement:
    """Assign a distribution type by the rule system.

    `store` maps already-resolved expressions to their types; it is
    consulted only where the rules would otherwise answer UKD. A run's
    memo keeps every judgement for the later calls of the run, which
    must pass the same store and call `memo.forget` for each entry
    written to it.
    """
    memo = _run_memo(memo, d)
    judged, links = memo.judged, memo.links
    opened = set()      # closed rules failed, children being typed
    stack = [e]
    while stack:
        node = stack.pop()
        if node in judged:
            continue
        if node not in opened:
            got = _closed(node, d, memo)
            if got is None:
                opened.add(node)
                stack.append(node)
                stack.extend(ex.children(node))
                continue
        else:
            got = _combined(node, d, memo)
            unsettled = {c for c in ex.children(node) if c in links}
            if got is None:
                known = store.get(node, UKD) if store else UKD
                got = Judgement(node, known, ("unknown",) if known is UKD
                                else ("recalled",))
                links[node] = []
            elif unsettled:
                links[node] = []
            for c in unsettled:
                links[c].append(node)
        judged[node] = got
    return judged[e]
