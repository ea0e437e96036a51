"""Distribution-preserving expression reductions.

Four passes run in a fixed order until nothing changes:

1. eliminate_ineffective - variables that never influence the value
   (all decided by one `counting.effective_variables` enumeration
   under a bit budget) become 0.
2. apply_algebraic_laws  - local identities, as the operator table
   (`domain.OPS`) labels them: e op e -> 0, annihilation by 0, unit 1;
   besides e ^ 0 -> e and double complement.
3. eliminate_dominated   - a subexpression dominated by a random r that
   occurs nowhere else collapses to r itself (it is a fresh uniform).
4. apply_meta_theorems   - pattern table of known equivalences, each
   guarded by the same "r occurs nowhere else" side condition; besides,
   r may not occur in what any other metavariable of the pattern binds.

Passes 3 and 4 share one loop, `_rewrite_innermost`: rewrite the
innermost subterm a rule fires on, everywhere it occurs, and restart.

A run's memo (`infer.RunMemo`) makes a chain's reductions incremental.
The law pass is a function of the node alone, so the memo keeps each
node's result (`laws`) and a walk stops at the nodes it holds. Each
reduced expression e-hat is recorded as settled under its pattern table
(`settled`), and the rewrite scans of later reductions skip settled
nodes without descending into them. That is exact: if u is settled and
e contains u, no subterm t of u can fire in e, since every occurrence
of a random r of u that lies outside t also lies outside every
occurrence of t in e, and dominance, pattern matches and their bindings
depend on t alone; u cannot fire either, being a fixpoint in its own
context. So the first rewrite that fires, in (size, print) order, is
the same one. Along a chain `e_{i+1} = e_i op r`, each step then scans
O(1) new nodes; a firing of eliminate_ineffective rewrites the whole
expression, in one walk however many variables it zeroes.

Every pass preserves the joint distribution of the expression for each
fixing of secrets and publics, never grows the tree, and never invents
random variables, so the simplified form can stand in for the original
in both type inference and model counting. The pattern table is the
way to extend reduction with rewrites of one's own.
"""

from __future__ import annotations

from . import expr as ex
from .counting import _check_deadline, effective_variables
from .counting import is_effective  # noqa: F401  re-exported
from .domain import OPS, DomainConfig
from .infer import RunMemo, _dominant, _masks, _run_memo, _vars, leaves
from .program import _END, _Parser


def eliminate_ineffective(e: ex.Expr, d: DomainConfig,
                          memo: RunMemo | None = None) -> ex.Expr:
    """Replace every ineffective variable of e by the constant 0.

    One enumeration decides them all: zeroing one leaves the value of e,
    and so the answer for every other variable, as it was.
    """
    memo = _run_memo(memo, d)
    effective = effective_variables(e, d, memo)
    zeroed = {leaf: ex.ZERO for leaf in leaves(e, d, memo)
              if leaf.name not in effective}
    return ex.substitute(e, zeroed) if zeroed else e


def apply_algebraic_laws(e: ex.Expr, memo: RunMemo | None = None) -> ex.Expr:
    """Rewrite with the local identity/annihilator laws to a fixpoint.

    One pass makes each node its rebuilt children with a law applied on
    top, which depends on the node alone: a run's memo keeps it for
    every later pass and call (`laws`), and a walk stops at the nodes
    it holds.
    """
    laws = {} if memo is None else memo.laws
    while True:
        for node in ex.postorder(e, laws.__contains__):
            if node in laws:
                continue
            kids = tuple(laws[c] for c in ex.children(node))
            new = None
            if isinstance(node, ex.Binary):
                new = _match_law(node.op, *kids)
            elif isinstance(node, ex.Unary) and isinstance(kids[0], ex.Unary):
                new = kids[0].operand
            laws[node] = ex.rebuild(node, kids) if new is None else new
        if laws[e] is e:
            return e
        e = laws[e]


def _match_law(symbol, left, right):
    op = OPS[symbol]
    if left is right and op.self_cancelling:
        return ex.ZERO
    if op.annihilated and (left is ex.ZERO or right is ex.ZERO):
        return ex.ZERO
    if symbol == "^":
        if right is ex.ZERO:
            return left
        if left is ex.ZERO:
            return right
    if op.unit_one:
        if right is ex.ONE:
            return left
        if left is ex.ONE:
            return right
    return None


def _outside(e: ex.Expr, t: ex.Expr, memo: RunMemo) -> int:
    """Bitmask of the variables that occur in e outside every occurrence
    of its subterm t: one walk of e that stops at t."""
    outside = 0
    for node in ex.postorder(e, lambda n: n is t):
        if isinstance(node, ex.Var) and node is not t:
            outside |= _masks(node, memo.d, memo)[0]
    return outside


def _rewrite_innermost(e: ex.Expr, rewrite, settled, deadline) -> ex.Expr:
    """Rewrite e to a fixpoint, innermost subterms first.

    rewrite(e, t) returns what subterm t of e becomes, or None; each hit
    replaces every occurrence of t and the scan restarts, after checking
    the deadline. The scan skips settled nodes (see the module docstring).
    """
    while True:
        _check_deadline(deadline)
        for t in ex.subterms(e, settled):
            new = rewrite(e, t)
            if new is not None:
                e = ex.replace(e, t, new)
                break
        else:
            return e


def eliminate_dominated(e: ex.Expr, d: DomainConfig,
                        memo: RunMemo | None = None, settled=frozenset(),
                        deadline: float | None = None) -> ex.Expr:
    """Collapse r-dominated subexpressions to r when r occurs nowhere else.

    The scan skips the nodes in `settled`, each a fixpoint of this pass.
    Of several such r, the smallest name is taken.
    """
    memo = _run_memo(memo, d)

    def collapse(e, t):
        if isinstance(t, (ex.Var, ex.Const)) or not _dominant(t, d, memo):
            return None
        free = _dominant(t, d, memo) & ~_outside(e, t, memo)
        return min(_vars(free, memo), key=lambda v: v.name, default=None)
    return _rewrite_innermost(e, collapse, settled, deadline)


# --- meta-theorem patterns ----------------------------------------------------

class _MetaKinds:
    """Identifier classes for pattern text: `r` is the distinguished
    random metavariable, anything else matches an arbitrary subterm."""

    @staticmethod
    def get(name):
        return ex.RANDOM if name == "r" else ex.INTERNAL


def _parse_pattern_expr(text: str) -> ex.Expr:
    parser = _Parser(text)
    node = parser.expression(_MetaKinds())
    if parser.peek() != _END:
        parser.fail("trailing input in pattern")
    return node


def parse_pattern(line: str) -> tuple[ex.Expr, ex.Expr]:
    """Parse one `lhs => rhs` rewrite rule."""
    if "=>" not in line:
        raise ValueError(f"pattern needs '=>': {line!r}")
    lhs_text, rhs_text = line.split("=>", 1)
    lhs = _parse_pattern_expr(lhs_text.strip())
    rhs = _parse_pattern_expr(rhs_text.strip())
    lhs_names = ex.variables(lhs)
    if not ex.variables(rhs) <= lhs_names:
        raise ValueError(f"replacement uses unbound names: {line!r}")
    return lhs, rhs


def load_meta_patterns(path) -> list[tuple[ex.Expr, ex.Expr]]:
    """Read rewrite rules from a file, one per line, `#` comments allowed."""
    patterns = []
    with open(path) as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if line:
                patterns.append(parse_pattern(line))
    return patterns


# r masked by anything derived from 2*r leaves r's bit 0 in place,
# making the whole thing a bijection of r.
BUILTIN_META = (parse_pattern("r ^ ((2 * r) & e) => r"),)


def _match(pattern: ex.Expr, node: ex.Expr, bind: dict) -> bool:
    if isinstance(pattern, ex.Const):
        return isinstance(node, ex.Const) and node.value == pattern.value
    if isinstance(pattern, ex.Var):
        if pattern.kind == ex.RANDOM and not (
                isinstance(node, ex.Var) and node.kind == ex.RANDOM):
            return False
        bound = bind.get(pattern.name)
        if bound is not None:
            return bound is node
        bind[pattern.name] = node
        return True
    if isinstance(pattern, ex.Unary):
        return isinstance(node, ex.Unary) and _match(pattern.operand,
                                                     node.operand, bind)
    if isinstance(node, ex.Binary) and node.op == pattern.op:
        saved = dict(bind)
        if _match(pattern.left, node.left, bind) and \
                _match(pattern.right, node.right, bind):
            return True
        bind.clear()
        bind.update(saved)
        if OPS[pattern.op].commutative:
            if _match(pattern.left, node.right, bind) and \
                    _match(pattern.right, node.left, bind):
                return True
            bind.clear()
            bind.update(saved)
    return False


def _instantiate(pattern: ex.Expr, bind: dict) -> ex.Expr:
    if isinstance(pattern, ex.Const):
        return pattern
    if isinstance(pattern, ex.Var):
        return bind[pattern.name]
    if isinstance(pattern, ex.Unary):
        return ex.neg(_instantiate(pattern.operand, bind))
    return ex.binop(pattern.op, _instantiate(pattern.left, bind),
                    _instantiate(pattern.right, bind))


def apply_meta_theorems(e: ex.Expr, d: DomainConfig, patterns=None,
                        settled=frozenset(), deadline: float | None = None,
                        memo: RunMemo | None = None) -> ex.Expr:
    """Apply the pattern table to a fixpoint, innermost matches first,
    patterns in table order, a rewrite of a subterm to itself skipped.

    The distinguished random metavariable only matches a random
    variable that occurs nowhere outside the matched subterm and in no
    other metavariable's binding. The scan skips the nodes in `settled`,
    each a fixpoint of this table. A run's memo over d keeps the
    variable sets these side conditions read.
    """
    memo = _run_memo(memo, d)
    if patterns is None:
        patterns = BUILTIN_META

    def first_match(e, t):
        outside = None
        for lhs, rhs in patterns:
            bind: dict = {}
            if not _match(lhs, t, bind):
                continue
            r = bind.get("r")
            if r is not None:
                bit = _masks(r, d, memo)[0]
                if outside is None:
                    outside = _outside(e, t, memo)
                if bit & outside or any(bit & _masks(b, d, memo)[0]
                                        for name, b in bind.items()
                                        if name != "r"):
                    continue
            replacement = _instantiate(rhs, bind)
            if replacement is not t:
                return replacement
        return None
    return _rewrite_innermost(e, first_match, settled, deadline)


def simplify(e: ex.Expr, d: DomainConfig, patterns=None,
             memo: RunMemo | None = None,
             deadline: float | None = None) -> ex.Expr:
    """Run the four reduction passes to a global fixpoint.

    A run's memo (`infer.RunMemo`) over d shares dominance, the values
    of small enumeration grids, each node's law pass and the expressions
    already reduced under this pattern table with the rest of the run.
    The result joins the latter: a round that returns its input changed
    nothing, as no pass grows the tree or brings a variable back, so it
    is a fixpoint of every pass. The deadline is checked between passes
    and at each rewrite scan (VariableTimeout).
    """
    memo = _run_memo(memo, d)
    if patterns is None:
        patterns = BUILTIN_META
    settled = memo.settled.setdefault(tuple(patterns), set())
    prev = None
    while e is not prev:
        prev = e
        _check_deadline(deadline)
        e = eliminate_ineffective(e, d, memo)
        _check_deadline(deadline)
        e = apply_algebraic_laws(e, memo)
        e = eliminate_dominated(e, d, memo, settled, deadline)
        e = apply_meta_theorems(e, d, patterns, settled, deadline, memo)
    settled.add(e)
    return e

