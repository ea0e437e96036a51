"""Exact distribution computation: by enumeration, or bit by bit.

For an expression e over publics/secrets (fixed by an assignment sigma)
and randoms (enumerated exhaustively), `distribution` tallies how often
each value appears. On top of that:

* check_uniform - flat for every sigma
* check_si      - identical across sigma pairs that agree on publics
* qms_exact     - 1 - max_(sigma1,sigma2,c) (count1[c]-count2[c]) / 2^m,
                  the quantitative masking strength, as an exact rational
* is_effective  - can one variable change the value at all;
                  effective_variables answers for every variable at once

One enumerator, `_Space`, answers every question but one kind of
count: the assignments to its row variables by the assignments to its
column variables, other variables fixed, evaluated in blocks of at
most _CHUNK_CELLS cells (whole rows while a row fits, column slices of
a wider row); values are `d.dtype` arrays, one byte a cell up to 8
bits. `_digits` turns an index into values, first name most
significant, so index order is lexicographic order.

The exception is the count matrix of an expression built only from
leaves, constants and the operators the table (`domain.OPS`) labels
bitwise (`^ & | ~`) or carrying (`+ -`). Bit i of such an expression
depends only on bit i of its leaves and on one carry per distinct
carrying node, so `_bit_serial_counts` counts it one bit position at a
time, carries as state: per bit, one evaluation over the row bits, the
carries in and the random bits. It is used when a fixed rule on the
expression and the domain finds it less work than enumerating S x F
cells (`_bit_serial_pays`: roughly V x 4^k < F for k carrying nodes)
and its tensor fits the count-matrix cap. It gives the same S x V
matrix, so every answer and witness is the same on either path. It is
single-threaded, and the budget still charges it all S x F cells.

Counting makes every secret and public of e, sorted by name, index the
sigma rows, and its randoms the columns. It does not ask which
variables are effective: the verifier counts reduced expressions, from
which eliminate_ineffective has removed them, and a direct caller that
keeps one pays d.size times the rows for the same answer. Witnesses are
the lexicographically smallest assignments that exhibit the reported
gap, so such a variable shows as 0. Row spans may run on a thread pool;
results land in arrays indexed by row, so the outcome, witnesses
included, is byte-identical at any number of workers. Work is bounded
by an evaluation budget and an internal count-matrix cap; a cooperative
deadline can abort between blocks, or between bits.

Given a run's memo (`infer.RunMemo`), a space of one block of at most
_KEEP_CELLS cells keeps, in the memo's `blocks`, the values of the last
expression evaluated on it, keyed by its layout: row and column names,
fixed values, row and column range, and domain. The next expression on
the same layout stops its evaluation at that node, so along a chain of
variables `e_{i+1} = e_i op r` each block evaluates O(1) new nodes.
Wider spaces keep nothing, so no held array exceeds _KEEP_CELLS cells.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import expr as ex
from .domain import OPS, DomainConfig
from .errors import BudgetExceeded, UncoveredVariable, VariableTimeout
from .infer import leaves

DEFAULT_BUDGET = 1 << 28
_MATRIX_CELL_CAP = 1 << 26
_CHUNK_CELLS = 1 << 20
_KEEP_CELLS = 1 << 16
# the fixed cost of one bit of a bit-serial count, in enumerated cells:
# about 10 us against about 1.2 ns a cell of a 2^24-cell enumeration
_LEVEL_CELLS = 1 << 13
EFFECTIVE_BITS_BUDGET = 20


@dataclass
class CountVector:
    """Value counts over all random assignments (total = 2^(bits*|rvars|))."""

    counts: np.ndarray
    total: int

    def __eq__(self, other):
        return isinstance(other, CountVector) and self.total == other.total \
            and np.array_equal(self.counts, other.counts)

    def is_flat(self) -> bool:
        size = len(self.counts)
        return self.total % size == 0 and \
            bool((self.counts == self.total // size).all())

    def probability(self, value: int) -> Fraction:
        return Fraction(int(self.counts[value]), self.total)


@dataclass
class Qms:
    """Quantitative masking strength num/den, deliberately unreduced.

    The denominator is 2^(bits*|rvars|) of the counted expression. From
    qms_exact, the witness, present exactly when num < den, is the
    lexicographically smallest (sigma1, sigma2, c) realizing the maximal
    count gap. The verifier gives an SDD variable whose reduced
    expansion has no randoms Qms(0, 1) with no witness; that variable's
    own witness is the verdict's (sigma1, sigma2) pair, not a triple.
    """

    num: int
    den: int
    witness: tuple[dict, dict, int] | None = None

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __float__(self):
        return self.num / self.den


def _check_deadline(deadline):
    if deadline is not None and time.monotonic() > deadline:
        raise VariableTimeout("per-variable deadline exceeded")


def _digits(index, names, d: DomainConfig) -> dict:
    """Values of `names` encoded in `index`, the first name most significant.

    `index` is an int (values are ints), a range (values are 1-D
    `d.dtype` arrays) or a uint64 array (values are `d.dtype` arrays of
    its shape). A range's values are made in `d.dtype` from the runs of
    each digit, with no index array: eight bytes a cell would make every
    block's row and column values a fresh, page-faulted allocation.
    """
    values = {}
    if isinstance(index, range):
        lo, hi = index.start, index.stop
        for i, name in enumerate(names):
            shift = d.bits * (len(names) - 1 - i)
            first, last = lo >> shift, (hi - 1) >> shift
            if first == last:
                values[name] = np.full(hi - lo, first & d.mask, d.dtype)
                continue
            # digits first..last, each held 2^shift times, cut to lo..hi
            runs = np.arange(first, last + 1)
            runs &= d.mask
            values[name] = runs.astype(d.dtype).repeat(1 << shift)[
                lo - (first << shift):hi - (first << shift)]
        return values
    vector = isinstance(index, np.ndarray)
    for i, name in enumerate(names):
        value = (index >> d.bits * (len(names) - 1 - i)) & d.mask
        values[name] = value.astype(d.dtype) if vector else value
    return values


class _Space:
    """Assignments to `rows` x assignments to `cols`, `fixed` held constant.

    `kept`, a run memo's `blocks`, keeps the space's values for the next
    expression when the space is one block of at most _KEEP_CELLS cells.
    """

    def __init__(self, d: DomainConfig, rows: list[str], cols: list[str],
                 fixed: dict[str, int], budget: int, kept: dict | None = None):
        self.d = d
        self.rows = rows
        self.cols = cols
        self.fixed = {n: d.dtype(v & d.mask) for n, v in fixed.items()}
        self.S = d.size ** len(rows)
        self.F = d.size ** len(cols)
        self.step = max(1, _CHUNK_CELLS // self.F)   # whole rows per block
        if self.S * self.F > budget:
            raise BudgetExceeded(
                f"{self.S} sigma x {self.F} random assignments exceed "
                f"the budget of {budget} evaluations")
        cells = self.S * self.F
        self.kept = kept if cells <= min(_KEEP_CELLS, _CHUNK_CELLS) else None

    def blocks(self, e: ex.Expr, lo: int, hi: int, deadline=None):
        """Values of e on rows [lo, hi) as (first row, first column, block).

        A block is a (rows x columns) array of at most _CHUNK_CELLS
        cells; a row wider than that comes in column slices.
        """
        width = min(self.F, _CHUNK_CELLS)
        # a row that fits one slice has one set of column values, made
        # once (at most _CHUNK_CELLS bytes per column at 8 bits); a
        # wider row's slices are made per block and die with the call
        whole = self._columns(0, width) if width == self.F else None
        for r0 in range(lo, hi, self.step):
            r1 = min(r0 + self.step, hi)
            row_env = {n: v[:, None] for n, v in
                       _digits(range(r0, r1), self.rows, self.d).items()}
            for f0 in range(0, self.F, width):
                f1 = min(f0 + width, self.F)
                _check_deadline(deadline)
                env = {**self.fixed, **row_env,
                       **(whole if whole is not None
                          else self._columns(f0, f1))}
                if self.kept is None:
                    values = ex.eval_vec(e, env, self.d)
                else:
                    layout = (tuple(self.rows), tuple(self.cols),
                              tuple(self.fixed.items()), r0, r1, f0, f1,
                              self.d)
                    values = ex.eval_vec(e, env, self.d,
                                         self.kept.get(layout))
                    self.kept[layout] = {e: values}
                del env
                yield r0, f0, np.broadcast_to(values, (r1 - r0, f1 - f0))

    def _columns(self, f0: int, f1: int) -> dict:
        return {n: v[None, :] for n, v in
                _digits(range(f0, f1), self.cols, self.d).items()}


def _sigma_space(e: ex.Expr, d: DomainConfig, budget: int, memo=None):
    """Every secret and public of e indexes sigma, every random a column.

    Returns the space and the sigma-index bits that hold the publics.
    """
    found = leaves(e, d, memo)
    rows = [v.name for v in found if v.kind != ex.RANDOM]
    cols = [v.name for v in found if v.kind == ex.RANDOM]
    publics = {v.name for v in found if v.kind == ex.PUBLIC}
    public_mask = sum(d.mask << d.bits * (len(rows) - 1 - i)
                      for i, name in enumerate(rows) if name in publics)
    return _Space(d, rows, cols, {}, budget, _kept(memo)), public_mask


def _kept(memo) -> dict | None:
    return None if memo is None else memo.blocks


def _carries(e: ex.Expr) -> int | None:
    """Number of distinct carrying nodes of e, or None as soon as the
    walk meets an operator that is neither bitwise nor carrying."""
    carries = 0
    seen = {e}
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, (ex.Unary, ex.Binary)):
            op = OPS[node.op]
            if not (op.bitwise or op.carries):
                return None
            carries += op.carries
            for c in ex.children(node):
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
    return carries


def _bit_serial_pays(e, d, space) -> bool:
    """Does counting e bit by bit do less work than enumerating it?

    Bit-serial work is, per bit, its grid of row, carry and random bits
    plus a fixed cost, and then the fold of the count tensor, at most
    S x V x 2^k cells times 2^k carries in; enumeration's is S x F
    cells. The grid must fit one block, the float64 tensor the bytes of
    a capped uint32 count matrix, and every count a uint32 (F < 2^32).
    The cheap bound (no carries) is tested before the walk that finds k.
    """
    grid_bits = len(space.rows) + len(space.cols)   # plus one per carry
    cells = space.S * space.F

    def work(k):
        return d.bits * ((1 << (grid_bits + k)) + _LEVEL_CELLS) + \
            space.S * d.size * 4 ** k

    if not 1 < space.F < 1 << 32 or work(0) >= cells:
        return False
    k = _carries(e)
    return k is not None and work(k) < cells and \
        (1 << (grid_bits + k)) <= _CHUNK_CELLS and \
        (space.S * d.size << (k + 1)) <= _MATRIX_CELL_CAP


def _bit_serial_counts(e, d, rows, cols, deadline=None):
    """(S x 2^bits) count matrix of a bitwise and carrying e, bit by bit.

    Bit i of e is a function of bit i of its leaves and of one carry in
    per distinct carrying node (all 0 at bit 0). So each bit is one
    evaluation over the grid of row bits x carries in x random bits,
    tallied over the random bits into T[row bits, carries in, bit,
    carries out], with which the count tensor over (row and value bits
    so far, carries) is folded, a float64 matrix product, exact while
    counts stay below 2^53. The last bit's carries out are summed out
    and the bit axes reordered into `_digits` order, so the matrix is
    the one enumeration tallies: uint32, or uint64 when F >= 2^32, which
    only a direct call past the budget reaches.
    """
    order = ex.postorder(e)
    carrying = [n for n in order
                if isinstance(n, ex.Binary) and OPS[n.op].carries]
    n_r, k, n_c = len(rows), len(carrying), len(cols)
    grid = n_r + k + n_c
    index = np.arange(1 << grid, dtype=np.intp)

    def bit(axis):
        return ((index >> (grid - 1 - axis)) & 1).astype(np.int8)

    env = {name: bit(j) for j, name in enumerate(rows)}
    env.update((name, bit(n_r + k + j)) for j, name in enumerate(cols))
    carry_in = {n: bit(n_r + j) for j, n in enumerate(carrying)}
    head = (index >> n_c) << (k + 1)    # (row bits, carries in) of a cell
    R, C = 1 << n_r, 1 << k
    counts = np.zeros((1, C), dtype=np.float64)
    counts[0, 0] = 1
    for i in range(d.bits):
        _check_deadline(deadline)
        values, carry_out = {}, {}
        for node in order:
            if isinstance(node, ex.Const):
                got = np.int8(node.value >> i & 1)
            elif isinstance(node, ex.Var):
                got = env[node.name]
            else:
                op = OPS[node.op]
                got = op.kernel(*(values[c] for c in ex.children(node)))
                if op.carries:
                    got = op.kernel(got, carry_in[node])
                    carry_out[node] = (got >> 1) & 1
                if op.wraps:
                    got = got & 1
            values[node] = got
        cell = head | values[e].astype(np.intp) << k
        for j, node in enumerate(carrying):
            cell |= carry_out[node].astype(np.intp) << (k - 1 - j)
        table = np.bincount(cell, minlength=2 * R * C * C).reshape(
            R, C, 2, C).transpose(0, 2, 1, 3).reshape(2 * R, C, C)
        if i == d.bits - 1:
            table = table.sum(axis=2, keepdims=True)
        # this bit's (row bits, value bit) go before those of lower bits
        counts = np.matmul(counts, table.astype(np.float64)).reshape(
            -1, table.shape[2])
    # axes: per bit, most significant first, its row bits then its value bit
    per_bit = n_r + 1
    order_axes = [p * per_bit + j for j in range(n_r) for p in range(d.bits)]
    order_axes += [p * per_bit + n_r for p in range(d.bits)]
    dtype = np.uint32 if d.bits * n_c < 32 else np.uint64
    return counts.astype(dtype).reshape(
        (2,) * (d.bits * per_bit)).transpose(order_axes).reshape(
            R ** d.bits, d.size)


def _counts_matrix(e, d, space, jobs, deadline):
    """(S x 2^bits) count matrix, or per-sigma values when F == 1.

    An expression of bitwise and carrying operators is counted bit by
    bit when that does less work; otherwise every cell is enumerated.
    """
    V = d.size
    if space.F == 1:
        target = np.empty(space.S, dtype=d.dtype)
    else:
        if space.S * V > _MATRIX_CELL_CAP:
            raise BudgetExceeded(
                f"count matrix of {space.S} x {V} cells exceeds the "
                f"internal cap of {_MATRIX_CELL_CAP}")
        if _bit_serial_pays(e, d, space):
            return _bit_serial_counts(e, d, space.rows, space.cols,
                                      deadline)
        target = np.zeros((space.S, V), dtype=np.uint32)

    spans = [(lo, min(lo + space.step, space.S))
             for lo in range(0, space.S, space.step)]

    def work(span):
        for r0, _, block in space.blocks(e, *span, deadline):
            r1 = r0 + len(block)
            if space.F == 1:
                target[r0:r1] = block[:, 0]
            else:
                # one index row * V + value per cell; uint16 while it
                # fits, else the intp bincount counts in, which spares
                # it a second, converted copy
                bins = (r1 - r0) * V
                index = np.uint16 if bins <= 1 << 16 else np.intp
                rows = np.arange(0, bins, V, dtype=index)[:, None]
                target[r0:r1] += np.bincount(
                    (rows + block).ravel(), minlength=bins).reshape(
                        r1 - r0, V).astype(np.uint32)

    if jobs > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(work, spans))
    else:
        for span in spans:
            work(span)
    return target


def distribution(e: ex.Expr, sigma: dict[str, int], d: DomainConfig,
                 budget: int = DEFAULT_BUDGET) -> CountVector:
    """Exact value counts of e under sigma, over all random assignments."""
    found = leaves(e, d)
    nonrandom = [v.name for v in found if v.kind != ex.RANDOM]
    missing = [n for n in nonrandom if n not in sigma]
    if missing:
        raise UncoveredVariable(f"sigma misses {missing} for {ex.pretty(e)}")
    rand_names = [v.name for v in found if v.kind == ex.RANDOM]
    space = _Space(d, [], rand_names, {n: sigma[n] for n in nonrandom},
                   budget)
    counts = np.zeros(d.size, dtype=np.int64)
    for _, _, block in space.blocks(e, 0, 1):
        counts += np.bincount(block.ravel(), minlength=d.size)
    return CountVector(counts, space.F)


def effective_variables(e: ex.Expr, d: DomainConfig,
                        memo=None) -> set[str]:
    """Names of the variables that can change the value of e.

    One evaluation of e on every assignment, each variable a row, while
    they fit in EFFECTIVE_BITS_BUDGET bits; beyond that, conservatively,
    every name. A run's memo keeps the values of small grids.
    """
    names = [v.name for v in leaves(e, d, memo)]
    if d.bits * len(names) > EFFECTIVE_BITS_BUDGET:
        return set(names)
    space = _Space(d, names, [], {}, 1 << EFFECTIVE_BITS_BUDGET, _kept(memo))
    grid = _counts_matrix(e, d, space, 1, None).reshape(
        (d.size,) * len(names))
    return {x for i, x in enumerate(names)
            if (grid != grid.take([0], axis=i)).any()}


def is_effective(x: str, e: ex.Expr, d: DomainConfig) -> bool:
    """Can changing x change the value of e, for some other fixing?"""
    return x in effective_variables(e, d)


def check_uniform(e: ex.Expr, d: DomainConfig, budget: int = DEFAULT_BUDGET,
                  jobs: int = 1, deadline: float | None = None) -> bool:
    """Is e uniformly distributed for every fixing of secrets and publics?"""
    space, _ = _sigma_space(e, d, budget)
    if space.F % d.size != 0:
        return False  # counts cannot be flat (includes F == 1)
    matrix = _counts_matrix(e, d, space, jobs, deadline)
    return bool((matrix == space.F // d.size).all())


def _group_spans(space, public_mask):
    """Sigma index groups sharing their publics, in lexicographic order."""
    if not public_mask:
        return [np.arange(space.S)]
    pk = np.arange(space.S, dtype=np.uint64) & np.uint64(public_mask)
    _, first = np.unique(pk, return_index=True)
    return [np.nonzero(pk == pk[i])[0] for i in np.sort(first)]


def check_si(e: ex.Expr, d: DomainConfig, budget: int = DEFAULT_BUDGET,
             jobs: int = 1, deadline: float | None = None, memo=None
             ) -> tuple[bool, tuple[dict, dict] | None]:
    """Secret independence: same distribution across each public group.

    Returns (True, None) or (False, (sigma1, sigma2)) with the
    lexicographically smallest differing pair. A run's memo keeps the
    values of small spaces.
    """
    space, public_mask = _sigma_space(e, d, budget, memo)
    matrix = _counts_matrix(e, d, space, jobs, deadline)
    for members in _group_spans(space, public_mask):
        block = matrix[members]
        if space.F == 1:
            differs = np.nonzero(block != block[0])[0]
        else:
            differs = np.nonzero((block != block[0]).any(axis=1))[0]
        if differs.size:
            s1 = int(members[0])
            s2 = int(members[differs[0]])
            return False, (_digits(s1, space.rows, d),
                           _digits(s2, space.rows, d))
    return True, None


def qms_exact(e: ex.Expr, d: DomainConfig, budget: int = DEFAULT_BUDGET,
              jobs: int = 1, deadline: float | None = None,
              memo=None) -> Qms:
    """Exact quantitative masking strength of e; a run's memo keeps the
    values of small spaces."""
    space, public_mask = _sigma_space(e, d, budget, memo)
    matrix = _counts_matrix(e, d, space, jobs, deadline)
    den = space.F
    groups = _group_spans(space, public_mask)

    if space.F == 1:
        for members in groups:
            vals = matrix[members]
            differs = np.nonzero(vals != vals[0])[0]
            if differs.size:
                s1 = int(members[0])
                s2 = int(members[differs[0]])
                return Qms(0, 1, (_digits(s1, space.rows, d),
                                  _digits(s2, space.rows, d), int(vals[0])))
        return Qms(1, 1)

    signed = matrix.astype(np.int64)
    group_of = np.empty(space.S, dtype=np.int64)
    colmin = np.empty((len(groups), d.size), dtype=np.int64)
    for g, members in enumerate(groups):
        group_of[members] = g
        colmin[g] = signed[members].min(axis=0)
    per_sigma_best = (signed - colmin[group_of]).max(axis=1)
    gap = int(per_sigma_best.max())
    if gap == 0:
        return Qms(den, den)

    s1 = int(np.nonzero(per_sigma_best == gap)[0][0])
    members = groups[int(group_of[s1])]
    diffs = signed[s1][None, :] - signed[members]
    hit_rows = np.nonzero((diffs == gap).any(axis=1))[0]
    s2 = int(members[hit_rows[0]])
    c = int(np.nonzero(diffs[hit_rows[0]] == gap)[0][0])
    return Qms(den - gap, den,
               (_digits(s1, space.rows, d), _digits(s2, space.rows, d), c))
