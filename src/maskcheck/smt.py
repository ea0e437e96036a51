"""SMT-LIB2 encoding of distribution-gap queries and solver driving.

The question "is the masking strength of e below q" is encoded as
satisfiability of:

    exists secrets k, k', publics p, value c :
        #{f : e[f](k,p) = c}  -  #{f : e[f](k',p) = c}  >  delta

where f ranges over all 2^m assignments to the random variables
(m = bits * |rvars|), e[f] is e with randoms replaced by the constants
f assigns, and delta = ceil((1-q) * 2^m). Both program copies share the
public variables and the probed value c; only the secrets are primed.

The script is byte-deterministic for a given (expression, q, domain,
profile): fixed sort orders, fixed name mangling (publics/secrets p_*,
k_*, primed secrets kk_*, copies c_*/d_*, indicators i_*/j_*), and a
balanced adder tree, so emitted files can be golden-tested and cached.

Profiles: "bv" sums indicator bit-vectors of width m+2 (wide enough
that sum + delta never wraps) in logic QF_BV; "int" sums integer
indicators, for solvers that accept mixed bit-vector/integer scripts.
Every script asks for a model: after (check-sat) it requests the values
of p_*, k_*, kk_* and c, which check_sat parses when the answer is sat.

GapSearch pins the largest count gap G = 2^m * (1 - QMS) in at most
m+1 queries, the first of which is the q = 1 verdict question "G > 0?".
Each sat model is replayed by exact counting, and the gap it realises
raises the lower end of the search, so one lucky model can settle many
bits at once. qms_smt runs the search to the end: the exact strength,
with the replayed (sigma1, sigma2, c) that realises it as the witness.
Unlike qms_exact's, that witness need not be the lexicographically
smallest.
"""

from __future__ import annotations

import math
import re
import shlex
import subprocess
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import expr as ex
from .domain import DomainConfig
from .errors import (
    InconclusiveSolver,
    ShiftOutOfRange,
    SolverSpawnFailure,
    TooManyCopies,
)

MAX_COPY_BITS = 16

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class SmtQuery:
    text: str
    q: Fraction
    m: int          # bits * |rvars|: 2^m program copies per side
    delta: int      # ceil((1-q) * 2^m)


@dataclass(frozen=True)
class SolverVerdict:
    kind: str               # sat | unsat | unknown
    reason: str = ""
    elapsed: float = 0.0
    model: dict[str, int] | None = None   # get-value answers after sat


def _bv(value: int, width: int) -> str:
    return f"(_ bv{value} {width})"


def _gfmul_define(d: DomainConfig) -> str:
    """Unrolled shift-and-xor field multiply as a define-fun circuit."""
    n = d.bits
    wide = 2 * n - 1
    lines = [f"(define-fun gfmul ((a (_ BitVec {n})) (b (_ BitVec {n})))"
             f" (_ BitVec {n})"]
    if n == 1:
        lines.append("  (bvand a b))")
        return "\n".join(lines)
    lines.append(f"  (let ((bw ((_ zero_extend {wide - n}) b)))")
    terms = [
        f"(ite (= ((_ extract {i} {i}) a) #b1)"
        f" (bvshl bw {_bv(i, wide)}) {_bv(0, wide)})"
        for i in range(n)
    ]
    acc = terms[0]
    for term in terms[1:]:
        acc = f"(bvxor {acc} {term})"
    lines.append(f"  (let ((p0 {acc}))")
    depth = 1
    for j in range(2 * n - 2, n - 1, -1):
        prev = f"p{depth - 1}"
        cur = f"p{depth}"
        lines.append(
            f"  (let (({cur} (ite (= ((_ extract {j} {j}) {prev}) #b1)"
            f" (bvxor {prev} {_bv(d.poly << (j - n), wide)}) {prev})))")
        depth += 1
    closers = depth + 2  # every let, plus the define-fun itself
    lines.append(f"  ((_ extract {n - 1} 0) p{depth - 1})" + ")" * closers)
    return "\n".join(lines)


def _term(order: list[ex.Expr], d: DomainConfig, rand_values: dict[str, int],
          primed: bool) -> str:
    """Render the root of `order` (a post-order) with randoms
    substituted; secrets primed on request."""
    n = d.bits
    text: dict[ex.Expr, str] = {}
    for e in order:
        if isinstance(e, ex.Const):
            got = _bv(e.value & d.mask, n)
        elif isinstance(e, ex.Var):
            if e.kind == ex.RANDOM:
                got = _bv(rand_values[e.name] & d.mask, n)
            elif e.kind == ex.SECRET:
                got = f"kk_{e.name}" if primed else f"k_{e.name}"
            else:
                got = f"p_{e.name}"
        elif isinstance(e, ex.Unary):
            got = f"(bvnot {text[e.operand]})"
        elif e.op in ex.SHIFT_OPS:
            if not isinstance(e.right, ex.Const):
                raise ShiftOutOfRange("shift amount must be a constant")
            amount = e.right.value
            if not 0 <= amount < n:
                raise ShiftOutOfRange(
                    f"shift amount {amount} outside [0, {n})")
            fn = "bvshl" if e.op == "<<" else "bvlshr"
            got = f"({fn} {text[e.left]} {_bv(amount, n)})"
        else:
            fn = {"^": "bvxor", "&": "bvand", "|": "bvor", "+": "bvadd",
                  "-": "bvsub", "*": "bvmul", "@": "gfmul"}[e.op]
            got = f"({fn} {text[e.left]} {text[e.right]})"
        text[e] = got
    return text[order[-1]]


def _balanced_sum(names: list[str], adder: str) -> str:
    while len(names) > 1:
        names = [f"({adder} {names[i]} {names[i + 1]})"
                 if i + 1 < len(names) else names[i]
                 for i in range(0, len(names), 2)]
    return names[0]


def encode_psi(e: ex.Expr, q, d: DomainConfig,
               profile: str = "bv") -> SmtQuery:
    """Build the strength-below-q satisfiability script for e."""
    if profile not in ("bv", "int"):
        raise ValueError(f"unknown profile {profile!r}")
    q = Fraction(q)
    if not 0 <= q <= 1:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    n = d.bits
    rand_names = sorted(ex.rvars(e))
    m = n * len(rand_names)
    if m > MAX_COPY_BITS:
        raise TooManyCopies(
            f"{len(rand_names)} randoms x {n} bits would need 2^{m} copies")
    copies = 1 << m
    # exact for the dyadic thresholds GapSearch asks about;
    # for other q the ceiling errs on the unsatisfiable side
    delta = math.ceil((1 - q) * copies)

    leaves = ex.var_counts(e)
    publics = sorted(v.name for v in leaves if v.kind == ex.PUBLIC)
    secrets = sorted(v.name for v in leaves if v.kind == ex.SECRET)

    lines = [
        f"; masking-strength query: is QMS({ex.pretty(e)}) < {q}?",
        f"; bits {n}, modulus {d.poly:#x}, copies 2^{m}, delta {delta}",
        "(set-option :produce-models true)",
        "(set-logic QF_BV)" if profile == "bv" else "(set-logic ALL)",
    ]
    order = ex.postorder(e)
    if any(isinstance(t, ex.Binary) and t.op == "@" for t in order):
        lines.append(_gfmul_define(d))
    for name in publics:
        lines.append(f"(declare-fun p_{name} () (_ BitVec {n}))")
    for name in secrets:
        lines.append(f"(declare-fun k_{name} () (_ BitVec {n}))")
        lines.append(f"(declare-fun kk_{name} () (_ BitVec {n}))")
    lines.append(f"(declare-fun c () (_ BitVec {n}))")

    mask = d.mask
    for t in range(copies):
        rand_values = {
            name: (t >> (n * (len(rand_names) - 1 - j))) & mask
            for j, name in enumerate(rand_names)
        }
        for prefix, primed in (("c", False), ("d", True)):
            lines.append(
                f"(define-fun {prefix}_{t} () (_ BitVec {n}) "
                f"{_term(order, d, rand_values, primed)})")

    width = m + 2
    if profile == "bv":
        one, zero = _bv(1, width), _bv(0, width)
        for t in range(copies):
            lines.append(f"(define-fun i_{t} () (_ BitVec {width}) "
                         f"(ite (= c c_{t}) {one} {zero}))")
            lines.append(f"(define-fun j_{t} () (_ BitVec {width}) "
                         f"(ite (= c d_{t}) {one} {zero}))")
        sum_i = _balanced_sum([f"i_{t}" for t in range(copies)], "bvadd")
        sum_j = _balanced_sum([f"j_{t}" for t in range(copies)], "bvadd")
        lines.append(f"(assert (bvugt {sum_i} "
                     f"(bvadd {_bv(delta, width)} {sum_j})))")
    else:
        for t in range(copies):
            lines.append(f"(define-fun i_{t} () Int (ite (= c c_{t}) 1 0))")
            lines.append(f"(define-fun j_{t} () Int (ite (= c d_{t}) 1 0))")
        sum_i = _balanced_sum([f"i_{t}" for t in range(copies)], "+")
        sum_j = _balanced_sum([f"j_{t}" for t in range(copies)], "+")
        lines.append(f"(assert (> (- {sum_i} {sum_j}) {delta}))")
    lines.append("(check-sat)")
    names = [f"p_{name}" for name in publics] + \
        [f"k_{name}" for name in secrets] + \
        [f"kk_{name}" for name in secrets] + ["c"]
    lines.append(f"(get-value ({' '.join(names)}))")
    return SmtQuery("\n".join(lines) + "\n", q, m, delta)


def emit_query(out_dir: str | Path, var_name: str, query: SmtQuery) -> None:
    """Write the script to out_dir as <var_name>_q<num>_<den>.smt2."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    name = f"{var_name}_q{query.q.numerator}_{query.q.denominator}.smt2"
    (out / name).write_text(query.text)


# one (name value) pair of a get-value answer: #b..., #x... or (_ bvN w)
_BINDING = re.compile(
    r"\(\s*([A-Za-z_][\w.]*)\s+"
    r"(?:#b([01]+)|#x([0-9a-fA-F]+)|\(\s*_\s+bv(\d+)\s+\d+\s*\))\s*\)")


def _parse_model(text: str) -> dict[str, int] | None:
    """The name -> value pairs of a get-value answer, None if it has none."""
    model = {}
    for name, binary, hexa, decimal in _BINDING.findall(text):
        if binary:
            model[name] = int(binary, 2)
        elif hexa:
            model[name] = int(hexa, 16)
        else:
            model[name] = int(decimal)
    return model or None


def check_sat(query: SmtQuery, solver_cmd: str,
              timeout: float | None = None,
              script_path: str | Path | None = None) -> SolverVerdict:
    """Run an external solver on the query script (path passed last).

    Output containing a bare `sat`/`unsat` line decides the verdict;
    anything else, including a timeout, is UNKNOWN. After `sat`, the
    values the script's get-value asks for become the verdict's model;
    what a solver prints after `unsat` (an error, since there is no
    model) is ignored.
    """
    started = time.monotonic()
    if script_path is None:
        handle = tempfile.NamedTemporaryFile(
            "w", suffix=".smt2", delete=False)
        path = Path(handle.name)
        handle.write(query.text)
        handle.close()
    else:
        path = Path(script_path)
        path.write_text(query.text)
    try:
        proc = subprocess.run(
            shlex.split(solver_cmd) + [str(path)],
            capture_output=True, text=True, timeout=timeout)
    except (FileNotFoundError, PermissionError) as err:
        raise SolverSpawnFailure(f"cannot run {solver_cmd!r}: {err}") from err
    except subprocess.TimeoutExpired:
        return SolverVerdict(UNKNOWN, "timeout",
                             time.monotonic() - started)
    finally:
        if script_path is None:
            path.unlink(missing_ok=True)
    elapsed = time.monotonic() - started
    lines = proc.stdout.splitlines()
    for i, line in enumerate(lines):
        word = line.strip()
        if word == "sat":
            return SolverVerdict(SAT, elapsed=elapsed, model=_parse_model(
                "\n".join(lines[i + 1:])))
        if word == "unsat":
            return SolverVerdict(UNSAT, elapsed=elapsed)
    reason = (proc.stdout + proc.stderr).strip().splitlines()
    return SolverVerdict(UNKNOWN, reason[0] if reason else "no output",
                         elapsed)


def _replay(e: ex.Expr, d: DomainConfig, model: dict[str, int]):
    """(gap, (sigma1, sigma2, c)): the largest count gap of the model's
    two fixings, over every value c and both orders of the pair."""
    from .counting import distribution  # import here: counting pulls in numpy

    rows = sorted((v.name, v.kind == ex.PUBLIC) for v in ex.var_counts(e)
                  if v.kind != ex.RANDOM)
    try:
        s1 = {n: model[f"p_{n}" if public else f"k_{n}"] for n, public in rows}
        s2 = {n: model[f"p_{n}" if public else f"kk_{n}"]
              for n, public in rows}
    except KeyError:
        raise InconclusiveSolver("model does not realise the gap") from None
    diff = distribution(e, s1, d).counts - distribution(e, s2, d).counts
    up, down = int(diff.argmax()), int(diff.argmin())
    if diff[up] >= -diff[down]:
        return int(diff[up]), (s1, s2, up)
    return int(-diff[down]), (s2, s1, down)


class GapSearch:
    """Model-guided search for the largest count gap G of e.

    G lies in [lo, hi], which starts at [0, 2^m]; the search is over
    when lo == hi. Each step asks "G > t?" (the query for
    q = (2^m - t) / 2^m) at the lowest threshold that still finishes
    within m+1 queries, t = max(lo, hi - 2^(left - 1)) with `left`
    queries left, so the first step is the q = 1 verdict question and
    a secret-independent e needs that one query. unsat gives hi = t;
    sat gives lo = t + 1, and when the answer carries a model, the gap
    replayed from it, with the replayed triple as the witness. A model
    whose gap does not lie in (t, hi] raises InconclusiveSolver, as
    does an unknown answer. The witness, when not None, realises lo.

    A step that raises leaves lo, hi and the witness as they were. With
    emit_dir set, a script that cannot be written raises OSError before
    the solver is asked, so the step can be asked again without it.
    """

    def __init__(self, e: ex.Expr, d: DomainConfig, solver_cmd: str,
                 profile: str = "bv", emit_dir: str | Path | None = None,
                 var_name: str = "e", stats: dict | None = None):
        self.e, self.d, self.solver_cmd, self.profile = e, d, solver_cmd, \
            profile
        self.emit_dir, self.var_name, self.stats = emit_dir, var_name, stats
        m = d.bits * len(ex.rvars(e))
        self.copies = 1 << m
        self.lo, self.hi, self.left = 0, self.copies, m + 1
        self.witness = None
        if stats is not None:
            stats.update(queries=0, m=m)

    def step(self, deadline: float | None = None) -> None:
        """Ask the next question and narrow [lo, hi] by its answer."""
        copies = self.copies
        t = max(self.lo, self.hi - (1 << (self.left - 1)))
        q = Fraction(copies - t, copies)
        query = encode_psi(self.e, q, self.d, self.profile)
        if self.emit_dir is not None:
            emit_query(self.emit_dir, self.var_name, query)
        timeout = None
        if deadline is not None:
            timeout = deadline - time.monotonic()
            if timeout <= 0:
                raise InconclusiveSolver("deadline exhausted before query")
        verdict = check_sat(query, self.solver_cmd, timeout)
        if self.stats is not None:
            self.stats["queries"] += 1
        if verdict.kind == SAT:
            lo, witness = t + 1, None
            if verdict.model is not None:
                gap, witness = _replay(self.e, self.d, verdict.model)
                if not t < gap <= self.hi:
                    raise InconclusiveSolver("model does not realise the gap")
                lo = gap
            self.lo, self.witness = lo, witness
        elif verdict.kind == UNSAT:
            self.hi = t
        else:
            # the verdict question needs no threshold in its reason
            at = "" if t == 0 else f" for q={q}"
            raise InconclusiveSolver(
                f"solver answered {verdict.kind} ({verdict.reason}){at}")
        self.left -= 1

    def run(self, deadline: float | None = None):
        """Ask until lo == hi: the strength 1 - G/2^m, with the witness."""
        from .counting import Qms  # import here: counting pulls in numpy

        while self.lo < self.hi:
            self.step(deadline)
        return Qms(self.copies - self.lo, self.copies, self.witness)


def qms_smt(e: ex.Expr, d: DomainConfig, solver_cmd: str,
            profile: str = "bv", deadline: float | None = None,
            emit_dir: str | Path | None = None, var_name: str = "e",
            stats: dict | None = None):
    """Masking strength by a GapSearch run to the end.

    Needs at most m+1 conclusive solver answers (m = bits * |rvars|),
    one for a secret-independent e. An unknown answer or a model that
    does not replay raises InconclusiveSolver; the caller may fall back
    to exact counting. The witness is the replayed (sigma1, sigma2, c)
    that realises the gap, not necessarily the lexicographically
    smallest one; it is None when the solver gives no models.
    """
    return GapSearch(e, d, solver_cmd, profile, emit_dir, var_name,
                     stats).run(deadline)
