"""SMT-LIB2 encoding of distribution-gap queries and solver driving.

The question "is the masking strength of e below q" is encoded as
satisfiability of:

    exists secrets k, k', publics p, value c :
        #{f : e[f](k,p) = c}  -  #{f : e[f](k',p) = c}  >  delta

where f ranges over all 2^m assignments to the random variables
(m = bits * |rvars|), e[f] is e with randoms replaced by the constants
f assigns, and delta = ceil((1-q) * 2^m). Both program copies share the
public variables and the probed value c; only the secrets are primed.

The script is byte-deterministic for a given (expression, q, domain):
fixed sort orders, fixed name mangling (publics/secrets p_*, k_*,
primed secrets kk_*, copies c_*/d_*, indicators i_*/j_*), and a
balanced adder tree, so emitted files can be golden-tested and cached.

Every script is in logic QF_BV. Each operator becomes the SMT-LIB
function the operator table (`domain.OPS`) names; the indicators are
bit-vectors of width m+2, wide enough that sum + delta never wraps.
Every script asks for a model: after (check-sat) it requests the values
of p_*, k_*, kk_* and c, which check_sat parses when the answer is sat.

Only the final assert depends on q. encode_psi renders the rest, the
Prefix, once per expression; given that prefix back, it renders only
the threshold's tail. A SolverSession keeps one solver process on
stdin: it sends a prefix once inside (push 1) and asks each threshold
inside a (push 1)/(pop 1) of its own.

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
import os
import re
import selectors
import shlex
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import expr as ex
from .domain import OPS, DomainConfig
from .errors import InconclusiveSolver, SolverSpawnFailure, TooManyCopies

MAX_COPY_BITS = 16

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class SmtQuery:
    text: str       # the standalone script, or only the threshold's tail
    q: Fraction
    m: int          # bits * |rvars|: 2^m program copies per side
    delta: int      # ceil((1-q) * 2^m)
    prefix: Prefix = field(compare=False, repr=False)

    @property
    def script(self) -> str:
        """The standalone script, whichever text the query holds."""
        return self.prefix.script(self.q, self.delta)


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
        else:
            op = OPS[e.op]
            if isinstance(e, ex.Unary):
                got = f"({op.smt} {text[e.operand]})"
            else:
                if op.shift:
                    ex.shift_amount(e, d)   # rendered as the constant e.right
                got = f"({op.smt} {text[e.left]} {text[e.right]})"
        text[e] = got
    return text[order[-1]]


def _balanced_sum(names: list[str]) -> str:
    while len(names) > 1:
        names = [f"(bvadd {names[i]} {names[i + 1]})"
                 if i + 1 < len(names) else names[i]
                 for i in range(0, len(names), 2)]
    return names[0]


@dataclass(frozen=True, eq=False)
class Prefix:
    """What the scripts for every threshold of one expression share,
    rendered once: the declarations, the 2^m copies per side and their
    indicators (`body`), and the two indicator sums. A standalone script
    is a header, `body` and the threshold's assert; a session sends
    `shared` once and `tail(delta)` per threshold."""

    expr: str               # the expression, pretty-printed
    bits: int
    poly: int
    m: int
    body: str
    sum_c: str              # balanced sums of the i_* and j_* indicators
    sum_d: str
    values: str             # the get-value command

    def _assert(self, delta: int, sum_c: str, sum_d: str) -> str:
        return (f"(assert (bvugt {sum_c} "
                f"(bvadd {_bv(delta, self.m + 2)} {sum_d})))\n")

    def script(self, q: Fraction, delta: int) -> str:
        """The standalone script for one threshold."""
        return (f"; masking-strength query: is QMS({self.expr}) < {q}?\n"
                f"; bits {self.bits}, modulus {self.poly:#x}, "
                f"copies 2^{self.m}, delta {delta}\n"
                "(set-option :produce-models true)\n"
                "(set-logic QF_BV)\n"
                + self.body
                + self._assert(delta, self.sum_c, self.sum_d)
                + f"(check-sat)\n{self.values}\n")

    @property
    def shared(self) -> str:
        """The body with both sums defined once, for a session."""
        sort = f"(_ BitVec {self.m + 2})"
        return (f"{self.body}(define-fun sum_c () {sort} {self.sum_c})\n"
                f"(define-fun sum_d () {sort} {self.sum_d})\n")

    def tail(self, delta: int) -> str:
        """What a session asks for one threshold, after `shared`."""
        return (self._assert(delta, "sum_c", "sum_d")
                + f"(check-sat)\n{self.values}\n")


def _prefix(e: ex.Expr, d: DomainConfig) -> Prefix:
    n = d.bits
    rand_names = sorted(ex.rvars(e))
    m = n * len(rand_names)
    if m > MAX_COPY_BITS:
        raise TooManyCopies(
            f"{len(rand_names)} randoms x {n} bits would need 2^{m} copies")
    copies = 1 << m
    order = ex.postorder(e)
    leaves = [v for v in order if isinstance(v, ex.Var)]
    publics = sorted(v.name for v in leaves if v.kind == ex.PUBLIC)
    secrets = sorted(v.name for v in leaves if v.kind == ex.SECRET)

    lines = []
    if any(isinstance(t, ex.Binary) and OPS[t.op].smt == "gfmul"
           for t in order):
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
    sort, one, zero = f"(_ BitVec {width})", _bv(1, width), _bv(0, width)
    for t in range(copies):
        lines.append(f"(define-fun i_{t} () {sort} "
                     f"(ite (= c c_{t}) {one} {zero}))")
        lines.append(f"(define-fun j_{t} () {sort} "
                     f"(ite (= c d_{t}) {one} {zero}))")
    names = [f"p_{name}" for name in publics] + \
        [f"k_{name}" for name in secrets] + \
        [f"kk_{name}" for name in secrets] + ["c"]
    return Prefix(
        ex.pretty(e), n, d.poly, m, "\n".join(lines) + "\n",
        _balanced_sum([f"i_{t}" for t in range(copies)]),
        _balanced_sum([f"j_{t}" for t in range(copies)]),
        f"(get-value ({' '.join(names)}))")


def encode_psi(e: ex.Expr, q, d: DomainConfig,
               prefix: Prefix | None = None) -> SmtQuery:
    """Build the strength-below-q satisfiability script for e.

    With `prefix`, the .prefix of an earlier query for the same e and d,
    nothing is rendered again but the threshold's tail, which becomes
    the query's text; without it, the text is the standalone script.
    """
    q = Fraction(q)
    if not 0 <= q <= 1:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    whole = prefix is None
    if whole:
        prefix = _prefix(e, d)
    # exact for the dyadic thresholds GapSearch asks about;
    # for other q the ceiling errs on the unsatisfiable side
    delta = math.ceil((1 - q) * (1 << prefix.m))
    text = prefix.script(q, delta) if whole else prefix.tail(delta)
    return SmtQuery(text, q, prefix.m, delta, prefix)


def emit_query(out_dir: str | Path, var_name: str, query: SmtQuery) -> None:
    """Write the script to out_dir as <var_name>_q<num>_<den>.smt2."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    name = f"{var_name}_q{query.q.numerator}_{query.q.denominator}.smt2"
    (out / name).write_text(query.script)


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


# echoed after every question; the answer is what comes before it
SENTINEL = b"maskcheck-answered"


class SolverSession:
    """One solver process, started at the first question and kept.

    The command reads SMT-LIB2 commands on stdin and answers each as it
    arrives (`z3 -in`). A new process is sent produce-models and
    (set-logic QF_BV) once; a prefix goes once, inside (push 1), and the
    next prefix pops it; each question is (push 1), the threshold's
    tail and (pop 1), followed by (echo SENTINEL): its answer is the
    stdout lines up to the sentinel, quoted or not. A process that
    exits is started again at the next question, which sends its
    prefix again, and so is one that was kept from an earlier question
    and ends this one with no output (it exited after its last answer);
    one that overruns a question's timeout is killed.
    Stderr goes to a temporary file per process, read when stdout gives
    no answer. `close` kills the process; the session can be asked
    again after it.
    """

    def __init__(self, cmd: str):
        self.cmd = cmd
        self._proc: subprocess.Popen | None = None
        self._err = None        # the process's stderr file
        self._loaded = None     # the prefix inside the open (push 1)

    def __enter__(self) -> SolverSession:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        proc, self._proc, self._loaded = self._proc, None, None
        if proc is None:
            return
        proc.kill()
        proc.wait()
        proc.stdin.close()
        proc.stdout.close()
        self._err.close()

    def _start(self) -> str:
        """Spawn the process; the commands it needs first."""
        self._err = tempfile.TemporaryFile()
        try:
            self._proc = subprocess.Popen(
                shlex.split(self.cmd), stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, stderr=self._err)
        except (FileNotFoundError, PermissionError) as err:
            self._err.close()
            raise SolverSpawnFailure(
                f"cannot run {self.cmd!r}: {err}") from err
        os.set_blocking(self._proc.stdin.fileno(), False)
        return "(set-option :produce-models true)\n(set-logic QF_BV)\n"

    def _exchange(self, data: bytes, deadline: float | None):
        """Send data and read stdout: (lines before the sentinel, whether
        the process ended first), or None once the deadline passes."""
        proc = self._proc
        out, into = proc.stdout.fileno(), proc.stdin.fileno()
        lines, partial = [], b""
        with selectors.DefaultSelector() as sel:
            sel.register(out, selectors.EVENT_READ)
            sel.register(into, selectors.EVENT_WRITE)
            while True:
                wait = None
                if deadline is not None:
                    wait = deadline - time.monotonic()
                    if wait <= 0:
                        return None
                for key, _ in sel.select(wait):
                    if key.fd == into:
                        try:
                            data = data[os.write(into, data):]
                        except BlockingIOError:
                            continue
                        except BrokenPipeError:
                            data = b""  # it stopped reading: hear it out
                        if not data:
                            sel.unregister(into)
                        continue
                    chunk = os.read(out, 1 << 16)
                    if not chunk:
                        if partial:
                            lines.append(partial.decode(errors="replace"))
                        return lines, True
                    *done, partial = (partial + chunk).split(b"\n")
                    for line in done:
                        if line.strip().strip(b'"') == SENTINEL:
                            return lines, False
                        lines.append(line.decode(errors="replace"))

    def ask(self, query: SmtQuery, timeout: float | None = None
            ) -> SolverVerdict:
        started = time.monotonic()
        deadline = None if timeout is None else started + timeout
        prefix = query.prefix
        if self._proc is not None and self._proc.poll() is not None:
            self.close()
        while True:
            fresh = self._proc is None
            text = self._start() if fresh else ""
            if self._loaded is not prefix:
                if self._loaded is not None:
                    text += "(pop 1)\n"
                text += "(push 1)\n" + prefix.shared
                self._loaded = prefix
            text += (f"(push 1)\n{prefix.tail(query.delta)}(pop 1)\n"
                     f'(echo "{SENTINEL.decode()}")\n')
            # a fresh process has a new stderr file, which it may have
            # written already
            err = self._err.fileno()
            mark = 0 if fresh else os.fstat(err).st_size
            got = self._exchange(text.encode(), deadline)
            if got is None:
                self.close()
                return SolverVerdict(UNKNOWN, "timeout",
                                     time.monotonic() - started)
            lines, ended = got
            if fresh or lines or not ended:
                break
            # a process kept from an earlier question ended before it
            # said anything: it exited after that answer, so the
            # question goes once more, to a new process
            self.close()
        elapsed = time.monotonic() - started
        verdict = _decided(lines, elapsed)
        if verdict is None:
            stderr = os.pread(err, os.fstat(err).st_size - mark, mark)
            reason = ("\n".join(lines) + "\n"
                      + stderr.decode(errors="replace")).strip().splitlines()
            verdict = SolverVerdict(UNKNOWN, reason[0] if reason
                                    else "no output", elapsed)
        if ended:
            self.close()
        return verdict


def _decided(lines: list[str], elapsed: float) -> SolverVerdict | None:
    """The verdict of the first bare `sat`/`unsat` line, None if none.
    After `sat`, the get-value answer is the model; what follows
    `unsat` (an error, since there is no model) is ignored."""
    for i, line in enumerate(lines):
        word = line.strip()
        if word == "sat":
            return SolverVerdict(SAT, elapsed=elapsed, model=_parse_model(
                "\n".join(lines[i + 1:])))
        if word == "unsat":
            return SolverVerdict(UNSAT, elapsed=elapsed)
    return None


def check_sat(query: SmtQuery, solver: SolverSession | str,
              timeout: float | None = None) -> SolverVerdict:
    """Ask the query in `solver`, a session or the command of a one-shot
    session. A bare `sat`/`unsat` line decides the verdict; anything
    else, including a timeout, is UNKNOWN, whose reason is the first
    line of output, stdout before stderr. After `sat`, the values the
    get-value asks for become the verdict's model.
    """
    if isinstance(solver, str):
        with SolverSession(solver) as session:
            return session.ask(query, timeout)
    return solver.ask(query, timeout)


def _replay(e: ex.Expr, d: DomainConfig, model: dict[str, int]):
    """(gap, (sigma1, sigma2, c)): the largest count gap of the model's
    two fixings, over every value c and both orders of the pair."""
    from .counting import distribution  # import here: counting pulls in numpy

    rows = sorted((v.name, v.kind == ex.PUBLIC) for v in ex.postorder(e)
                  if isinstance(v, ex.Var) and v.kind != ex.RANDOM)
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

    The first step renders the whole script and keeps its prefix; the
    later steps render only their tails. Every step goes to `solver`,
    a session or the command of a one-shot session per step.

    A step that raises leaves lo, hi and the witness as they were. With
    emit_dir set, a script that cannot be written raises OSError before
    the solver is asked, so the step can be asked again without it.
    """

    def __init__(self, e: ex.Expr, d: DomainConfig,
                 solver: SolverSession | str,
                 emit_dir: str | Path | None = None, var_name: str = "e",
                 stats: dict | None = None):
        self.e, self.d, self.solver = e, d, solver
        self.prefix: Prefix | None = None   # rendered by the first step
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
        query = encode_psi(self.e, q, self.d, self.prefix)
        self.prefix = query.prefix
        if self.emit_dir is not None:
            emit_query(self.emit_dir, self.var_name, query)
        timeout = None
        if deadline is not None:
            timeout = deadline - time.monotonic()
            if timeout <= 0:
                raise InconclusiveSolver("deadline exhausted before query")
        verdict = check_sat(query, self.solver, timeout)
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


def qms_smt(e: ex.Expr, d: DomainConfig, solver: SolverSession | str,
            deadline: float | None = None,
            emit_dir: str | Path | None = None, var_name: str = "e",
            stats: dict | None = None):
    """Masking strength by a GapSearch run to the end.

    Needs at most m+1 conclusive solver answers (m = bits * |rvars|),
    one for a secret-independent e. An unknown answer or a model that
    does not replay raises InconclusiveSolver; the caller may fall back
    to exact counting. The witness is the replayed (sigma1, sigma2, c)
    that realises the gap, not necessarily the lexicographically
    smallest one; it is None when the solver gives no models. A solver
    command gets a session of its own for the search.
    """
    if isinstance(solver, str):
        with SolverSession(solver) as session:
            return qms_smt(e, d, session, deadline, emit_dir, var_name,
                           stats)
    return GapSearch(e, d, solver, emit_dir, var_name, stats).run(deadline)
