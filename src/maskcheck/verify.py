"""Whole-program verification: perfect masking check and strength computation.

For every internal variable x, in SSA order:

1. Type the expansion Expr(x). A non-UKD answer settles x.
2. Otherwise simplify to e-hat and type again.
3. Otherwise decide by model counting on e-hat: the bruteforce engine
   enumerates exactly, the smt engine asks a solver whether the
   strength is below 1 and replays a sat model into the (sigma1,
   sigma2) witness. Results are stored against Expr(x) so that later
   variables containing it can reuse the verdict.

Every stage of every variable shares one RunMemo, created per call and
dropped on return; each store write tells it to drop the judgements
derived without that entry. Under the smt engine they share one solver
session too: one process, started at the first question, answers every
question of the call and is killed on return.

When the strength is wanted too (qms_compute), step 3 enumerates with
qms_exact instead of check_si, or runs the solver's gap search to the
end, of which the verdict question is the first step; the strength
stage reuses that Qms: each counted variable is counted once.

The "type-only" engine stops after step 1, leaving UKD variables as
potentially leaky. Strength computation assigns 1 to every RUD/SID
variable, 0 when the leaky expansion retains no randomness, and the
exact gap otherwise (a solver's gap search, or enumeration).

Budget or deadline overruns, in reduction or in counting, mark the
variable inconclusive and the run continues; in the strength stage they
leave the variable without a strength, and say why in its note.
Reports serialize to stable JSON: identical inputs and configuration
produce identical bytes; wall-clock timings are only embedded on
request.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import expr as ex
from .counting import DEFAULT_BUDGET, Qms, check_si, qms_exact
from .domain import OPS, DomainConfig
from .errors import (
    BudgetExceeded,
    InconclusiveSolver,
    MaskcheckError,
    SolverSpawnFailure,
    TooManyCopies,
    VariableTimeout,
)
from .infer import SDD, SID, UKD, DistType, RunMemo, infer, leaves
from .program import Program, expr_of
from .reduction import simplify
from .smt import GapSearch, SolverSession, emit_query, encode_psi

ENGINES = ("type-only", "bruteforce", "smt")

METHOD_TYPE = "type-rule"
METHOD_REDUCED = "reduced-type-rule"
METHOD_COUNT_BF = "counting-bruteforce"
METHOD_COUNT_SMT = "counting-smt"
METHOD_INCONCLUSIVE = "inconclusive"


@dataclass
class EngineConfig:
    domain: DomainConfig
    engine: str = "bruteforce"
    budget: int = DEFAULT_BUDGET
    jobs: int = 1
    solver_cmd: str | None = None
    var_timeout: float | None = 60.0
    meta_patterns: list | None = None
    emit_smt_dir: str | Path | None = None

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.engine == "smt" and not self.solver_cmd:
            raise ValueError("smt engine needs solver_cmd")


@dataclass
class VariableVerdict:
    name: str
    dist: DistType
    method: str
    rule_trace: tuple[str, ...] = field(default=(), compare=False)
    qms: Qms | None = None
    witness: tuple | None = None
    note: str | None = None
    elapsed: float = field(default=0.0, compare=False)


@dataclass
class Report:
    program: str
    bits: int
    poly: int
    verdicts: list[VariableVerdict]
    program_qms: Qms | None = None
    elapsed: float = field(default=0.0, compare=False)
    # reduced expansions kept so strength computation reuses them
    reduced: dict[str, ex.Expr] = field(default_factory=dict, repr=False,
                                        compare=False)
    # strengths enumerated by the verdict stage, for the strength stage
    counted: dict[str, Qms] = field(default_factory=dict, repr=False,
                                    compare=False)

    @property
    def perfectly_masked(self) -> bool:
        return all(v.dist is not SDD for v in self.verdicts)

    @property
    def totals(self) -> dict[str, int]:
        counted = sum(1 for v in self.verdicts
                      if v.method in (METHOD_COUNT_BF, METHOD_COUNT_SMT))
        return {
            "internal": len(self.verdicts),
            "sid": sum(1 for v in self.verdicts
                       if v.dist in (DistType.RUD, DistType.SID)),
            "sdd": sum(1 for v in self.verdicts if v.dist is SDD),
            "counted": counted,
            "unknown": sum(1 for v in self.verdicts if v.dist is UKD),
        }


def _deadline(cfg: EngineConfig) -> float | None:
    if cfg.var_timeout is None:
        return None
    return time.monotonic() + cfg.var_timeout


def _add_note(v: VariableVerdict, text: str) -> None:
    """Append text to the verdict's note unless the note already says it."""
    if v.note is None:
        v.note = text
    elif text not in v.note.split("; "):
        v.note = f"{v.note}; {text}"


def _solve(search: GapSearch, deadline: float | None, note,
           whole: bool = True):
    """search.run(deadline), or with whole=False its next step only. A
    script that cannot be written is noted and the step is asked again
    without emission: emission never decides whether the solver is
    asked."""
    ask = search.run if whole else search.step
    try:
        return ask(deadline)
    except OSError as err:
        if search.emit_dir is None:
            raise
        note(f"smt emission skipped: {err}")
        search.emit_dir = None
        return ask(deadline)


def _count_decide(x: str, e_hat: ex.Expr, cfg: EngineConfig,
                  deadline: float | None, notes: list[str],
                  counted: dict[str, Qms] | None, memo: RunMemo,
                  solver: SolverSession):
    """SID/SDD by model counting. Returns (dist, method, witness).

    Why the solver or the emitted script was skipped goes to notes.
    The solver's verdict is the first step of its GapSearch; when
    `counted` is given, the search runs on and its Qms is kept there.
    That rest of the search is the strength stage's work, so it runs
    on a deadline of its own, started after the verdict's answer; an
    answer that ends it early is noted, and the strength stage
    enumerates instead. Enumeration asks check_si, or, when `counted`
    is given, qms_exact, whose Qms is kept there: a zero gap is exactly
    secret independence, and its (sigma1, sigma2) is check_si's pair
    whenever e_hat has no randoms.
    """
    if cfg.engine == "smt":
        search = GapSearch(e_hat, cfg.domain, solver, cfg.emit_smt_dir, x)
        try:
            _solve(search, deadline, notes.append, whole=False)
        except (InconclusiveSolver, TooManyCopies) as err:
            notes.append(f"solver fallback: {err}")
        else:
            if counted is not None:
                try:
                    counted[x] = _solve(search, _deadline(cfg), notes.append)
                except (InconclusiveSolver, SolverSpawnFailure) as err:
                    notes.append(f"solver fallback: {err}")
            witness = search.witness
            return (SDD if search.lo else SID), METHOD_COUNT_SMT, \
                None if witness is None else witness[:2]
    elif cfg.emit_smt_dir is not None:
        try:
            emit_query(cfg.emit_smt_dir, x, encode_psi(e_hat, 1, cfg.domain))
        except (MaskcheckError, OSError) as err:
            notes.append(f"smt emission skipped: {err}")
    if counted is None:
        si, witness = check_si(e_hat, cfg.domain, cfg.budget, cfg.jobs,
                               deadline, memo)
    else:
        qms = counted[x] = qms_exact(e_hat, cfg.domain, cfg.budget,
                                     cfg.jobs, deadline, memo)
        si = qms.num == qms.den
        witness = None if si else qms.witness[:2]
    return (SID if si else SDD), METHOD_COUNT_BF, witness


def _remember(store: dict[ex.Expr, DistType], memo: RunMemo,
              dist: DistType, *nodes: ex.Expr) -> None:
    """Store dist for nodes; the memo drops what it derived without it."""
    for node in nodes:
        store[node] = dist
        memo.forget(node)


def _classify(p: Program, x: str, cfg: EngineConfig,
              store: dict[ex.Expr, DistType], memo: RunMemo,
              hats: dict[str, ex.Expr], counted: dict[str, Qms] | None,
              solver: SolverSession) -> VariableVerdict:
    started = time.monotonic()
    deadline = _deadline(cfg)
    notes: list[str] = []
    e = expr_of(p, x)
    try:
        j = infer(e, cfg.domain, store, memo)
        if j.dist is not UKD:
            return VariableVerdict(x, j.dist, METHOD_TYPE, j.rule_trace,
                                   elapsed=time.monotonic() - started)
        if cfg.engine == "type-only":
            return VariableVerdict(
                x, UKD, METHOD_TYPE, j.rule_trace,
                note="potentially leaky: counting disabled",
                elapsed=time.monotonic() - started)

        e_hat = simplify(e, cfg.domain, cfg.meta_patterns, memo, deadline)
        hats[x] = e_hat
        j_hat = infer(e_hat, cfg.domain, store, memo)
        if j_hat.dist is not UKD:
            _remember(store, memo, j_hat.dist, e)
            return VariableVerdict(x, j_hat.dist, METHOD_REDUCED,
                                   j_hat.rule_trace,
                                   elapsed=time.monotonic() - started)

        dist, method, witness = _count_decide(x, e_hat, cfg, deadline, notes,
                                              counted, memo, solver)
        _remember(store, memo, dist, e, e_hat)
        return VariableVerdict(x, dist, method, ("counted",), witness=witness,
                               note="; ".join(notes) or None,
                               elapsed=time.monotonic() - started)
    except (BudgetExceeded, VariableTimeout, InconclusiveSolver,
            SolverSpawnFailure) as err:
        notes.append(f"{type(err).__name__}: {err}")
        return VariableVerdict(x, UKD, METHOD_INCONCLUSIVE,
                               note="; ".join(notes),
                               elapsed=time.monotonic() - started)


def _walk(p: Program, cfg: EngineConfig, strength: bool) -> Report:
    """Classify every internal variable; with `strength`, counting keeps
    the Qms of each variable it enumerates in Report.counted, and every
    variable then gets its strength. One RunMemo serves the whole walk
    and is dropped on return; so does one solver session, whose process,
    if a question started one, is killed on return, even by an error.
    Shift amounts are checked first: whichever stage would reach one out
    of range, the walk raises ShiftOutOfRange before it starts."""
    started = time.monotonic()
    for stmt in p.statements:
        if isinstance(stmt.rhs, ex.Binary) and OPS[stmt.rhs.op].shift:
            ex.shift_amount(stmt.rhs, cfg.domain)
    store: dict[ex.Expr, DistType] = {}
    memo = RunMemo(cfg.domain)
    hats: dict[str, ex.Expr] = {}
    counted: dict[str, Qms] = {}
    with SolverSession(cfg.solver_cmd) as solver:
        verdicts = [_classify(p, x, cfg, store, memo, hats,
                              counted if strength else None, solver)
                    for x in p.internals]
        report = Report(p.name, cfg.domain.bits, cfg.domain.poly, verdicts,
                        elapsed=time.monotonic() - started, reduced=hats,
                        counted=counted)
        if strength:
            for v in verdicts:
                _strength(p, v, cfg, report, memo, solver)
    return report


def pm_check(p: Program, cfg: EngineConfig) -> Report:
    """Classify every internal variable (perfect masking check)."""
    return _walk(p, cfg, strength=False)


def _strength(p: Program, v: VariableVerdict, cfg: EngineConfig,
              report: Report, memo: RunMemo,
              solver: SolverSession) -> None:
    if v.dist is UKD:
        return  # inconclusive: no strength claim
    deadline = _deadline(cfg)
    e_hat = report.reduced.get(v.name)
    if e_hat is None:
        try:
            e_hat = simplify(expr_of(p, v.name), cfg.domain,
                             cfg.meta_patterns, memo, deadline)
        except VariableTimeout as err:
            _add_note(v, f"{type(err).__name__}: {err}")
            return
        report.reduced[v.name] = e_hat
    randoms = sum(v.kind == ex.RANDOM
                  for v in leaves(e_hat, cfg.domain, memo))
    den = cfg.domain.size ** randoms
    if v.dist in (DistType.RUD, DistType.SID):
        v.qms = Qms(den, den)
        return
    if not randoms:
        v.qms = Qms(0, 1)
        return
    qms = report.counted.get(v.name)
    # a rule closed v, so no solver was asked; a counting-smt v without
    # a Qms had its search end early, which the verdict already notes
    if qms is None and cfg.engine == "smt" and v.method != METHOD_COUNT_SMT:
        try:
            qms = _solve(GapSearch(e_hat, cfg.domain, solver,
                                   cfg.emit_smt_dir, v.name),
                         deadline, lambda text: _add_note(v, text))
        except (InconclusiveSolver, SolverSpawnFailure, TooManyCopies,
                OSError) as err:
            _add_note(v, f"solver fallback: {err}")
    if qms is None:
        try:
            qms = qms_exact(e_hat, cfg.domain, cfg.budget, cfg.jobs,
                            deadline, memo)
        except (BudgetExceeded, VariableTimeout) as err:
            _add_note(v, f"{type(err).__name__}: {err}")
            return
    v.qms = qms
    if qms.witness is not None:
        v.witness = qms.witness


def qms_compute(p: Program, cfg: EngineConfig) -> Report:
    """pm_check plus a quantitative strength for every variable."""
    if cfg.engine == "type-only":
        raise ValueError("strength computation needs a counting engine")
    started = time.monotonic()
    report = _walk(p, cfg, strength=True)
    strengths = [v.qms.fraction for v in report.verdicts if v.qms is not None]
    if strengths:
        worst = min(strengths)
        for v in report.verdicts:
            if v.qms is not None and v.qms.fraction == worst:
                report.program_qms = Qms(v.qms.num, v.qms.den)
                break
    report.elapsed = time.monotonic() - started
    return report


# --- serialization ------------------------------------------------------------

def _qms_to_json(qms: Qms | None):
    if qms is None:
        return None
    return {"num": qms.num, "den": qms.den}


def _witness_to_json(witness):
    if witness is None:
        return None
    if len(witness) == 3:
        s1, s2, c = witness
        return {"sigma1": dict(sorted(s1.items())),
                "sigma2": dict(sorted(s2.items())), "c": c}
    s1, s2 = witness
    return {"sigma1": dict(sorted(s1.items())),
            "sigma2": dict(sorted(s2.items()))}


def report_to_dict(report: Report, timings: bool = False) -> dict:
    doc = {
        "version": 1,
        "program": report.program,
        "bits": report.bits,
        "poly": report.poly,
        "variables": [
            {
                "name": v.name,
                "type": v.dist.value,
                "method": v.method,
                "qms": _qms_to_json(v.qms),
                "witness": _witness_to_json(v.witness),
                "note": v.note,
            }
            for v in report.verdicts
        ],
        "program_qms": _qms_to_json(report.program_qms),
        "perfectly_masked": report.perfectly_masked,
        "timings": None,
    }
    if timings:
        doc["timings"] = {
            "total": report.elapsed,
            "variables": {v.name: v.elapsed for v in report.verdicts},
        }
    return doc


def report_to_json(report: Report, timings: bool = False) -> str:
    return json.dumps(report_to_dict(report, timings), indent=2) + "\n"


def _witness_from_json(doc):
    if doc is None:
        return None
    s1 = {k: int(v) for k, v in doc["sigma1"].items()}
    s2 = {k: int(v) for k, v in doc["sigma2"].items()}
    if "c" in doc:
        return (s1, s2, doc["c"])
    return (s1, s2)


def report_from_dict(doc: dict) -> Report:
    verdicts = []
    for item in doc["variables"]:
        qms = item.get("qms")
        witness = _witness_from_json(item.get("witness"))
        verdicts.append(VariableVerdict(
            name=item["name"],
            dist=DistType(item["type"]),
            method=item["method"],
            qms=None if qms is None else Qms(qms["num"], qms["den"],
                                             witness if witness and
                                             len(witness) == 3 else None),
            witness=witness,
            note=item.get("note"),
        ))
    pq = doc.get("program_qms")
    return Report(doc["program"], doc["bits"], doc["poly"], verdicts,
                  None if pq is None else Qms(pq["num"], pq["den"]))


def report_from_json(text: str) -> Report:
    return report_from_dict(json.loads(text))
