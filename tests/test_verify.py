"""Whole-program verification: verdicts, strength, serialization."""

import os
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import FRAGMENT_SOLVER, logged_solver, starts, stub_solver

from maskcheck import (
    ENGINES,
    METHOD_COUNT_BF,
    METHOD_COUNT_SMT,
    METHOD_INCONCLUSIVE,
    METHOD_REDUCED,
    METHOD_TYPE,
    RUD,
    SDD,
    SID,
    UKD,
    EngineConfig,
    Qms,
    Report,
    VariableVerdict,
    corpus_dir,
    distribution,
    make_domain,
    parse,
    pm_check,
    pretty,
    qms_compute,
    report_from_json,
    report_to_dict,
    report_to_json,
    var,
)
from maskcheck import expr as ex
from maskcheck import reduction, smt, verify

D2 = make_domain(2)
D4 = make_domain(4)
D8 = make_domain(8)


@pytest.fixture(scope="module")
def cube():
    return parse((corpus_dir() / "cube.mv").read_text())


@pytest.fixture(scope="module")
def secmult():
    return parse((corpus_dir() / "secmult.mv").read_text())


RECALL = parse("""
fn Recall(k: secret, p: public, r0: random) {
  a = k & p;
  b = ~a;
  return b;
}
""")


class TestEngineConfig:
    def test_engines_constant(self):
        assert ENGINES == ("type-only", "bruteforce", "smt")

    def test_unknown_engine(self):
        with pytest.raises(ValueError, match="engine"):
            EngineConfig(D8, engine="guess")

    def test_smt_needs_solver(self):
        with pytest.raises(ValueError, match="solver"):
            EngineConfig(D8, engine="smt")

    def test_smt_with_solver_ok(self):
        cfg = EngineConfig(D8, engine="smt", solver_cmd="z3 -in")
        assert cfg.solver_cmd == "z3 -in"


EXPECTED_CUBE = {
    # name: (dist, method)
    "x": (RUD, METHOD_TYPE),
    "x0": (SID, METHOD_TYPE),
    "x1": (SID, METHOD_TYPE),
    "x2": (SDD, METHOD_COUNT_BF),
    "x3": (SDD, METHOD_COUNT_BF),
    "x4": (RUD, METHOD_TYPE),
    "x5": (RUD, METHOD_TYPE),
    "x6": (SID, METHOD_REDUCED),
    "x7": (RUD, METHOD_TYPE),
    "x8": (SID, METHOD_TYPE),
    "x9": (RUD, METHOD_TYPE),
}


@pytest.fixture
def slow_reduction(monkeypatch):
    """A simulated clock on which every eliminate_ineffective pass takes
    100 s, past the default 60 s deadline. Lists what each simplify
    call of the verifier raised."""
    offset = [0.0]
    raised = []
    real_monotonic, real_pass = time.monotonic, reduction.eliminate_ineffective
    real_simplify = verify.simplify

    def slow_pass(*args):
        offset[0] += 100.0
        return real_pass(*args)

    def simplify(*args):
        try:
            return real_simplify(*args)
        except Exception as err:
            raised.append(type(err).__name__)
            raise

    monkeypatch.setattr(time, "monotonic",
                        lambda: real_monotonic() + offset[0])
    monkeypatch.setattr(reduction, "eliminate_ineffective", slow_pass)
    monkeypatch.setattr(verify, "simplify", simplify)
    return raised


class TestPmCheck:
    def test_cube_hybrid(self, cube):
        report = pm_check(cube, EngineConfig(D8))
        got = {v.name: (v.dist, v.method) for v in report.verdicts}
        assert got == EXPECTED_CUBE
        assert not report.perfectly_masked

    def test_cube_counted_witnesses(self, cube):
        report = pm_check(cube, EngineConfig(D8))
        by_name = {v.name: v for v in report.verdicts}
        assert by_name["x2"].witness == ({"k": 0}, {"k": 1})
        assert by_name["x3"].witness == ({"k": 0}, {"k": 1})
        assert by_name["x6"].witness is None

    def test_cube_reduced_forms_recorded(self, cube):
        report = pm_check(cube, EngineConfig(D8))
        assert pretty(report.reduced["x6"]) == "((r0 @ r0) @ r0)"
        # typed-by-rule variables never get simplified
        assert "x4" not in report.reduced

    def test_cube_totals(self, cube):
        report = pm_check(cube, EngineConfig(D8))
        assert report.totals == {"internal": 11, "sid": 9, "sdd": 2,
                                 "counted": 2, "unknown": 0}

    def test_cube_type_only(self, cube):
        report = pm_check(cube, EngineConfig(D8, engine="type-only"))
        got = {v.name: v.dist for v in report.verdicts}
        for name, (dist, _) in EXPECTED_CUBE.items():
            if name in ("x2", "x3", "x6"):
                assert got[name] is UKD
            else:
                assert got[name] is dist
        notes = {v.name: v.note for v in report.verdicts}
        assert notes["x2"] == "potentially leaky: counting disabled"
        assert notes["x"] is None
        # no SDD proof: the flag stays up even with unknowns present
        assert report.perfectly_masked
        assert report.totals["unknown"] == 3

    def test_cube_fixed_is_perfectly_masked(self):
        p = parse((corpus_dir() / "cube_fixed.mv").read_text())
        report = pm_check(p, EngineConfig(D8))
        assert report.perfectly_masked
        assert report.totals["internal"] == 13
        assert report.totals["sdd"] == 0
        assert report.totals["unknown"] == 0

    def test_secmult_fully_typed(self, secmult):
        report = pm_check(secmult, EngineConfig(D8))
        assert report.perfectly_masked
        assert report.totals == {"internal": 10, "sid": 10, "sdd": 0,
                                 "counted": 0, "unknown": 0}
        assert all(v.method == METHOD_TYPE for v in report.verdicts)

    def test_store_propagates_counted_verdicts(self):
        report = pm_check(RECALL, EngineConfig(D2))
        a, b = report.verdicts
        assert (a.name, a.dist, a.method) == ("a", SDD, METHOD_COUNT_BF)
        assert a.witness == ({"k": 0, "p": 1}, {"k": 1, "p": 1})
        assert (b.name, b.dist, b.method) == ("b", SDD, METHOD_TYPE)
        assert b.rule_trace == ("recalled", "complement")

    def test_product_with_nonzero_factor_is_counted(self):
        # (k | 1) @ r0 is uniform; the rules leave it to counting
        p = parse("fn T(k: secret, r0: random) "
                  "{ t = k | 1; y = t @ r0; return y; }")
        report = qms_compute(p, EngineConfig(D8))
        y = report.verdicts[1]
        assert (y.dist, y.method) == (SID, METHOD_COUNT_BF)
        assert y.qms == Qms(256, 256)

    def test_store_not_built_in_type_only(self):
        report = pm_check(RECALL, EngineConfig(D2, engine="type-only"))
        assert [v.dist for v in report.verdicts] == [UKD, UKD]

    def test_budget_overrun_is_inconclusive_and_continues(self, cube):
        report = pm_check(cube, EngineConfig(D8, budget=100))
        by_name = {v.name: v for v in report.verdicts}
        for name in ("x2", "x3"):
            v = by_name[name]
            assert v.dist is UKD
            assert v.method == METHOD_INCONCLUSIVE
            assert v.note == ("BudgetExceeded: 256 sigma x 256 random "
                              "assignments exceed the budget of 100 "
                              "evaluations")
        # unaffected variables still get their verdicts
        assert by_name["x6"].dist is SID
        assert by_name["x9"].dist is RUD
        assert report.perfectly_masked  # no SDD was proven
        assert report.totals["unknown"] == 2

    def test_deadline_passed_in_reduction_is_inconclusive(
            self, cube, slow_reduction):
        report = pm_check(cube, EngineConfig(D8))
        by_name = {v.name: v for v in report.verdicts}
        for name, (dist, method) in EXPECTED_CUBE.items():
            v = by_name[name]
            if method == METHOD_TYPE:
                assert (v.dist, v.method, v.note) == (dist, method, None)
            else:
                assert (v.dist, v.method, v.note) == (
                    UKD, METHOD_INCONCLUSIVE,
                    "VariableTimeout: per-variable deadline exceeded"), name
        assert slow_reduction == ["VariableTimeout"] * 3


class TestSmtEngine:
    @pytest.fixture()
    def cfg(self, solver_cmd):
        return EngineConfig(D2, engine="smt", solver_cmd=solver_cmd)

    def test_agrees_with_bruteforce(self, cube, cfg):
        smt = pm_check(cube, cfg)
        brute = pm_check(cube, EngineConfig(D2))
        for a, b in zip(smt.verdicts, brute.verdicts):
            assert (a.name, a.dist) == (b.name, b.dist)
            if b.method == METHOD_COUNT_BF:
                assert a.method == METHOD_COUNT_SMT
                # the sat model, replayed: its two fixings differ
                s1, s2 = a.witness
                e_hat = smt.reduced[a.name]
                assert distribution(e_hat, s1, D2) != \
                    distribution(e_hat, s2, D2)
            else:
                assert a.method == b.method

    def test_qms_agrees_with_bruteforce(self, cube, cfg):
        smt = qms_compute(cube, cfg)
        brute = qms_compute(cube, EngineConfig(D2))
        for a, b in zip(smt.verdicts, brute.verdicts):
            assert a.qms.fraction == b.qms.fraction, a.name
        assert smt.program_qms.fraction == brute.program_qms.fraction

    def test_spawn_failure_is_inconclusive(self, cube):
        cfg = EngineConfig(D2, engine="smt", solver_cmd="/no/such/solver")
        report = pm_check(cube, cfg)
        by_name = {v.name: v for v in report.verdicts}
        assert by_name["x2"].method == METHOD_INCONCLUSIVE
        assert by_name["x2"].note.startswith("SolverSpawnFailure: ")
        assert by_name["x9"].dist is RUD  # typing still works

    def test_unknown_solver_falls_back_to_counting(self, cube, tmp_path):
        import stat
        stub = tmp_path / "shrug.sh"
        stub.write_text("#!/bin/sh\necho unknown\n")
        stub.chmod(stub.stat().st_mode | stat.S_IXUSR)
        report = pm_check(cube, EngineConfig(D2, engine="smt",
                                             solver_cmd=str(stub)))
        by_name = {v.name: v for v in report.verdicts}
        assert by_name["x2"].method == METHOD_COUNT_BF
        assert by_name["x2"].dist is SDD
        assert by_name["x2"].note == \
            "solver fallback: solver answered unknown (unknown)"

    @pytest.mark.parametrize("model", [
        "((k_k #b01) (kk_k #b01) (c #b00))",    # equal fixings: no gap
        "((kk_k #b01) (c #b00))",               # k_k is missing
    ])
    def test_model_that_does_not_replay_falls_back(self, cube, tmp_path,
                                                   model):
        cmd = stub_solver(tmp_path, "liar.sh", f"echo sat\necho '{model}'")
        report = pm_check(cube, EngineConfig(D2, engine="smt",
                                             solver_cmd=cmd))
        x2 = next(v for v in report.verdicts if v.name == "x2")
        assert (x2.dist, x2.method) == (SDD, METHOD_COUNT_BF)
        assert x2.note == "solver fallback: model does not realise the gap"
        assert x2.witness == ({"k": 0}, {"k": 1})

    def test_sat_without_model_has_no_witness(self, cube, tmp_path):
        cmd = stub_solver(tmp_path, "yes.sh", "echo sat")
        report = pm_check(cube, EngineConfig(D2, engine="smt",
                                             solver_cmd=cmd))
        x2 = next(v for v in report.verdicts if v.name == "x2")
        assert (x2.dist, x2.method, x2.witness, x2.note) == \
            (SDD, METHOD_COUNT_SMT, None, None)


@pytest.fixture
def searches(monkeypatch):
    """(counted expression, stats) for each gap search verify starts."""
    calls = []

    class Logged(verify.GapSearch):
        def __init__(self, e, *args, **kwargs):
            stats = {}
            calls.append((e, stats))
            super().__init__(e, *args, stats=stats, **kwargs)

    monkeypatch.setattr(verify, "GapSearch", Logged)
    return calls


def queries_by_name(report, calls):
    """Solver queries per variable, the variable found by its e-hat."""
    return {name: stats["queries"] for e, stats in calls
            for name, e_hat in report.reduced.items() if e_hat is e}


DEEP4 = parse("""
fn Deep4(k: secret, r0: random, r1: random) {
  v0 = k ^ r0;
  v1 = v0 @ r1;
  v2 = v1 ^ r0;
  v3 = v2 @ r1;
  v4 = v3 ^ r0;
  return v4;
}
""")


class TestSolverSearch:
    """With the bundled fragment solver, whose models are its first
    satisfying assignments, the query counts are fixed."""

    CMD = f"{sys.executable} {FRAGMENT_SOLVER}"

    @pytest.mark.parametrize("program, bits, want", [
        ("cube", 2, {"x2": 2, "x3": 2}),
        ("cube", 3, {"x2": 4, "x3": 4}),
        ("deep4", 2, {"v2": 3, "v3": 3, "v4": 2}),
    ])
    def test_queries_per_variable(self, cube, searches, program, bits,
                                  want):
        p = cube if program == "cube" else DEEP4
        cfg = EngineConfig(make_domain(bits), engine="smt",
                           solver_cmd=self.CMD)
        report = qms_compute(p, cfg)
        assert queries_by_name(report, searches) == want
        for v in report.verdicts:
            if v.name in want:
                assert v.method == METHOD_COUNT_SMT
                assert v.qms is report.counted[v.name]
                assert v.witness == v.qms.witness
        searches.clear()
        checked = pm_check(p, cfg)
        assert queries_by_name(checked, searches) == dict.fromkeys(want, 1)

    def test_first_model_realising_the_full_gap(self, searches):
        # the first model, k_k=0 kk_k=1 c=0, replays to gap 4 = 2^m:
        # the verdict's answer already ends the search, at QMS 0
        p = parse("fn Full(k: secret, r0: random) { y = (k @ r0) | k; "
                  "return y; }")
        cfg = EngineConfig(D2, engine="smt", solver_cmd=self.CMD)
        report = qms_compute(p, cfg)
        y = report.verdicts[-1]
        assert (y.dist, y.method, y.qms, y.note) == (
            SDD, METHOD_COUNT_SMT, Qms(0, 4, ({"k": 0}, {"k": 1}, 0)), None)
        assert y.witness == y.qms.witness
        assert queries_by_name(report, searches)["y"] == 1

    def test_search_after_the_verdict_has_its_own_deadline(
            self, cube, monkeypatch):
        # a solver that takes 0.6 s a query, on a simulated clock: one
        # query fits in a 1 s deadline, two do not. x2 and x3 need two
        # queries each, the verdict's and one more
        offset = [0.0]
        real_monotonic, real_check_sat = time.monotonic, smt.check_sat

        def slow_check_sat(query, solver, timeout=None):
            offset[0] += 0.6
            if timeout is not None and timeout < 0.6:
                return smt.SolverVerdict(smt.UNKNOWN, "timeout")
            return real_check_sat(query, solver, timeout)

        monkeypatch.setattr(time, "monotonic",
                            lambda: real_monotonic() + offset[0])
        monkeypatch.setattr(smt, "check_sat", slow_check_sat)
        cfg = EngineConfig(D2, engine="smt", solver_cmd=self.CMD,
                           var_timeout=1.0)
        by_name = {v.name: v for v in qms_compute(cube, cfg).verdicts}
        brute = {v.name: v for v in qms_compute(cube,
                                                EngineConfig(D2)).verdicts}
        for name in ("x2", "x3"):
            v = by_name[name]
            assert (v.method, v.note) == (METHOD_COUNT_SMT, None), name
            assert v.qms.fraction == brute[name].qms.fraction, name

    def test_emitted_scripts(self, cube, tmp_path):
        # the verdict's script keeps its name, <var>_q1_1.smt2
        for check, names in (
                (pm_check, ["x2_q1_1.smt2", "x3_q1_1.smt2"]),
                (qms_compute, ["x2_q1_1.smt2", "x2_q1_4.smt2",
                               "x3_q1_1.smt2", "x3_q1_4.smt2"])):
            out = tmp_path / check.__name__
            check(cube, EngineConfig(D2, engine="smt", solver_cmd=self.CMD,
                                     emit_smt_dir=out))
            assert sorted(f.name for f in out.iterdir()) == names

    def test_fallback_asks_the_solver_once(self, cube, tmp_path):
        # 24 free bits at 8 bits: the fragment solver answers unknown;
        # each start logs every line it reads, before passing it on
        cmd = stub_solver(tmp_path, "logged.sh",
                          f'sed -u "w {tmp_path}/stdin.$$.log" | '
                          f'exec {self.CMD}')
        cfg = EngineConfig(D8, engine="smt", solver_cmd=cmd)
        report = qms_compute(cube, cfg)
        by_name = {v.name: v for v in report.verdicts}
        checked = {v.name: v for v in pm_check(cube, cfg).verdicts}
        logs = list(tmp_path.glob("stdin.*.log"))
        assert len(logs) == 2  # one solver process per report
        sent = "".join(log.read_text() for log in logs)
        assert sent.count("(check-sat)") == 4  # x2 and x3, in each report
        for name in ("x2", "x3"):
            v = by_name[name]
            prefix = smt.encode_psi(report.reduced[name], 1, D8).prefix
            assert sent.count(prefix.shared) == 2, name
            assert (v.method, v.qms.fraction) == \
                (METHOD_COUNT_BF, Fraction(253, 256)), name
            assert v.note.count("solver fallback") == 1, name
            assert v.note == checked[name].note, name


def alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestSolverProcesses:
    """One solver process per run, started at the first question and
    killed on return."""

    CMD = f"{sys.executable} {FRAGMENT_SOLVER}"

    def test_one_start_for_every_question_of_a_run(self, cube, tmp_path,
                                                     searches):
        cmd, log = logged_solver(tmp_path)
        report = qms_compute(cube, EngineConfig(D2, engine="smt",
                                                solver_cmd=cmd))
        assert sum(queries_by_name(report, searches).values()) == 4
        (pid,) = starts(log)
        assert not alive(pid)

    def test_a_run_the_rules_settle_starts_none(self, secmult, tmp_path):
        cmd, log = logged_solver(tmp_path)
        cfg = EngineConfig(D2, engine="smt", solver_cmd=cmd)
        for check in (pm_check, qms_compute):
            assert {v.method for v in check(secmult, cfg).verdicts} <= \
                {METHOD_TYPE, METHOD_REDUCED}
        assert starts(log) == []

    def test_no_solver_outlives_a_run_that_raises(self, cube, tmp_path,
                                                 monkeypatch):
        cmd, log = logged_solver(tmp_path)

        def fail(*args):
            raise RuntimeError("replay failed")

        monkeypatch.setattr(smt, "_replay", fail)
        with pytest.raises(RuntimeError, match="replay failed"):
            pm_check(cube, EngineConfig(D2, engine="smt", solver_cmd=cmd))
        (pid,) = starts(log)
        assert not alive(pid)

    def test_a_hung_question_times_out_and_the_next_starts_afresh(
            self, cube, tmp_path):
        # the first start never answers: x2's question takes all of its
        # deadline, and x3 gets a new process
        mark = tmp_path / "hung"
        cmd = stub_solver(
            tmp_path, "hang_once.sh",
            f"if [ ! -e {mark} ]; then touch {mark}; exec sleep 30; fi\n"
            f"exec {self.CMD}")
        cfg = EngineConfig(D2, engine="smt", solver_cmd=cmd, var_timeout=1.0)
        by_name = {v.name: v for v in pm_check(cube, cfg).verdicts}
        assert (by_name["x2"].method, by_name["x2"].note) == (
            METHOD_INCONCLUSIVE,
            "solver fallback: solver answered unknown (timeout); "
            "VariableTimeout: per-variable deadline exceeded")
        assert (by_name["x3"].method, by_name["x3"].note) == \
            (METHOD_COUNT_SMT, None)

    def test_spawn_failure_is_noted_on_every_counted_variable(self, cube):
        cfg = EngineConfig(D2, engine="smt", solver_cmd="/no/such/solver")
        notes = {v.name: v.note for v in pm_check(cube, cfg).verdicts
                 if v.method == METHOD_INCONCLUSIVE}
        assert sorted(notes) == ["x2", "x3"]
        for note in notes.values():
            assert note.startswith("SolverSpawnFailure: cannot run "
                                   "'/no/such/solver': ")


# y needs 2^24 solver copies and 2^32 evaluations at 8 bits
WIDE = parse("""
fn Wide(k: secret, r0: random, r1: random, r2: random) {
  a = k & r0;
  y = a ^ (r1 & r2);
  return y;
}
""")

# y needs 2^20 solver copies at 4 bits, past MAX_COPY_BITS, but only
# 2^24 evaluations
FIVE = parse("""
fn Five(k: secret, r0: random, r1: random, r2: random, r3: random,
        r4: random) {
  y = (k & r0) ^ ((r1 & r2) ^ (r3 & r4));
  return y;
}
""")


class TestSolverFallbacks:
    def test_too_many_copies_falls_back_to_enumeration(self, solver_cmd):
        cfg = EngineConfig(D8, engine="smt", solver_cmd=solver_cmd)
        by_name = {v.name: v for v in pm_check(WIDE, cfg).verdicts}
        assert by_name["a"].dist is SDD
        y = by_name["y"]
        assert (y.dist, y.method) == (UKD, METHOD_INCONCLUSIVE)
        assert y.note.startswith(
            "solver fallback: 3 randoms x 8 bits would need 2^24 copies; "
            "BudgetExceeded: 256 sigma x 16777216 random assignments")

    def test_strength_falls_back_with_one_note(self, solver_cmd):
        cfg = EngineConfig(D4, engine="smt", solver_cmd=solver_cmd)
        y = qms_compute(FIVE, cfg).verdicts[-1]
        assert (y.name, y.dist, y.method) == ("y", SDD, METHOD_COUNT_BF)
        assert y.note == \
            "solver fallback: 5 randoms x 4 bits would need 2^20 copies"
        brute = qms_compute(FIVE, EngineConfig(D4)).verdicts[-1]
        assert (y.qms, y.witness) == (brute.qms, brute.witness)

    def test_emission_past_the_copy_limit_is_noted(self, tmp_path):
        cfg = EngineConfig(D4, emit_smt_dir=tmp_path / "queries")
        y = pm_check(FIVE, cfg).verdicts[-1]
        assert (y.name, y.dist, y.method) == ("y", SDD, METHOD_COUNT_BF)
        assert y.note == \
            "smt emission skipped: 5 randoms x 4 bits would need 2^20 copies"

    def test_unknown_answer_is_noted(self, cube):
        # 24 free bits at 8 bits: past what the fragment solver decides
        fragment = Path(__file__).resolve().parent / "fragment_solver.py"
        cfg = EngineConfig(D8, engine="smt",
                           solver_cmd=f"{sys.executable} {fragment}")
        by_name = {v.name: v for v in pm_check(cube, cfg).verdicts}
        for name in ("x2", "x3"):
            v = by_name[name]
            assert (v.dist, v.method) == (SDD, METHOD_COUNT_BF), name
            assert v.note.startswith(
                "solver fallback: solver answered unknown ("), name

    @pytest.mark.parametrize("engine", ["bruteforce", "smt"])
    def test_unwritable_emission_directory_is_noted(self, cube, tmp_path,
                                                    solver_cmd, engine):
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = EngineConfig(D2, engine=engine, solver_cmd=solver_cmd,
                           emit_smt_dir=blocker / "queries")
        by_name = {v.name: v for v in qms_compute(cube, cfg).verdicts}
        assert by_name["x2"].dist is SDD
        assert by_name["x2"].note.startswith("smt emission skipped: ")
        assert "solver fallback" not in by_name["x2"].note
        assert by_name["x2"].qms.fraction == Fraction(1, 4)
        assert by_name["x9"].note is None


@pytest.fixture
def counting_calls(monkeypatch):
    """(function, counted expression) for each counting call verify makes."""
    calls = []
    for name in ("check_si", "qms_exact"):
        def logged(e, *args, _name=name, _count=getattr(verify, name),
                   **kwargs):
            calls.append((_name, e))
            return _count(e, *args, **kwargs)
        monkeypatch.setattr(verify, name, logged)
    return calls


def counted_names(report, calls):
    """(function, variable) per call, the variable found by its e-hat."""
    return sorted((fn, name) for fn, e in calls
                  for name, e_hat in report.reduced.items() if e_hat is e)


class TestCountOnce:
    def test_qms_compute_counts_each_variable_once(self, cube,
                                                   counting_calls):
        report = qms_compute(cube, EngineConfig(D8))
        assert counted_names(report, counting_calls) == [
            ("qms_exact", "x2"), ("qms_exact", "x3")]
        by_name = {v.name: v for v in report.verdicts}
        for name in ("x2", "x3"):
            assert by_name[name].method == METHOD_COUNT_BF
            assert by_name[name].qms is report.counted[name]

    def test_pm_check_keeps_check_si(self, cube, counting_calls):
        report = pm_check(cube, EngineConfig(D8))
        assert counted_names(report, counting_calls) == [
            ("check_si", "x2"), ("check_si", "x3")]
        assert report.counted == {}
        x2 = next(v for v in report.verdicts if v.name == "x2")
        assert x2.witness == ({"k": 0}, {"k": 1})

    def test_solver_fallback_counts_once(self, solver_cmd, counting_calls):
        cfg = EngineConfig(D8, engine="smt", solver_cmd=solver_cmd)
        report = qms_compute(WIDE, cfg)
        assert [call for call in counted_names(report, counting_calls)
                if call[1] == "y"] == [("qms_exact", "y")]
        y = report.verdicts[-1]
        # y's one count is over budget: inconclusive, as before
        assert (y.name, y.dist, y.method, y.qms, y.witness) == \
            ("y", UKD, METHOD_INCONCLUSIVE, None, None)
        assert y.note == (
            "solver fallback: 3 randoms x 8 bits would need 2^24 copies; "
            "BudgetExceeded: 256 sigma x 16777216 random assignments "
            "exceed the budget of 268435456 evaluations")

    def test_solver_fallback_strength_from_the_verdict_count(
            self, solver_cmd, counting_calls):
        cfg = EngineConfig(D4, engine="smt", solver_cmd=solver_cmd)
        report = qms_compute(FIVE, cfg)
        y = report.verdicts[-1]
        assert counted_names(report, counting_calls) == [("qms_exact", "y")]
        assert y.note == \
            "solver fallback: 5 randoms x 4 bits would need 2^20 copies"
        assert y.qms == Qms(954112, 1 << 20, ({"k": 0}, {"k": 15}, 0))
        assert y.witness == y.qms.witness


class TestQmsCompute:
    def test_rejects_type_only(self, cube):
        with pytest.raises(ValueError, match="counting"):
            qms_compute(cube, EngineConfig(D8, engine="type-only"))

    def test_cube_strengths(self, cube):
        report = qms_compute(cube, EngineConfig(D8))
        by_name = {v.name: v for v in report.verdicts}
        for name in ("x2", "x3"):
            v = by_name[name]
            assert v.qms.fraction == Fraction(253, 256), name
            assert v.witness == ({"k": 0}, {"k": 1}, 1), name
        assert report.program_qms == Qms(253, 256)

    def test_strength_one_iff_typed_si(self, cube):
        report = qms_compute(cube, EngineConfig(D8))
        for v in report.verdicts:
            assert (v.qms.fraction == 1) == (v.dist in (RUD, SID)), v.name

    def test_si_denominator_follows_reduced_randomness(self, cube):
        report = qms_compute(cube, EngineConfig(D8))
        by_name = {v.name: v for v in report.verdicts}
        # x4 reduces to the lone r1: denominator 256^1
        assert by_name["x4"].qms == Qms(256, 256)
        # x2 keeps its single random r0
        assert by_name["x2"].qms.den == 256

    def test_no_randomness_means_zero_strength(self):
        p = parse("""
        fn Bare(k: secret, r0: random) {
          a = k & k;
          return a;
        }
        """)
        report = qms_compute(p, EngineConfig(D2))
        v = report.verdicts[0]
        assert v.dist is SDD
        assert v.qms == Qms(0, 1)
        assert report.program_qms == Qms(0, 1)

    def test_secmult_program_strength(self, secmult):
        report = qms_compute(secmult, EngineConfig(D8))
        assert report.perfectly_masked
        assert report.program_qms.fraction == 1
        assert all(v.qms.fraction == 1 for v in report.verdicts)

    def test_program_qms_is_first_minimum(self, cube):
        report = qms_compute(cube, EngineConfig(D8))
        worst = min(v.qms.fraction for v in report.verdicts)
        first = next(v for v in report.verdicts
                     if v.qms.fraction == worst)
        assert report.program_qms.num == first.qms.num
        assert first.name == "x2"

    def test_deadline_passed_in_reduction_leaves_qms_unset(
            self, cube, slow_reduction):
        report = qms_compute(cube, EngineConfig(D8))
        for v in report.verdicts:
            assert v.qms is None, v.name
            assert v.note == \
                "VariableTimeout: per-variable deadline exceeded", v.name
        assert report.program_qms is None
        # x2, x3 and x6 time out in the verdict stage, the other eight
        # in the strength stage; an inconclusive row is not reduced again
        assert slow_reduction == ["VariableTimeout"] * 11

    def test_budget_overrun_leaves_qms_unset(self, cube):
        report = qms_compute(cube, EngineConfig(D8, budget=100))
        by_name = {v.name: v for v in report.verdicts}
        assert by_name["x2"].qms is None
        assert by_name["x2"].dist is UKD
        # program strength comes from the variables that did resolve
        assert report.program_qms.fraction == 1


class TestSerialization:
    def test_json_shape(self, cube):
        doc = report_to_dict(qms_compute(cube, EngineConfig(D8)))
        assert doc["version"] == 1
        assert doc["program"] == "Cube"
        assert doc["bits"] == 8
        assert doc["poly"] == 0x11D
        assert doc["perfectly_masked"] is False
        assert doc["program_qms"] == {"num": 253, "den": 256}
        assert doc["timings"] is None
        names = [v["name"] for v in doc["variables"]]
        assert names == ["x", "x0", "x1", "x2", "x3", "x4", "x5", "x6",
                         "x7", "x8", "x9"]
        x2 = next(v for v in doc["variables"] if v["name"] == "x2")
        assert x2["type"] == "SDD"
        assert x2["qms"] == {"num": 253, "den": 256}
        assert x2["witness"] == {"sigma1": {"k": 0}, "sigma2": {"k": 1},
                                 "c": 1}

    def test_qms_field_only_on_request(self, cube):
        doc = report_to_dict(pm_check(cube, EngineConfig(D8)))
        assert all(v["qms"] is None for v in doc["variables"])
        assert doc["program_qms"] is None

    def test_timings_on_request(self, cube):
        report = pm_check(cube, EngineConfig(D8))
        doc = report_to_dict(report, timings=True)
        assert doc["timings"]["total"] == report.elapsed
        assert set(doc["timings"]["variables"]) == set(cube.internals)

    def test_round_trip(self, cube):
        report = qms_compute(cube, EngineConfig(D8))
        assert report_from_json(report_to_json(report)) == report

    def test_round_trip_si_witness(self):
        report = pm_check(RECALL, EngineConfig(D2))
        again = report_from_json(report_to_json(report))
        assert again == report
        assert again.verdicts[0].witness == ({"k": 0, "p": 1},
                                             {"k": 1, "p": 1})

    def test_deterministic_bytes(self, cube):
        a = report_to_json(qms_compute(cube, EngineConfig(D8)))
        b = report_to_json(qms_compute(cube, EngineConfig(D8)))
        assert a == b
