"""SMT encoding, solver driving, and the binary-search strength procedure."""

import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (
    FRAGMENT_SOLVER,
    logged_solver,
    replayed_gap,
    starts,
    stub_solver,
)

from maskcheck import (
    SAT,
    UNKNOWN,
    UNSAT,
    InconclusiveSolver,
    Qms,
    ShiftOutOfRange,
    SolverSession,
    SolverSpawnFailure,
    TooManyCopies,
    binop,
    check_sat,
    const,
    encode_psi,
    make_domain,
    qms_exact,
    qms_smt,
    var,
)
from maskcheck import expr as ex
from maskcheck.smt import SENTINEL

K = var("k", ex.SECRET)
R0 = var("r0", ex.RANDOM)
R1 = var("r1", ex.RANDOM)
P = var("p", ex.PUBLIC)

D2 = make_domain(2)
D8 = make_domain(8)

X3_N2 = binop("@", binop("@", R0, R0), binop("^", K, R0))

GOLDEN = Path(__file__).parent / "golden"


class TestEncode:
    def test_golden_script(self):
        got = encode_psi(X3_N2, Fraction(1, 2), D2, "bv")
        assert got.text == (GOLDEN / "x3_q1_2.smt2").read_text()
        assert (got.m, got.delta, got.q) == (2, 2, Fraction(1, 2))

    def test_deterministic(self):
        a = encode_psi(X3_N2, Fraction(1, 4), D2)
        b = encode_psi(X3_N2, Fraction(1, 4), D2)
        assert a == b

    def test_delta_rounding(self):
        e = binop("&", K, R0)
        assert encode_psi(e, 1, D2).delta == 0
        assert encode_psi(e, 0, D2).delta == 4
        assert encode_psi(e, Fraction(3, 4), D2).delta == 1
        # non-dyadic thresholds round up: ceil(2/3 * 4)
        assert encode_psi(e, Fraction(1, 3), D2).delta == 3

    def test_q_accepts_floats(self):
        assert encode_psi(binop("&", K, R0), 0.5, D2).q == Fraction(1, 2)

    def test_q_out_of_range(self):
        with pytest.raises(ValueError):
            encode_psi(K, 2, D2)
        with pytest.raises(ValueError):
            encode_psi(K, -0.5, D2)

    def test_bad_profile(self):
        with pytest.raises(ValueError):
            encode_psi(K, 1, D2, "smtlib")

    def test_too_many_copies(self):
        e = binop("^", binop("^", R0, R1), var("r2", ex.RANDOM))
        with pytest.raises(TooManyCopies):
            encode_psi(e, 1, D8)

    def test_copy_cap_boundary(self):
        # 2 randoms x 8 bits = 16 bits of copies: allowed, if large
        e = binop("^", binop("&", K, R0), R1)
        assert encode_psi(e, 1, D8).m == 16

    def test_gfmul_only_when_needed(self):
        with_mul = encode_psi(binop("@", K, R0), 1, D2).text
        without = encode_psi(binop("&", K, R0), 1, D2).text
        assert "define-fun gfmul" in with_mul
        assert "gfmul" not in without

    def test_declarations(self):
        e = binop("|", binop("&", K, R0), P)
        text = encode_psi(e, 1, D2).text
        assert "(declare-fun p_p () (_ BitVec 2))" in text
        assert "(declare-fun k_k () (_ BitVec 2))" in text
        assert "(declare-fun kk_k () (_ BitVec 2))" in text
        assert "(declare-fun c () (_ BitVec 2))" in text
        # publics are shared between the two copies: no primed form
        assert "pp_p" not in text

    def test_int_profile(self):
        text = encode_psi(X3_N2, Fraction(1, 2), D2, "int").text
        assert "(set-logic ALL)" in text
        assert "(define-fun i_0 () Int" in text
        assert "(assert (> (- " in text
        assert "bvugt" not in text

    def test_shift_rendering(self):
        text = encode_psi(binop("<<", binop("^", K, R0), const(1)), 1, D2).text
        assert "(bvshl " in text

    def test_non_const_shift_rejected(self):
        with pytest.raises(ShiftOutOfRange):
            encode_psi(binop("<<", K, R0), 1, D2)

    def test_indicator_width_never_wraps(self):
        # sum of 2^m indicators plus delta up to 2^m fits in m+2 bits
        text = encode_psi(binop("&", K, R0), 0, D2).text
        assert "(_ BitVec 4) (ite" in text
        assert "(_ bv4 4)" in text  # delta 4 rendered at the wide width


class TestCheckSat:
    @pytest.fixture
    def query(self):
        return encode_psi(binop("&", K, R0), Fraction(1, 2), D2)

    def test_sat(self, tmp_path, query):
        cmd = stub_solver(tmp_path, "yes.sh", "echo sat")
        assert check_sat(query, cmd).kind == SAT

    def test_unsat(self, tmp_path, query):
        cmd = stub_solver(tmp_path, "no.sh", "echo unsat")
        assert check_sat(query, cmd).kind == UNSAT

    def test_verdict_needs_bare_word_line(self, tmp_path, query):
        cmd = stub_solver(tmp_path, "chatty.sh",
                          "echo 'the answer is sat'\necho unsat")
        got = check_sat(query, cmd)
        assert got.kind == UNSAT

    def test_garbage_is_unknown(self, tmp_path, query):
        cmd = stub_solver(tmp_path, "confused.sh", "echo flurble")
        got = check_sat(query, cmd)
        assert got.kind == UNKNOWN
        assert got.reason == "flurble"

    def test_silent_is_unknown(self, tmp_path, query):
        cmd = stub_solver(tmp_path, "mute.sh", "true")
        got = check_sat(query, cmd)
        assert got.kind == UNKNOWN
        assert got.reason == "no output"

    def test_timeout(self, tmp_path, query):
        cmd = stub_solver(tmp_path, "slow.sh", "sleep 5; echo sat")
        got = check_sat(query, cmd, timeout=0.2)
        assert got.kind == UNKNOWN
        assert got.reason == "timeout"

    def test_missing_binary(self, query):
        with pytest.raises(SolverSpawnFailure):
            check_sat(query, "/no/such/solver")

    def test_not_executable(self, tmp_path, query):
        path = tmp_path / "solver.txt"
        path.write_text("sat\n")
        with pytest.raises(SolverSpawnFailure):
            check_sat(query, str(path))

    def test_model_literals(self, tmp_path, query):
        cmd = stub_solver(tmp_path, "model.sh", "cat <<'EOF'\nsat\n"
                          "((k_k #b10)\n (kk_k #x1)\n (c (_ bv3 2)))\nEOF")
        got = check_sat(query, cmd)
        assert got.kind == SAT
        assert got.model == {"k_k": 2, "kk_k": 1, "c": 3}

    def test_sat_without_model(self, tmp_path, query):
        cmd = stub_solver(tmp_path, "yes.sh", "echo sat")
        assert check_sat(query, cmd).model is None

    def test_unsat_ignores_the_model_error(self, tmp_path, query):
        cmd = stub_solver(tmp_path, "no.sh", "echo unsat\n"
                          "echo '(error \"model is not available\")'")
        got = check_sat(query, cmd)
        assert (got.kind, got.model) == (UNSAT, None)

    def test_solver_sees_the_script(self, tmp_path, query):
        # on stdin: produce-models and the logic, the prefix in a scope
        # of its own, then the threshold in another, and the sentinel
        sent = ("(set-option :produce-models true)\n(set-logic QF_BV)\n"
                f"(push 1)\n{query.prefix.shared}"
                f"(push 1)\n{query.prefix.tail(query.delta)}(pop 1)\n"
                '(echo "maskcheck-answered")\n')
        log = tmp_path / "stdin.log"
        cmd = stub_solver(tmp_path, "head.sh",
                          f"head -c {len(sent)} > {log}")
        got = check_sat(query, cmd)
        assert (got.kind, got.reason) == (UNKNOWN, "no output")
        assert log.read_text() == sent

    def test_stderr_gives_the_reason(self, tmp_path, query):
        cmd = stub_solver(tmp_path, "moan.sh", "echo 'bad input' >&2")
        got = check_sat(query, cmd)
        assert (got.kind, got.reason) == (UNKNOWN, "bad input")

    def test_stdout_comes_before_stderr(self, tmp_path, query):
        cmd = stub_solver(tmp_path, "both.sh",
                          "echo 'bad input' >&2\necho flurble")
        assert check_sat(query, cmd).reason == "flurble"

    def test_quoted_sentinel(self, tmp_path, query):
        # a solver that echoes strings with their quotes, and stays up
        cmd = stub_solver(tmp_path, "quoted.sh",
                          "echo unsat\necho '\"maskcheck-answered\"'\n"
                          "exec sleep 30")
        with SolverSession(cmd) as session:
            got = check_sat(query, session, timeout=10)
        assert got.kind == UNSAT
        assert got.elapsed < 10

    def test_tail_is_only_the_threshold(self, query):
        tail = encode_psi(binop("&", K, R0), Fraction(1, 4), D2,
                          prefix=query.prefix)
        assert (tail.m, tail.delta, tail.prefix) == (2, 3, query.prefix)
        assert tail.text == query.prefix.tail(3)
        assert tail.text.startswith("(assert (bvugt sum_c (bvadd (_ bv3 4)")
        assert tail.script == encode_psi(binop("&", K, R0), Fraction(1, 4),
                                         D2).text


class TestFragmentSolver:
    @pytest.mark.parametrize("e, q, profile", [
        (X3_N2, 1, "bv"),
        (X3_N2, Fraction(1, 2), "bv"),
        (X3_N2, Fraction(1, 2), "int"),
        (binop("|", binop("&", K, R0), P), Fraction(3, 4), "bv"),
    ])
    def test_model_satisfies_the_assertion(self, e, q, profile):
        query = encode_psi(e, q, D2, profile)
        got = check_sat(query, f"{sys.executable} {FRAGMENT_SOLVER}")
        assert got.kind == SAT
        names = {v.name: v.kind for v in ex.var_counts(e)
                 if v.kind != ex.RANDOM}
        s1 = {n: got.model[("p_" if kind == ex.PUBLIC else "k_") + n]
              for n, kind in names.items()}
        s2 = {n: got.model[("p_" if kind == ex.PUBLIC else "kk_") + n]
              for n, kind in names.items()}
        # the assertion: count1[c] - count2[c] > delta
        assert replayed_gap(e, D2, (s1, s2, got.model["c"])) > query.delta

    @pytest.mark.parametrize("e, q, profile", [
        (X3_N2, 1, "bv"),
        (X3_N2, Fraction(1, 2), "bv"),
        (X3_N2, Fraction(1, 2), "int"),
        (binop("|", binop("&", K, R0), P), Fraction(3, 4), "bv"),
    ])
    def test_stdin_answers_as_the_file(self, tmp_path, e, q, profile):
        query = encode_psi(e, q, D2, profile)
        path = tmp_path / "query.smt2"
        path.write_text(query.text)
        by_file = subprocess.run(
            [sys.executable, str(FRAGMENT_SOLVER), str(path)],
            capture_output=True, text=True, check=True).stdout
        by_stdin = subprocess.run(
            [sys.executable, str(FRAGMENT_SOLVER)], input=query.text,
            capture_output=True, text=True, check=True).stdout
        assert by_stdin == by_file
        assert by_file.splitlines()[0] == "sat"

    def test_pop_drops_what_its_scope_declared(self):
        script = """(push 1)
(declare-fun a () (_ BitVec 2))
(define-fun b () (_ BitVec 2) (bvadd a #b01))
(assert (= b #b00))
(check-sat)
(get-value (a))
(pop 1)
(echo "between")
(declare-fun a () (_ BitVec 3))
(assert (= a #b111))
(check-sat)
(get-value (a))
(get-value (b))
"""
        got = subprocess.run(
            [sys.executable, str(FRAGMENT_SOLVER)], input=script,
            capture_output=True, text=True)
        # the second a is three bits wide; b went with its scope
        assert got.stdout.splitlines() == [
            "sat", "((a #b11))", "between", "sat", "((a #b111))"]
        assert "atom b" in got.stderr

    def test_too_wide_scope_answers_unknown_until_its_pop(self):
        wide = "".join(f"(declare-fun w{i} () (_ BitVec 8))\n"
                       for i in range(3))
        script = (f"(push 1)\n{wide}(assert (= w0 w1))\n(check-sat)\n"
                  "(pop 1)\n(declare-fun a () (_ BitVec 2))\n"
                  "(assert (= a #b10))\n(check-sat)\n(exit)\n"
                  "(check-sat)\n")
        got = subprocess.run(
            [sys.executable, str(FRAGMENT_SOLVER)], input=script,
            capture_output=True, text=True, check=True)
        assert got.stdout.splitlines() == ["unknown", "sat"]


class TestSolverSession:
    def test_one_process_for_many_prefixes(self, tmp_path):
        cmd, log = logged_solver(tmp_path)
        with SolverSession(cmd) as session:
            for e in (X3_N2, binop("&", K, R0), X3_N2):
                prefix = encode_psi(e, 1, D2).prefix
                for q in (1, Fraction(1, 2), Fraction(1, 4), 0):
                    got = check_sat(encode_psi(e, q, D2, prefix=prefix),
                                    session)
                    fresh = check_sat(encode_psi(e, q, D2), cmd)
                    assert (got.kind, got.model) == \
                        (fresh.kind, fresh.model), (ex.pretty(e), q)
        # one start per one-shot check_sat, and one for the session
        assert len(starts(log)) == 3 * 4 + 1

    def test_a_process_that_exits_is_started_again(self, tmp_path):
        # each start logs the first lines it reads: the prefix comes again
        log = tmp_path / "starts.log"
        cmd = stub_solver(tmp_path, "once.sh",
                          f"echo start >> {log}\nhead -n 4 >> {log}\n"
                          "echo sat")
        query = encode_psi(X3_N2, 1, D2)
        with SolverSession(cmd) as session:
            for _ in range(2):
                assert check_sat(query, session).kind == SAT
        starts = log.read_text().split("start\n")[1:]
        assert len(starts) == 2
        assert starts[0] == starts[1]
        assert starts[0].splitlines()[2:] == [
            "(push 1)", query.prefix.shared.splitlines()[0]]

    def test_a_process_that_exits_after_its_answer_is_asked_again(
            self, tmp_path):
        # the first process answers one question, closes stdout and
        # lingers, so it still looks alive at the second; later ones are
        # the fragment solver
        started = tmp_path / "started"
        cmd = stub_solver(
            tmp_path, "lingers.sh",
            f"if [ -e {started} ]; then echo again >> {started}; "
            f"exec {sys.executable} {FRAGMENT_SOLVER}; fi\n"
            f"echo first > {started}\n"
            "while read -r line; do\n"
            "  case \"$line\" in '(echo'*) break;; esac\ndone\n"
            f"echo sat\necho '\"{SENTINEL.decode()}\"'\n"
            "exec >&-\nsleep 0.5")
        first = encode_psi(X3_N2, 1, D2)
        with SolverSession(cmd) as session:
            assert check_sat(first, session).kind == SAT
            # gap 3 of 4: "G > 3?" is unsat, which the stub never says
            got = check_sat(encode_psi(X3_N2, Fraction(1, 4), D2,
                                       prefix=first.prefix), session)
        assert got.kind == UNSAT, got.reason
        assert started.read_text().split() == ["first", "again"]

    def test_a_new_logic_starts_a_new_process(self, tmp_path):
        cmd, log = logged_solver(tmp_path)
        with SolverSession(cmd) as session:
            for profile in ("bv", "int", "int"):
                query = encode_psi(X3_N2, Fraction(1, 2), D2, profile)
                assert check_sat(query, session).kind == SAT
        assert len(starts(log)) == 2


class TestQmsSmt:
    def test_matches_exact_counting(self, solver_cmd):
        for e in (X3_N2, binop("&", K, R0), binop("^", K, R0),
                  binop("|", binop("&", K, R0), P)):
            got = qms_smt(e, D2, solver_cmd)
            assert got.fraction == qms_exact(e, D2).fraction, ex.pretty(e)
            if got.num == got.den:
                assert got.witness is None
            else:
                assert replayed_gap(e, D2, got.witness) == got.den - got.num

    def test_frozen_values_and_query_counts(self, solver_cmd):
        stats = {}
        got = qms_smt(X3_N2, D2, solver_cmd, stats=stats)
        assert (got.num, got.den) == (1, 4)
        assert stats == {"queries": 2, "m": 2}

    def test_independent_needs_one_query(self, solver_cmd):
        # the verdict question "gap > 0?" is unsat: nothing left to search
        stats = {}
        got = qms_smt(binop("^", K, R0), D2, solver_cmd, stats=stats)
        assert (got.num, got.den, got.witness) == (4, 4, None)
        assert stats == {"queries": 1, "m": 2}

    def test_two_randoms(self, solver_cmd):
        stats = {}
        e = binop("^", binop("&", R1, K), R0)
        got = qms_smt(e, D2, solver_cmd, stats=stats)
        assert (got.num, got.den) == (16, 16)
        assert stats["queries"] <= stats["m"] + 1 == 5

    def test_int_profile_agrees(self, solver_cmd):
        got = qms_smt(X3_N2, D2, solver_cmd, profile="int")
        assert (got.num, got.den) == (1, 4)

    def test_emit_dir(self, solver_cmd, tmp_path):
        out = tmp_path / "queries"
        qms_smt(X3_N2, D2, solver_cmd, emit_dir=out, var_name="x3")
        names = sorted(p.name for p in out.iterdir())
        assert names == ["x3_q1_1.smt2", "x3_q1_4.smt2"]
        for q, name in ((1, "x3_q1_1.smt2"), (Fraction(1, 4), "x3_q1_4.smt2")):
            assert (out / name).read_text() == encode_psi(X3_N2, q, D2).text

    def test_always_sat_pins_zero(self, tmp_path):
        cmd = stub_solver(tmp_path, "yes.sh", "echo sat")
        got = qms_smt(binop("&", K, R0), D2, cmd)
        assert (got.num, got.den) == (0, 4)

    def test_always_unsat_pins_one(self, tmp_path):
        cmd = stub_solver(tmp_path, "no.sh", "echo unsat")
        got = qms_smt(binop("&", K, R0), D2, cmd)
        assert (got.num, got.den) == (4, 4)

    @pytest.mark.parametrize("model", [
        "((k_k #b01) (kk_k #b01) (c #b00))",    # equal fixings: no gap
        "((c #b00))",                           # no fixings at all
    ])
    def test_model_that_does_not_replay_raises(self, tmp_path, model):
        cmd = stub_solver(tmp_path, "liar.sh", f"echo sat\necho '{model}'")
        with pytest.raises(InconclusiveSolver,
                           match="^model does not realise the gap$"):
            qms_smt(binop("&", K, R0), D2, cmd)

    def test_unknown_raises(self, tmp_path):
        cmd = stub_solver(tmp_path, "confused.sh", "echo flurble")
        with pytest.raises(InconclusiveSolver, match="flurble"):
            qms_smt(binop("&", K, R0), D2, cmd)

    def test_exhausted_deadline_raises(self, solver_cmd):
        with pytest.raises(InconclusiveSolver, match="deadline"):
            qms_smt(X3_N2, D2, solver_cmd,
                    deadline=time.monotonic() - 1.0)

    def test_no_randoms_is_immediate(self, tmp_path):
        # m = 0: the interval [0, 1] needs a single query
        cmd = stub_solver(tmp_path, "yes.sh", "echo sat")
        stats = {}
        got = qms_smt(K, D2, cmd, stats=stats)
        assert (got.num, got.den) == (0, 1)
        assert stats == {"queries": 1, "m": 0}
        assert isinstance(got, Qms)
