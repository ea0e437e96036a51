"""End-to-end command-line behavior: exit codes, text and JSON output."""

import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import maskcheck
from maskcheck import cli, counting, report_from_dict
from maskcheck.cli import build_parser, corpus_dir, main, run

CUBE = str(corpus_dir() / "cube.mv")
CUBE_FIXED = str(corpus_dir() / "cube_fixed.mv")
SECMULT = str(corpus_dir() / "secmult.mv")

TWIST = """
fn Twist(k: secret, r0: random) {
  u = r0 ^ ((r0 << 1) & k);
  return u;
}
"""

WIDE = """
fn Wide(k: secret, r0: random, r1: random, r2: random) {
  a = k & r0;
  y = a ^ (r1 & r2);
  return y;
}
"""

# y is counted over 2^8 secret rows by 2^16 random columns: 2^24 cells,
# more than one block, so a counting call with jobs > 1 starts its pool
BLOCKS = """
fn Blocks(k: secret, r0: random, r1: random) {
  y = (k & r0) ^ (r0 & r1);
  return y;
}
"""


@pytest.fixture
def twist_file(tmp_path):
    path = tmp_path / "twist.mv"
    path.write_text(TWIST)
    return str(path)


class TestCheckExitCodes:
    def test_leaky(self, capsys):
        assert run(["check", CUBE]) == 1

    def test_masked(self, capsys):
        assert run(["check", SECMULT]) == 0
        assert run(["check", CUBE_FIXED]) == 0

    def test_type_only_inconclusive(self, capsys):
        assert run(["check", CUBE, "--engine", "type-only"]) == 3

    def test_type_only_on_fully_typed_program(self, capsys):
        assert run(["check", SECMULT, "--engine", "type-only"]) == 0

    def test_qms_with_type_only_is_usage_error(self, capsys):
        assert run(["check", CUBE, "--engine", "type-only", "--qms"]) == 2
        assert "counting engine" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert run(["check", "/no/such/file.mv"]) == 2
        err = capsys.readouterr().err
        assert "FileNotFoundError" in err

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.mv"
        bad.write_text("fn Broken(k: secret) { x = k ^^ k; return x; }")
        assert run(["check", str(bad)]) == 2
        assert "ParseError" in capsys.readouterr().err

    def test_bad_bits(self, capsys):
        assert run(["check", CUBE, "--bits", "99"]) == 2
        assert "BadDegree" in capsys.readouterr().err

    def test_reducible_poly(self, capsys):
        assert run(["check", CUBE, "--poly", "0x11c"]) == 2
        assert "ReduciblePolynomial" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_missing_subcommand(self, capsys):
        assert run([]) == 2

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0

    def test_main_wrapper(self, capsys):
        assert main(["check", SECMULT]) == 0

    def test_internal_error_is_not_leaky(self, monkeypatch, capsys):
        def broken(p, cfg):
            raise RuntimeError("boom")
        monkeypatch.setattr(cli, "pm_check", broken)
        assert run(["check", CUBE]) == 2
        assert "RuntimeError: boom" in capsys.readouterr().err
        assert run(["corpus", "--format", "json"]) == 3
        docs = json.loads(capsys.readouterr().out)
        assert {d["error"] for d in docs} == {"RuntimeError: boom"}

    def test_python_dash_m(self):
        env = dict(os.environ,
                   PYTHONPATH=str(Path(maskcheck.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "maskcheck", "check", CUBE],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 1
        assert proc.stdout.startswith("Cube: 8-bit field, poly 0x11d\n")
        assert "  x2   SDD   counting-bruteforce" in proc.stdout
        assert proc.stdout.endswith("perfectly masked: no\n")


class TestCheckTextOutput:
    def test_header_and_verdicts(self, capsys):
        run(["check", CUBE])
        out = capsys.readouterr().out
        assert out.startswith("Cube: 8-bit field, poly 0x11d\n")
        assert "perfectly masked: no" in out
        assert "summary: 11 internal, 2 leaky, 2 decided by counting, " \
            "0 unknown" in out
        x2_row = next(line for line in out.splitlines()
                      if line.strip().startswith("x2"))
        assert "SDD" in x2_row
        assert "counting-bruteforce" in x2_row
        assert "k=0 | k=1" in x2_row

    def test_qms_column(self, capsys):
        run(["check", CUBE, "--qms"])
        out = capsys.readouterr().out
        assert "program QMS: 253/256 (0.988)" in out
        x2_row = next(line for line in out.splitlines()
                      if line.strip().startswith("x2"))
        assert "253/256" in x2_row
        assert "k=0 | k=1 | c=1" in x2_row

    def test_masked_summary(self, capsys):
        run(["check", SECMULT, "--qms"])
        out = capsys.readouterr().out
        assert "perfectly masked: yes" in out
        assert "program QMS: " in out

    def test_type_only_notes(self, capsys):
        run(["check", CUBE, "--engine", "type-only"])
        out = capsys.readouterr().out
        assert "note [x2]: potentially leaky: counting disabled" in out
        assert "note [x3]: potentially leaky: counting disabled" in out
        assert "note [x6]: potentially leaky: counting disabled" in out

    def test_timings_line(self, capsys):
        run(["check", SECMULT, "--timings"])
        assert "elapsed: " in capsys.readouterr().out
        run(["check", SECMULT])
        assert "elapsed: " not in capsys.readouterr().out

    def test_custom_poly_in_header(self, capsys):
        run(["check", CUBE, "--poly", "0x11b"])
        assert "poly 0x11b" in capsys.readouterr().out


class TestCheckJson:
    def test_document(self, capsys):
        assert run(["check", CUBE, "--qms", "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 1
        assert doc["program"] == "Cube"
        assert doc["perfectly_masked"] is False
        assert doc["program_qms"] == {"num": 253, "den": 256}
        assert doc["timings"] is None
        assert len(doc["variables"]) == 11
        report = report_from_dict(doc)
        assert not report.perfectly_masked

    def test_timings_requested(self, capsys):
        run(["check", SECMULT, "--format", "json", "--timings"])
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["timings"]["variables"]) == {
            "a0", "b0", "t0", "t1", "t2", "t3", "s1", "s2", "c0", "c1"}

    def test_deterministic_without_timings(self, capsys):
        run(["check", CUBE, "--format", "json", "--qms"])
        first = capsys.readouterr().out
        run(["check", CUBE, "--format", "json", "--qms"])
        assert capsys.readouterr().out == first

    def test_smt_engine(self, capsys, solver_cmd):
        code = run(["check", CUBE, "--bits", "2", "--engine", "smt",
                    "--solver", solver_cmd, "--format", "json"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        methods = {v["name"]: v["method"] for v in doc["variables"]}
        assert methods["x2"] == "counting-smt"

    def test_budget_inconclusive(self, capsys):
        code = run(["check", CUBE, "--budget", "100", "--format", "json"])
        assert code == 3
        doc = json.loads(capsys.readouterr().out)
        x2 = next(v for v in doc["variables"] if v["name"] == "x2")
        assert x2["type"] == "UKD"
        assert x2["note"].startswith("BudgetExceeded: ")


class TestEngineFlags:
    def test_emit_smt(self, tmp_path, capsys):
        out = tmp_path / "queries"
        run(["check", CUBE, "--emit-smt", str(out)])
        names = sorted(p.name for p in out.iterdir())
        assert names == ["x2_q1_1.smt2", "x3_q1_1.smt2"]
        text = (out / "x2_q1_1.smt2").read_text()
        assert text.startswith("; masking-strength query")

    def test_meta_theorems_change_the_method(self, twist_file, tmp_path,
                                             capsys):
        run(["check", twist_file, "--format", "json"])
        before = json.loads(capsys.readouterr().out)
        rules = tmp_path / "rules.meta"
        rules.write_text("r ^ ((r << 1) & e) => r\n")
        run(["check", twist_file, "--format", "json",
             "--meta-theorems", str(rules)])
        after = json.loads(capsys.readouterr().out)
        u_before = next(v for v in before["variables"] if v["name"] == "u")
        u_after = next(v for v in after["variables"] if v["name"] == "u")
        assert u_before["method"] == "counting-bruteforce"
        assert u_before["type"] == "SID"
        # the rewrite collapses u to its masking random: uniform by rule
        assert u_after["method"] == "reduced-type-rule"
        assert u_after["type"] == "RUD"

    def test_bad_meta_file(self, tmp_path, capsys):
        rules = tmp_path / "rules.meta"
        rules.write_text("no arrow here\n")
        assert run(["check", CUBE, "--meta-theorems", str(rules)]) == 2
        assert "ValueError" in capsys.readouterr().err

    def test_missing_meta_file(self, capsys):
        assert run(["check", CUBE, "--meta-theorems", "/no/such.meta"]) == 2

    def test_smt_engine_survives_a_wide_variable(self, tmp_path, capsys,
                                                 solver_cmd):
        path = tmp_path / "wide.mv"
        path.write_text(WIDE)
        code = run(["check", str(path), "--engine", "smt", "--solver",
                    solver_cmd, "--format", "json"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        by_name = {v["name"]: v for v in doc["variables"]}
        assert by_name["a"]["type"] == "SDD"
        assert by_name["y"]["method"] == "inconclusive"
        assert by_name["y"]["note"].startswith("solver fallback: ")

    def test_zero_timeout_disables_deadline(self, capsys):
        assert run(["check", SECMULT, "--timeout", "0"]) == 0

    def test_parser_defaults(self):
        ns = build_parser().parse_args(["check", "f.mv"])
        assert ns.bits == 8
        assert ns.engine == "bruteforce"
        assert ns.jobs == 1
        assert ns.format == "text"
        assert ns.smt_profile == "bv"
        assert ns.timeout == 60.0


class TestCorpus:
    def test_bundled_default(self, capsys):
        assert run(["corpus"]) == 1
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].split() == ["file", "|X_i|", "#SDD", "#Count", "time"]
        names = [line.split()[0] for line in lines[1:]]
        assert names == ["cube.mv", "cube_fixed.mv", "secmult.mv"]
        cube_row = lines[1].split()
        assert cube_row[1:4] == ["11", "2", "2"]

    def test_explicit_directory(self, capsys):
        assert run(["corpus", str(corpus_dir())]) == 1

    def test_not_a_directory(self, capsys):
        assert run(["corpus", "/no/such/dir"]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_empty_directory(self, tmp_path, capsys):
        assert run(["corpus", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1  # header only

    def test_error_rows_do_not_abort(self, tmp_path, capsys):
        shutil.copy(SECMULT, tmp_path / "good.mv")
        (tmp_path / "broken.mv").write_text("fn Nope(k: secret) {")
        assert run(["corpus", str(tmp_path)]) == 3
        out = capsys.readouterr().out
        broken_row = next(line for line in out.splitlines()
                          if line.startswith("broken.mv"))
        assert "ERROR ParseError" in broken_row

    def test_leaky_beats_error_severity(self, tmp_path, capsys):
        shutil.copy(CUBE, tmp_path / "cube.mv")
        (tmp_path / "broken.mv").write_text("fn Nope(k: secret) {")
        assert run(["corpus", str(tmp_path)]) == 1

    def test_json_documents(self, tmp_path, capsys):
        shutil.copy(SECMULT, tmp_path / "good.mv")
        (tmp_path / "broken.mv").write_text("fn Nope(k: secret) {")
        assert run(["corpus", str(tmp_path), "--format", "json"]) == 3
        docs = json.loads(capsys.readouterr().out)
        assert [d["file"] for d in docs] == ["broken.mv", "good.mv"]
        assert "error" in docs[0] and "report" not in docs[0]
        assert docs[1]["report"]["perfectly_masked"] is True

    def test_json_empty_directory(self, tmp_path, capsys):
        assert run(["corpus", str(tmp_path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == []

    @pytest.mark.parametrize("bits", ["8", "2"])
    def test_qms_json_matches_golden(self, bits, capsys):
        # every counted verdict, QMS and witness of the bundled corpus
        assert run(["corpus", str(corpus_dir()), "--qms", "--format",
                    "json", "--bits", bits]) == 1
        golden = Path(__file__).parent / "golden" / f"corpus_qms_{bits}.json"
        assert capsys.readouterr().out.encode() == golden.read_bytes()

    def test_jobs_do_not_change_json_bytes(self, capsys):
        run(["corpus", "--format", "json", "--jobs", "1"])
        serial = capsys.readouterr().out
        run(["corpus", "--format", "json", "--jobs", "8"])
        assert capsys.readouterr().out == serial

    def test_jobs_bound_the_worker_threads(self, tmp_path, monkeypatch,
                                           capsys):
        for name in ("a.mv", "b.mv"):
            (tmp_path / name).write_text(BLOCKS)
        jobs = 2
        base = threading.active_count()
        peak = []
        evaluate = counting.ex.eval_vec

        def spy(*args, **kwargs):
            peak.append(threading.active_count())
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(counting.ex, "eval_vec", spy)
        assert run(["corpus", str(tmp_path), "--jobs", str(jobs)]) == 1
        assert peak and max(peak) <= base + jobs

    def test_qms_flows_into_corpus_reports(self, capsys):
        run(["corpus", "--format", "json", "--qms"])
        docs = json.loads(capsys.readouterr().out)
        cube = next(d for d in docs if d["file"] == "cube.mv")
        assert cube["report"]["program_qms"] == {"num": 253, "den": 256}

    def test_qms_with_type_only_is_usage_error(self, capsys):
        assert run(["corpus", "--engine", "type-only", "--qms"]) == 2
