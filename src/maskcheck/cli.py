"""Command-line front-end.

Two subcommands:

* ``check FILE`` verifies a single program and prints a report.
* ``corpus [DIR]`` sweeps every .mv file in a directory (the bundled
  corpus by default), one file at a time, and prints one summary row
  per program.

``--jobs N`` means the same in both: N worker threads for each
counting call that spans more than one block. Under the smt engine a
program's questions go one after another to its one solver process,
so the threads reach only a solver fallback's enumeration; under
type-only they reach nothing.

``--solver CMD`` names a solver that reads SMT-LIB2 commands on stdin
and answers each one as it arrives, e.g. ``z3 -in``. Each program
starts at most one process of it, at its first question.

Exit codes: 0 perfectly masked, 1 at least one leaky variable,
2 usage, parse or internal error, 3 inconclusive (unknown verdicts
remain but nothing was proven leaky).
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from .counting import DEFAULT_BUDGET
from .domain import make_domain
from .infer import SDD, UKD
from .program import parse
from .reduction import BUILTIN_META, load_meta_patterns
from .verify import (
    ENGINES,
    EngineConfig,
    Report,
    pm_check,
    qms_compute,
    report_to_dict,
    report_to_json,
)


def corpus_dir() -> Path:
    """Directory holding the bundled example programs."""
    return Path(resources.files("maskcheck") / "corpus")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maskcheck",
        description="verify masked programs against first-order "
                    "power side channels")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--bits", type=int, default=8,
                       help="field width in bits (default 8)")
        p.add_argument("--poly", type=lambda s: int(s, 0), default=None,
                       help="reduction polynomial, e.g. 0x11d")
        p.add_argument("--engine", choices=ENGINES, default="bruteforce")
        p.add_argument("--qms", action="store_true",
                       help="also compute masking strength per variable")
        p.add_argument("--solver", metavar="CMD", default=None,
                       help="SMT solver command that answers SMT-LIB2 "
                            "commands on stdin, e.g. 'z3 -in' (smt engine)")
        p.add_argument("--emit-smt", metavar="DIR", default=None,
                       help="write generated solver scripts here")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker threads for each counting call")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="max expression evaluations per variable")
        p.add_argument("--timeout", type=float, default=60.0,
                       help="per-variable seconds, 0 disables (default 60)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--meta-theorems", metavar="FILE", default=None,
                       help="extra rewrite rules, one `lhs => rhs` per line")
        p.add_argument("--timings", action="store_true",
                       help="include wall-clock times in the output")

    p_check = sub.add_parser("check", help="verify one program file")
    p_check.add_argument("file")
    common(p_check)

    p_corpus = sub.add_parser("corpus", help="verify a directory of programs")
    p_corpus.add_argument("dir", nargs="?", default=None)
    common(p_corpus)
    return parser


def _engine_config(args) -> EngineConfig:
    domain = make_domain(args.bits, args.poly)
    patterns = None
    if args.meta_theorems is not None:
        patterns = list(BUILTIN_META) + load_meta_patterns(args.meta_theorems)
    return EngineConfig(
        domain=domain,
        engine=args.engine,
        budget=args.budget,
        jobs=args.jobs,
        solver_cmd=args.solver,
        var_timeout=args.timeout if args.timeout > 0 else None,
        meta_patterns=patterns,
        emit_smt_dir=args.emit_smt,
    )


def exit_code(report: Report) -> int:
    if any(v.dist is SDD for v in report.verdicts):
        return 1
    if any(v.dist is UKD for v in report.verdicts):
        return 3
    return 0


def _fmt_sigma(sigma: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(sigma.items()))


def _fmt_witness(witness) -> str:
    if witness is None:
        return "-"
    if len(witness) == 3:
        s1, s2, c = witness
        return f"{_fmt_sigma(s1)} | {_fmt_sigma(s2)} | c={c}"
    return f"{_fmt_sigma(witness[0])} | {_fmt_sigma(witness[1])}"


def _render_text(report: Report, timings: bool) -> str:
    lines = [f"{report.program}: {report.bits}-bit field, "
             f"poly {hex(report.poly)}"]
    rows = [("var", "type", "method", "qms", "witness")]
    for v in report.verdicts:
        qms = "-"
        if v.qms is not None:
            qms = f"{v.qms.num}/{v.qms.den}"
        rows.append((v.name, v.dist.value, v.method, qms,
                     _fmt_witness(v.witness)))
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    for row in rows:
        cells = [row[i].ljust(widths[i]) for i in range(4)] + [row[4]]
        lines.append("  " + "  ".join(cells).rstrip())
    t = report.totals
    lines.append(f"summary: {t['internal']} internal, {t['sdd']} leaky, "
                 f"{t['counted']} decided by counting, "
                 f"{t['unknown']} unknown")
    if report.program_qms is not None:
        q = report.program_qms
        lines.append(f"program QMS: {q.num}/{q.den} ({float(q):.3f})")
    lines.append("perfectly masked: "
                 + ("yes" if report.perfectly_masked else "no"))
    for v in report.verdicts:
        if v.note:
            lines.append(f"note [{v.name}]: {v.note}")
    if timings:
        lines.append(f"elapsed: {report.elapsed:.3f}s")
    return "\n".join(lines) + "\n"


def _run_file(path: Path, args) -> tuple[Report | None, str | None]:
    """(report, None) on success, (None, message) on error."""
    try:
        program = parse(path.read_text())
        cfg = _engine_config(args)
        if args.qms:
            report = qms_compute(program, cfg)
        else:
            report = pm_check(program, cfg)
        return report, None
    except Exception as err:
        # any failure, expected or not, must not read as exit 1 ("leaky")
        return None, f"{type(err).__name__}: {err}"


def cmd_check(args) -> int:
    if args.qms and args.engine == "type-only":
        print("maskcheck: --qms needs a counting engine", file=sys.stderr)
        return 2
    path = Path(args.file)
    report, error = _run_file(path, args)
    if report is None:
        print(f"maskcheck: {path}: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        sys.stdout.write(report_to_json(report, args.timings))
    else:
        sys.stdout.write(_render_text(report, args.timings))
    return exit_code(report)


def _corpus_row(report: Report | None, error: str | None, name: str):
    if report is None:
        return (name, "-", "-", "-", "-", f"ERROR {error}")
    t = report.totals
    return (name, str(t["internal"]), str(t["sdd"]), str(t["counted"]),
            f"{report.elapsed:.2f}", "")


def cmd_corpus(args) -> int:
    if args.qms and args.engine == "type-only":
        print("maskcheck: --qms needs a counting engine", file=sys.stderr)
        return 2
    directory = corpus_dir() if args.dir is None else Path(args.dir)
    if not directory.is_dir():
        print(f"maskcheck: not a directory: {directory}", file=sys.stderr)
        return 2
    worst = 0
    severity = {0: 0, 3: 1, 1: 2}
    docs = []
    rows = [("file", "|X_i|", "#SDD", "#Count", "time", "")]
    for path in sorted(directory.glob("*.mv")):
        report, error = _run_file(path, args)
        if report is None:
            docs.append({"file": path.name, "error": error})
            code = 3
        else:
            docs.append({"file": path.name,
                         "report": report_to_dict(report, args.timings)})
            code = exit_code(report)
        if severity[code] > severity[worst]:
            worst = code
        rows.append(_corpus_row(report, error, path.name))

    if args.format == "json":
        sys.stdout.write(json.dumps(docs, indent=2) + "\n")
        return worst
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    for row in rows:
        cells = [row[i].ljust(widths[i]) for i in range(5)] + [row[5]]
        print(("  ".join(cells)).rstrip())
    return worst


def run(args: list[str]) -> int:
    """Parse arguments and execute; returns the process exit code."""
    parser = build_parser()
    try:
        ns = parser.parse_args(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    if ns.command == "check":
        return cmd_check(ns)
    return cmd_corpus(ns)


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else list(argv))
