import functools
import os
import shutil
import stat
import sys
from collections import Counter
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).resolve().parent
FRAGMENT_SOLVER = TESTS_DIR / "fragment_solver.py"


def find_solver() -> str | None:
    """Solver command for SMT round-trips, or None if nothing usable.

    Preference order: MASKCHECK_SOLVER from the environment, `z3 -in`
    when z3 is on PATH, then the bundled brute-force fragment checker.
    The command must answer SMT-LIB2 commands on stdin; no other binary
    is looked for, since its stdin flag cannot be checked without it.
    """
    env = os.environ.get("MASKCHECK_SOLVER")
    if env:
        return env
    found = shutil.which("z3")
    if found:
        return f"{found} -in"
    if FRAGMENT_SOLVER.exists():
        return f"{sys.executable} {FRAGMENT_SOLVER}"
    return None


@pytest.fixture(scope="session")
def solver_cmd() -> str:
    cmd = find_solver()
    if cmd is None:
        pytest.skip("no SMT solver available (set MASKCHECK_SOLVER)")
    return cmd


# Goubin's Boolean-to-arithmetic conversion (CHES 2001): at 8 bits its
# last variable is 2^8 secret rows by 2^16 random columns, two borrows
GOUBIN = """fn Goubin(x: secret, r: random, g: random) {
  xm = x ^ r; t0 = xm ^ g; t1 = t0 - g; t2 = t1 ^ xm;
  g1 = g ^ r; a0 = xm ^ g1; a1 = a0 - g1; a = a1 ^ t2;
  return a;
}"""


def replayed_gap(e, d, witness) -> int:
    """count1[c] - count2[c] of a (sigma1, sigma2, c) witness for e, by
    exact counting; the two fixings must agree on e's publics."""
    from maskcheck import distribution
    from maskcheck import expr as ex

    s1, s2, c = witness
    assert all(s1[v.name] == s2[v.name]
               for v in var_counts(e) if v.kind == ex.PUBLIC)
    return int(distribution(e, s1, d).counts[c]
               - distribution(e, s2, d).counts[c])


def deep_chain(n: int, prefix: str = "") -> str:
    """v0 = k ^ r0, then v_i = v_{i-1} @ r1 (odd i) or v_{i-1} ^ r0,
    every name starting with prefix."""
    k, r0, r1, v = (prefix + name for name in ("k", "r0", "r1", "v"))
    lines = [f"fn Deep({k}: secret, {r0}: random, {r1}: random) {{",
             f"  {v}0 = {k} ^ {r0};"]
    for i in range(1, n + 1):
        step = f"@ {r1}" if i % 2 else f"^ {r0}"
        lines.append(f"  {v}{i} = {v}{i - 1} {step};")
    lines += [f"  return {v}{n};", "}"]
    return "\n".join(lines)


# --- reference variable counts -------------------------------------------------
# Tree multiplicity, by definition: the tests check maskcheck's variable
# bitmasks and reduction's side conditions against these.

@functools.cache
def var_counts(e) -> Counter:
    """Occurrences of each Var leaf of e, a shared subterm counted once
    per occurrence."""
    from maskcheck import expr as ex

    if isinstance(e, ex.Var):
        return Counter({e: 1})
    return sum(map(var_counts, ex.children(e)), Counter())


@functools.cache
def occurrences(e, t) -> int:
    """How many times subterm t occurs in the tree of e."""
    from maskcheck import expr as ex

    return 1 if e is t else sum(occurrences(c, t) for c in ex.children(e))


def stub_solver(tmp_path, name, body) -> str:
    """An executable shell script standing in for a solver binary."""
    path = tmp_path / name
    path.write_text(f"#!/bin/sh\n{body}\n")
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path)


def logged_solver(tmp_path) -> tuple[str, Path]:
    """(command, log): the fragment solver on stdin, logging the pid of
    each process started."""
    log = tmp_path / "starts.log"
    cmd = stub_solver(tmp_path, "logged.sh",
                      f"echo $$ >> {log}\n"
                      f"exec {sys.executable} {FRAGMENT_SOLVER}")
    return cmd, log


def starts(log) -> list[int]:
    """The pids a logged_solver log holds."""
    return [int(pid) for pid in log.read_text().split()] \
        if log.exists() else []
