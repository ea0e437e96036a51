import os
import shutil
import stat
import sys
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).resolve().parent
FRAGMENT_SOLVER = TESTS_DIR / "fragment_solver.py"


def find_solver() -> str | None:
    """Solver command for SMT round-trips, or None if nothing usable.

    Preference order: MASKCHECK_SOLVER from the environment, a real
    solver on PATH, then the bundled brute-force fragment checker.
    """
    env = os.environ.get("MASKCHECK_SOLVER")
    if env:
        return env
    for binary in ("z3", "cvc5", "bitwuzla", "boolector"):
        found = shutil.which(binary)
        if found:
            return found
    if FRAGMENT_SOLVER.exists():
        return f"{sys.executable} {FRAGMENT_SOLVER}"
    return None


@pytest.fixture(scope="session")
def solver_cmd() -> str:
    cmd = find_solver()
    if cmd is None:
        pytest.skip("no SMT solver available (set MASKCHECK_SOLVER)")
    return cmd


def replayed_gap(e, d, witness) -> int:
    """count1[c] - count2[c] of a (sigma1, sigma2, c) witness for e, by
    exact counting; the two fixings must agree on e's publics."""
    from maskcheck import distribution
    from maskcheck import expr as ex

    s1, s2, c = witness
    assert all(s1[v.name] == s2[v.name]
               for v in ex.var_counts(e) if v.kind == ex.PUBLIC)
    return int(distribution(e, s1, d).counts[c]
               - distribution(e, s2, d).counts[c])


def stub_solver(tmp_path, name, body) -> str:
    """An executable shell script standing in for a solver binary."""
    path = tmp_path / name
    path.write_text(f"#!/bin/sh\n{body}\n")
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path)
