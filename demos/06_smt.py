"""Shipping the counting question to an SMT solver.

Exhaustive enumeration dies at 2^(bits * #randoms). The alternative:
encode "more than delta of 2^m random assignments hit value c under
sigma1 but not sigma2" as a bit-vector formula with one variable copy
per random assignment, and search the threshold over dyadic rationals.
The first step is the verdict question "is the strength below 1?".
Each sat answer's model (sigma1, sigma2, c) is replayed by exact
counting, and the gap it realises raises the lower end of the search,
so at most m+1 answers pin the strength exactly, often fewer, and the
replayed model comes back as the witness. The whole search runs in one
solver process: the copies go once, then only each step's threshold.
"""

import os
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from maskcheck import encode_psi, make_domain, pretty, qms_exact, qms_smt
from maskcheck.expr import binop, var


def find_solver():
    """A command that answers SMT-LIB2 on stdin: MASKCHECK_SOLVER,
    `z3 -in`, or the bundled fragment checker."""
    env = os.environ.get("MASKCHECK_SOLVER")
    if env:
        return env
    found = shutil.which("z3")
    if found:
        return f"{found} -in"
    bundled = Path(__file__).resolve().parents[1] / "tests" / "fragment_solver.py"
    if bundled.exists():
        return f"{sys.executable} {bundled}"
    return None


d = make_domain(2)
k = var("k", "secret")
r0 = var("r0", "random")
e = binop("@", binop("@", r0, r0), binop("^", k, r0))
print(f"e = {pretty(e)} over {d}")

# The query for threshold q = 1/2. Secrets appear twice (primed and
# unprimed side), randoms appear once per copy, and the count gap is a
# popcount comparison over indicator bits.
query = encode_psi(e, Fraction(1, 2), d)
print(f"copies per side = {1 << query.m}, delta = {query.delta} "
      f"({len(query.text.splitlines())} lines of SMT-LIB)")
print("\n".join(query.text.splitlines()[:7]))
print("  ...")

# Only the final assert depends on q. Given the query's prefix, the
# next threshold renders just its tail, which a solver session sends
# after the copies it already holds.
tail = encode_psi(e, Fraction(1, 4), d, query.prefix)
print(f"q = 1/4 after the prefix: {len(tail.text)} bytes, not "
      f"{len(query.text)}")
print(tail.text, end="")

solver = find_solver()
if solver is None:
    print("no solver found (set MASKCHECK_SOLVER); skipping the live search")
    raise SystemExit(0)

print(f"\nsolver: {solver}")
with tempfile.TemporaryDirectory() as tmp:
    stats = {}
    got = qms_smt(e, d, solver, emit_dir=tmp, var_name="e", stats=stats)
    want = qms_exact(e, d)
    print(f"model-guided search: QMS = {got.num}/{got.den} "
          f"in {stats['queries']} queries (at most m+1 = {stats['m'] + 1})")
    print(f"exact counting agrees: {got.fraction == want.fraction}")
    if got.witness is not None:  # None only from a solver without models
        s1, s2, c = got.witness
        print(f"replayed witness: value {c} under {s1} versus {s2}")
    print("emitted queries:")
    for name in sorted(os.listdir(tmp)):
        print(f"  {name}")
