"""Seeded input programs and the four benchmark workloads.

Every program is built here as a list of single-operator statements and
reaches maskcheck only as `.mv` text through `parse`. The same list is
what the independent reference in `reference.py` evaluates, so the two
never share a parser or an evaluator. Nothing is imported from the
repository's tests, so editing them cannot change the inputs.

The seed varies the inputs without changing how much work they ask
for: it swaps the operands of commutative operators and draws the
random straight-line programs. Random programs keep to two input words at
8 bits: with three words the number of 2^24-cell counting calls per
seed ranged from 0 to 7 and the workload time by a factor of 40, so
the 2^24-cell load comes from Goubin's conversion, whose cost does not
depend on the seed. Their secret enters masked, as `v0 = k ^ r0`, and
only v0 uses it.

`tainted()` is the one case that fails on the current code, on every
run and whatever the seed: maskcheck calls a perfectly masked product
leaky. Its expected errors are listed in the case, so the run counts it
as failed without calling the run incorrect, and stops counting it once
the fault is mended.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

# Modulus polynomials per word width; passed to maskcheck explicitly so
# that the reference multiplies in the same field.
POLYS = {2: 0b111, 3: 0b1011, 4: 0b10011, 8: 0x11D}

COMMUTATIVE = ("^", "&", "|", "+", "*", "@")
RANDOM_OPS = ("^", "^", "^", "+", "-", "&", "|", "*", "@", "@")


@dataclass(frozen=True)
class Prog:
    """A straight-line program: params are (name, kind) pairs; each
    statement is (target, op, a, b) with op in `^ & | + - * @ << >> ~`,
    operands naming an earlier variable or holding a decimal literal,
    and b None for `~`."""

    name: str
    params: tuple
    stmts: tuple

    def names(self, kind: str) -> list[str]:
        return [n for n, k in self.params if k == kind]

    def text(self, prefix: str = "") -> str:
        """The program as `.mv` source, every variable name prefixed."""

        def operand(x):
            return x if x[0].isdigit() else prefix + x

        decls = ", ".join(f"{prefix}{n}: {k}" for n, k in self.params)
        lines = [f"fn {self.name}({decls}) {{"]
        for target, op, a, b in self.stmts:
            if op == "~":
                rhs = f"~{operand(a)}"
            else:
                rhs = f"{operand(a)} {op} {operand(b)}"
            lines.append(f"  {prefix}{target} = {rhs};")
        lines.append(f"  return {prefix}{self.stmts[-1][0]};")
        lines.append("}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Case:
    """One operation of a workload: a program verified at one width.

    `leaks` holds known answers where they exist: the QMS of every leaky
    variable, every other variable being perfectly masked. None means
    the answers come from the exhaustive reference.
    """

    prog: Prog
    bits: int
    leaks: dict | None = None
    known_fault: tuple = ()     # errors a known fault produces today

    @property
    def poly(self) -> int:
        return POLYS[self.bits]


@dataclass(frozen=True)
class Workload:
    name: str
    engine: str
    qms: bool
    build: object = field(repr=False)     # rng -> list[Case]


class _Builder:
    """Collects statements, swapping commutative operands by the seed."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.stmts: list[tuple] = []

    def op(self, target, op, a, b=None):
        if op in COMMUTATIVE and self.rng.random() < 0.5:
            a, b = b, a
        self.stmts.append((target, op, a, b))
        return target


def _prog(name, params, builder) -> Prog:
    return Prog(name, tuple(params), tuple(builder.stmts))


# --- the bundled corpus, copied so that corpus edits leave inputs alone -------

def cube() -> Prog:
    """Masked cubing in GF(2^8) that reuses a share pair unrefreshed."""
    s = [("x", "^", "k", "r0"), ("x0", "@", "x", "x"),
         ("x1", "@", "r0", "r0"), ("x2", "@", "x0", "r0"),
         ("x3", "@", "x1", "x"), ("x4", "^", "r1", "x2"),
         ("x5", "^", "x4", "x3"), ("x6", "@", "x0", "x"),
         ("x7", "^", "x6", "r1"), ("x8", "@", "x1", "r0"),
         ("x9", "^", "x8", "x5")]
    return Prog("Cube", (("k", "secret"), ("r0", "random"),
                         ("r1", "random")), tuple(s))


def cube_fixed() -> Prog:
    """Cubing with the share pair refreshed by r2: perfectly masked."""
    s = [("x", "^", "k", "r0"), ("x0", "@", "x", "x"),
         ("x1", "@", "r0", "r0"), ("y0", "^", "x0", "r2"),
         ("y1", "^", "x1", "r2"), ("x2", "@", "y0", "r0"),
         ("x3", "@", "y1", "x"), ("x4", "^", "r1", "x2"),
         ("x5", "^", "x4", "x3"), ("x6", "@", "y0", "x"),
         ("x7", "^", "x6", "r1"), ("x8", "@", "y1", "r0"),
         ("x9", "^", "x8", "x5")]
    return Prog("CubeFixed", (("k", "secret"), ("r0", "random"),
                              ("r1", "random"), ("r2", "random")), tuple(s))


def secmult() -> Prog:
    """Two-share multiplication rerandomized by r: perfectly masked."""
    s = [("a0", "^", "a", "ra"), ("b0", "^", "b", "rb"),
         ("t0", "@", "a0", "b0"), ("t1", "@", "a0", "rb"),
         ("t2", "@", "ra", "b0"), ("t3", "@", "ra", "rb"),
         ("s1", "^", "r", "t1"), ("s2", "^", "s1", "t2"),
         ("c0", "^", "t0", "r"), ("c1", "^", "t3", "s2")]
    return Prog("SecMult", (("a", "secret"), ("b", "secret"),
                            ("ra", "random"), ("rb", "random"),
                            ("r", "random")), tuple(s))


CUBE8_LEAKS = {"x2": Fraction(253, 256), "x3": Fraction(253, 256)}


# --- generated families ---------------------------------------------------------

def goubin(rng: random.Random, tag: str = "") -> Prog:
    """Goubin's Boolean-to-arithmetic conversion (CHES 2001).

    From the share x' = x ^ r it computes A = x - r with one extra
    random G. Every intermediate is a function of two independent
    uniform words, so all are perfectly masked at any width.
    """
    b = _Builder(rng)
    b.op("xm", "^", "x", "r")
    b.op("t0", "^", "xm", "g")
    b.op("t1", "-", "t0", "g")
    b.op("t2", "^", "t1", "xm")
    b.op("g1", "^", "g", "r")
    b.op("a0", "^", "xm", "g1")
    b.op("a1", "-", "a0", "g1")
    b.op("a", "^", "a1", "t2")
    return _prog(f"Goubin{tag}", [("x", "secret"), ("r", "random"),
                                  ("g", "random")], b)


def deep_chain(n: int, rng: random.Random) -> Prog:
    """v0 = k ^ r0, then v_i = v_{i-1} @ r1 (odd i) or v_{i-1} ^ r0."""
    b = _Builder(rng)
    b.op("v0", "^", "k", "r0")
    for i in range(1, n + 1):
        if i % 2:
            b.op(f"v{i}", "@", f"v{i - 1}", "r1")
        else:
            b.op(f"v{i}", "^", f"v{i - 1}", "r0")
    return _prog(f"Deep{n}", [("k", "secret"), ("r0", "random"),
                              ("r1", "random")], b)


def isw(d: int, rng: random.Random) -> Prog:
    """ISW multiplication of order d on shares of secrets a and b.

    Shares: a_0 = a ^ ra1 ^ ... ^ rad and a_i = rai (likewise b). For
    i < j a fresh r_ij masks a_i b_j, and r_ji = (r_ij ^ a_i b_j) ^ a_j b_i;
    output share c_i accumulates a_i b_i with every r_ij in order of j.
    Perfectly masked at first order by construction.
    """
    params = [("a", "secret"), ("b", "secret")]
    params += [(f"ra{i}", "random") for i in range(1, d + 1)]
    params += [(f"rb{i}", "random") for i in range(1, d + 1)]
    params += [(f"r{i}_{j}", "random")
               for i in range(d + 1) for j in range(i + 1, d + 1)]
    b = _Builder(rng)
    shares = {}
    for side in ("a", "b"):
        prev = side
        for i in range(1, d + 1):
            prev = b.op(f"{side}0_{i}", "^", prev, f"r{side}{i}")
        shares[side] = [prev] + [f"r{side}{i}" for i in range(1, d + 1)]
    A, B = shares["a"], shares["b"]
    cross = {}
    for i in range(d + 1):
        for j in range(i + 1, d + 1):
            b.op(f"p{i}_{j}", "@", A[i], B[j])
            b.op(f"s{i}_{j}", "^", f"r{i}_{j}", f"p{i}_{j}")
            b.op(f"q{j}_{i}", "@", A[j], B[i])
            cross[(i, j)] = f"r{i}_{j}"
            cross[(j, i)] = b.op(f"s{j}_{i}", "^", f"s{i}_{j}", f"q{j}_{i}")
    for i in range(d + 1):
        cur = b.op(f"c{i}_0", "@", A[i], B[i])
        others = [j for j in range(d + 1) if j != i]
        for step, j in enumerate(others, 1):
            cur = b.op(f"c{i}_{step}", "^", cur, cross[(i, j)])
    return _prog(f"Isw{d}", params, b)


def random_program(rng: random.Random, idx: int, bits: int,
                   n_stmts: int = 8) -> Prog:
    """A random straight-line program over secret k, masked first by
    random r0."""
    b = _Builder(rng)
    b.op("v0", "^", "k", "r0")
    defined = ["r0", "v0"]
    for i in range(1, n_stmts):
        roll = rng.random()
        a = rng.choice(defined)
        if roll < 0.08:
            b.op(f"v{i}", "~", a)
        elif roll < 0.16:
            b.op(f"v{i}", rng.choice(("<<", ">>")), a,
                 str(rng.randrange(bits)))
        else:
            other = rng.choice(defined + [str(rng.randrange(1 << bits))])
            b.op(f"v{i}", rng.choice(RANDOM_OPS), a, other)
        defined.append(f"v{i}")
    return _prog(f"Rand{idx}", [("k", "secret"), ("r0", "random")], b)


# --- workloads -----------------------------------------------------------------

def tainted() -> Prog:
    """(k | 1) @ r0 is uniform, since k | 1 is never 0, yet the
    tainted-product rule types it SDD (and its QMS comes out 1)."""
    return Prog("Tainted", (("k", "secret"), ("r0", "random")),
                (("t", "|", "k", "1"), ("y", "@", "t", "r0")))


def _gadgets8(rng):
    cases = [Case(cube(), 8, CUBE8_LEAKS), Case(cube_fixed(), 8, {}),
             Case(secmult(), 8, {}),
             Case(tainted(), 8, known_fault=(
                 "Tainted/y at 8 bits: SDD but QMS is 1",))]
    cases += [Case(goubin(rng, str(i)), 8, {}) for i in range(3)]
    cases += [Case(random_program(rng, i, 8), 8) for i in range(12)]
    return cases


def _deep_chains4(rng):
    return [Case(deep_chain(n, rng), 4) for n in (50, 100, 200)]


def _isw_rules(rng):
    return [Case(isw(d, rng), 8, {}) for d in (16, 24, 32)]


def _smt_search(rng):
    return [Case(cube(), 2), Case(cube(), 3),
            Case(goubin(rng), 2, {}), Case(goubin(rng), 3, {}),
            Case(deep_chain(4, rng), 2)]


WORKLOADS = {
    w.name: w for w in (
        Workload("gadgets8", "bruteforce", True, _gadgets8),
        Workload("deep-chains4", "bruteforce", True, _deep_chains4),
        Workload("isw-rules", "bruteforce", False, _isw_rules),
        Workload("smt-search", "smt", True, _smt_search),
    )
}


def cases_for(workload: str, seed: int) -> list[Case]:
    return WORKLOADS[workload].build(random.Random(seed))
