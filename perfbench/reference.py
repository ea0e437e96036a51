"""Answers worked out apart from maskcheck.

Its own word operations and its own GF(2^n) multiply evaluate a
`workloads.Prog` over every input assignment with numpy. From the value
counts it derives, per internal variable, the exact QMS as defined by
Eldib, Wang and Schaumont (TACAS 2014):

    QMS = 1 - max (count1[c] - count2[c]) / F

over secret fixings that agree on the publics, with F the number of
random assignments, and whether the variable is uniform for every
fixing. Witnesses reported by maskcheck are replayed the same way.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

MAX_CELLS = 1 << 24        # inputs enumerated per program, at most
_CHUNK = 1 << 20           # cells evaluated at once


@functools.cache
def gf_table(bits: int, poly: int) -> np.ndarray:
    """Multiplication table of GF(2^bits) mod poly, by shift and add."""
    size = 1 << bits
    table = np.zeros((size, size), dtype=np.int64)
    for a in range(size):
        for b in range(size):
            acc, x, y = 0, a, b
            while y:
                if y & 1:
                    acc ^= x
                y >>= 1
                x <<= 1
                if x >> bits:
                    x ^= poly
            table[a, b] = acc
    return table


class Evaluator:
    """Evaluates a program elementwise over int64 arrays of words."""

    def __init__(self, prog, bits: int, poly: int):
        self.prog = prog
        self.bits = bits
        self.mask = (1 << bits) - 1
        self.table = gf_table(bits, poly)

    def run(self, env: dict) -> dict:
        vals = dict(env)
        m = self.mask

        def get(x):
            return int(x) & m if x[0].isdigit() else vals[x]

        for target, op, a, b in self.prog.stmts:
            x = get(a)
            if op == "~":
                out = ~x & m
            elif op in ("<<", ">>"):
                k = int(b)
                out = (x << k) & m if op == "<<" else x >> k
            else:
                y = get(b)
                if op == "^":
                    out = x ^ y
                elif op == "&":
                    out = x & y
                elif op == "|":
                    out = x | y
                elif op == "+":
                    out = (x + y) & m
                elif op == "-":
                    out = (x - y) & m
                elif op == "*":
                    out = (x * y) & m
                elif op == "@":
                    out = self.table[x, y]
                else:
                    raise ValueError(f"unknown operator {op!r}")
            vals[target] = out
        return vals

    def random_env(self) -> dict:
        """Every random assignment along axis 1, first name most
        significant."""
        names = self.prog.names("random")
        f = np.arange(1 << (self.bits * len(names)), dtype=np.int64)
        return {n: ((f >> (self.bits * (len(names) - 1 - j))) & self.mask)
                [None, :] for j, n in enumerate(names)}

    def counts(self, var: str, sigma: dict) -> np.ndarray:
        """Value counts of var under sigma over all random assignments;
        inputs missing from sigma are 0."""
        env = self.random_env()
        for name, kind in self.prog.params:
            if kind != "random":
                env[name] = np.int64(sigma.get(name, 0) & self.mask)
        vals = self.run(env)
        width = 1 << (self.bits * len(self.prog.names("random")))
        out = np.broadcast_to(vals[var], (1, width)).ravel()
        return np.bincount(out, minlength=1 << self.bits)


@dataclass
class Answer:
    """Exact QMS and uniformity of every internal variable."""

    qms: dict       # name -> Fraction
    uniform: dict   # name -> bool


def exhaustive(prog, bits: int, poly: int) -> Answer:
    """Enumerate every input assignment of prog (at most MAX_CELLS)."""
    ev = Evaluator(prog, bits, poly)
    size = 1 << bits
    pubs, secs = prog.names("public"), prog.names("secret")
    P = size ** len(pubs)
    K = size ** len(secs)
    F = size ** len(prog.names("random"))
    if P * K * F > MAX_CELLS:
        raise ValueError(f"{prog.name}: {P * K * F} cells exceed the "
                         f"reference limit of {MAX_CELLS}")
    rand_env = ev.random_env()
    targets = [s[0] for s in prog.stmts]
    gap = dict.fromkeys(targets, 0)
    uniform = dict.fromkeys(targets, F % size == 0)
    rows = max(1, _CHUNK // F)

    def decode(index, names):
        return {n: (index >> (bits * (len(names) - 1 - j))) & ev.mask
                for j, n in enumerate(names)}

    for p in range(P):
        counts = {t: np.zeros((K, size), dtype=np.int64) for t in targets}
        for lo in range(0, K, rows):
            hi = min(K, lo + rows)
            ks = np.arange(lo, hi, dtype=np.int64)[:, None]
            env = dict(rand_env)
            env.update(decode(ks, secs))
            env.update({n: np.int64(v) for n, v in decode(p, pubs).items()})
            vals = ev.run(env)
            flat_rows = np.arange(hi - lo, dtype=np.int64)[:, None] * size
            for t in targets:
                v = np.broadcast_to(vals[t], (hi - lo, F))
                counts[t][lo:hi] = np.bincount(
                    (flat_rows + v).ravel(),
                    minlength=(hi - lo) * size).reshape(hi - lo, size)
        for t in targets:
            c = counts[t]
            gap[t] = max(gap[t], int((c.max(axis=0) - c.min(axis=0)).max()))
            if uniform[t]:
                uniform[t] = bool((c == F // size).all())
    return Answer({t: Fraction(F - gap[t], F) for t in targets}, uniform)


def _strip(prefix: str, sigma: dict) -> dict:
    return {k[len(prefix):]: int(v) for k, v in sigma.items()}


def check_report(case, doc: dict, prefix: str, qms_mode: bool,
                 answer: Answer | None, ev: Evaluator) -> list[str]:
    """Errors in maskcheck's JSON report for case; empty when correct.

    Expected QMS values come from case.leaks (known answers) or from
    the exhaustive answer; every reported witness is replayed.
    """
    prog = case.prog
    errors = []
    names = [v["name"][len(prefix):] for v in doc["variables"]]
    targets = [s[0] for s in prog.stmts]
    if names != targets:
        return [f"{prog.name}: reported variables {names} != {targets}"]
    expected = {}
    for t in targets:
        if case.leaks is not None:
            expected[t] = case.leaks.get(t, Fraction(1))
        else:
            expected[t] = answer.qms[t]
    publics = set(prog.names("public"))
    for item, t in zip(doc["variables"], targets):
        where = f"{prog.name}/{t} at {case.bits} bits"
        want = expected[t]
        kind = item["type"]
        if kind not in ("RUD", "SID", "SDD"):
            errors.append(f"{where}: undecided ({kind}, {item['note']})")
            continue
        if (kind == "SDD") != (want < 1):
            errors.append(f"{where}: {kind} but QMS is {want}")
        if kind == "RUD" and answer is not None and not answer.uniform[t]:
            errors.append(f"{where}: RUD but not uniform")
        qms = item["qms"]
        if qms_mode:
            got = None if qms is None else Fraction(qms["num"], qms["den"])
            if got != want:
                errors.append(f"{where}: QMS {got}, expected {want}")
        elif qms is not None:
            errors.append(f"{where}: QMS reported without --qms")
        witness = item["witness"]
        if witness is None:
            continue
        s1 = _strip(prefix, witness["sigma1"])
        s2 = _strip(prefix, witness["sigma2"])
        if any(s1.get(n, 0) != s2.get(n, 0) for n in publics):
            errors.append(f"{where}: witness fixings differ on publics")
        c1, c2 = ev.counts(t, s1), ev.counts(t, s2)
        if "c" in witness:
            total = int(c1.sum())
            gap = Fraction(int(c1[witness["c"]] - c2[witness["c"]]), total)
            if qms is None or gap != 1 - Fraction(qms["num"], qms["den"]):
                errors.append(f"{where}: witness realises gap {gap}, "
                              f"report says {qms}")
        elif np.array_equal(c1, c2):
            errors.append(f"{where}: witness fixings give equal counts")
    if qms_mode:
        worst = min(expected.values())
        pq = doc["program_qms"]
        if pq is None or Fraction(pq["num"], pq["den"]) != worst:
            errors.append(f"{prog.name}: program QMS {pq}, expected {worst}")
    if doc["perfectly_masked"] != all(q == 1 for q in expected.values()):
        errors.append(f"{prog.name}: perfectly_masked is "
                      f"{doc['perfectly_masked']}")
    return errors
