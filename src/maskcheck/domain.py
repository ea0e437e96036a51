"""Mixed boolean/arithmetic domain over n-bit words.

Values are plain ints in [0, 2**bits). Bitwise ops, modular +,-,* and
shifts act on the word directly; `@` multiplies in GF(2^bits) modulo an
irreducible polynomial, so every nonzero element is invertible there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadDegree, ReduciblePolynomial, ShiftOutOfRange

MAX_BITS = 16

# Defaults: 0x11D for 8-bit words, the lexicographically smallest
# irreducible polynomial for every other width (computed on demand).
DEFAULT_POLYS = {
    1: 0b11,        # x + 1
    2: 0b111,       # x^2 + x + 1
    3: 0b1011,      # x^3 + x + 1
    4: 0b10011,     # x^4 + x + 1
    8: 0x11D,       # x^8 + x^4 + x^3 + x^2 + 1
}

BINARY_OPS = ("^", "&", "|", "+", "-", "*", "@", "<<", ">>")
UNARY_OPS = ("~",)


@dataclass(frozen=True)
class DomainConfig:
    """Word width plus the GF(2^bits) modulus polynomial."""

    bits: int
    poly: int

    @property
    def mask(self) -> int:
        return (1 << self.bits) - 1

    @property
    def size(self) -> int:
        """Number of elements in the domain."""
        return 1 << self.bits

    @property
    def dtype(self) -> type:
        """The narrowest unsigned numpy type holding a value: uint8 up to
        8 bits, uint16 up to MAX_BITS."""
        return np.uint8 if self.bits <= 8 else np.uint16

    def __str__(self) -> str:
        return f"GF(2^{self.bits}) mod {self.poly:#x}"


def _poly_mod(a: int, b: int) -> int:
    """Remainder of carry-less division of a by b over GF(2)."""
    db = b.bit_length() - 1
    while a.bit_length() - 1 >= db:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def is_irreducible(poly: int, bits: int) -> bool:
    """Exhaustive irreducibility test for a degree-`bits` polynomial.

    A reducible polynomial of degree n has a factor of degree <= n//2,
    so trial division over that range is a complete check (roots are
    the degree-1 case).
    """
    if poly & 1 == 0:
        return False  # x divides
    for deg in range(1, bits // 2 + 1):
        for q in range(1 << deg, 1 << (deg + 1)):
            if _poly_mod(poly, q) == 0:
                return False
    return True


def _smallest_irreducible(bits: int) -> int:
    for poly in range((1 << bits) + 1, 1 << (bits + 1), 2):
        if is_irreducible(poly, bits):
            return poly
    raise AssertionError("no irreducible polynomial found")  # unreachable


def make_domain(bits: int, poly: int | None = None) -> DomainConfig:
    """Validate and build a DomainConfig.

    Raises BadDegree if poly's degree is not exactly `bits`, and
    ReduciblePolynomial if it factors (checked exhaustively; cheap for
    bits <= 16).
    """
    if not isinstance(bits, int) or not 1 <= bits <= MAX_BITS:
        raise BadDegree(f"bits must be an integer in [1, {MAX_BITS}], got {bits!r}")
    if poly is None:
        poly = DEFAULT_POLYS.get(bits)
        if poly is None:
            poly = _smallest_irreducible(bits)
    if poly.bit_length() - 1 != bits:
        raise BadDegree(
            f"modulus {poly:#x} has degree {poly.bit_length() - 1}, expected {bits}"
        )
    if not is_irreducible(poly, bits):
        raise ReduciblePolynomial(f"modulus {poly:#x} factors over GF(2)")
    return DomainConfig(bits, poly)


def gf_mul(a: int, b: int, d: DomainConfig) -> int:
    """Multiply in GF(2^bits): carry-less product reduced mod d.poly."""
    acc = 0
    x = a
    y = b
    while y:
        if y & 1:
            acc ^= x
        y >>= 1
        x <<= 1
        if x >> d.bits:
            x ^= d.poly
    return acc


_TABLE_CACHE: dict[DomainConfig, np.ndarray] = {}


def gf_table(d: DomainConfig) -> np.ndarray:
    """Full multiplication table, built once per domain (bits <= 8 only)."""
    table = _TABLE_CACHE.get(d)
    if table is None:
        if d.bits > 8:
            raise ValueError("multiplication table only cached up to 8 bits")
        size = d.size
        a = np.arange(size, dtype=d.dtype)[:, None]
        b = np.arange(size, dtype=d.dtype)[None, :]
        table = gf_mul_vec(np.broadcast_to(a, (size, size)),
                           np.broadcast_to(b, (size, size)), d, _direct=True)
        table.setflags(write=False)
        _TABLE_CACHE[d] = table
    return table


def gf_mul_vec(a: np.ndarray, b: np.ndarray, d: DomainConfig,
               _direct: bool = False) -> np.ndarray:
    """Elementwise GF multiply; values are `d.dtype` arrays.

    Operands must lie in [0, 2**bits), as eval_vec always gives. Narrow
    domains gather from the cached table, flattened so that one index
    (a << bits) | b replaces numpy's slower two-array indexing; only
    that index is widened, to uint16, since a << bits overflows a
    uint8. Wider ones use an unrolled shift-and-xor product in uint32
    (it has up to 2*bits - 1 bits) followed by modular reduction.
    """
    if d.bits <= 8 and not _direct:
        index = np.left_shift(a, d.bits, dtype=np.uint16) | b
        return gf_table(d).ravel()[index]
    n = d.bits
    zero = np.uint32(0)
    wide = b.astype(np.uint32)
    prod = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.uint32)
    for i in range(n):
        prod ^= np.where((a >> i) & 1, wide << np.uint32(i), zero)
    for j in range(2 * n - 2, n - 1, -1):
        prod ^= np.where((prod >> j) & 1, np.uint32(d.poly << (j - n)), zero)
    return (prod & np.uint32(d.mask)).astype(d.dtype)


def eval_op(op: str, a: int, b: int | None, d: DomainConfig) -> int:
    """Apply one operator to domain values (b is ignored for `~`).

    Shifts require 0 <= b < bits and raise ShiftOutOfRange otherwise;
    everything else wraps mod 2^bits.
    """
    m = d.mask
    if op == "~":
        return ~a & m
    if b is None:
        raise ValueError(f"operator {op!r} needs two operands")
    if op == "^":
        return (a ^ b) & m
    if op == "&":
        return (a & b) & m
    if op == "|":
        return (a | b) & m
    if op == "+":
        return (a + b) & m
    if op == "-":
        return (a - b) & m
    if op == "*":
        return (a * b) & m
    if op == "@":
        return gf_mul(a & m, b & m, d)
    if op in ("<<", ">>"):
        if not 0 <= b < d.bits:
            raise ShiftOutOfRange(f"shift amount {b} outside [0, {d.bits})")
        return (a << b) & m if op == "<<" else (a & m) >> b
    raise ValueError(f"unknown operator {op!r}")
