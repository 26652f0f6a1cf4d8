"""Complex-scalar primitives used by every other module.

Integer powers follow exact repeated-multiplication semantics (so the parity
convention (-z)**s == (+/-) z**s holds with no branch-cut surprises), square
roots are branch-explicit, and all comparisons share one
relative-plus-absolute tolerance rule.  :class:`Powers` shares the squarings of
one base across many exponents and returns exactly what :func:`cpow` would.
Reading a complex from outside input is left to :mod:`solvmaps.cli`.
"""

from __future__ import annotations

import cmath

from .errors import NumericOverflowError, ZeroToNegativePowerError

#: The two inhabitants of the sign type.
PLUS = 1
MINUS = -1
SIGNS = (PLUS, MINUS)

Sign = int
ComplexPair = tuple[complex, complex]


def ensure_finite(z: complex) -> complex:
    """Return ``z`` unchanged, or raise instead of propagating Inf/NaN."""
    if not cmath.isfinite(z):
        raise NumericOverflowError("result overflowed to a non-finite value")
    return z


def cpow(z: complex, n: int, step: int | None = None) -> complex:
    """``z`` raised to the signed integer ``n`` by binary exponentiation.

    ``0**0`` is defined as 1 so closed forms degrade gracefully at ell=0.
    ``step`` only labels a raised error.
    """
    z = complex(z)
    if n == 0:
        return 1 + 0j
    if z == 0:
        if n < 0:
            raise ZeroToNegativePowerError("zero base raised to a negative power", step=step)
        return 0j
    m = -n if n < 0 else n
    if m <= 2:  # the loop's own products, without the loop
        result = (1 + 0j) * (z if m == 1 else z * z)
    else:
        result = 1 + 0j
        base = z
        while m:
            if m & 1:
                result *= base
            m >>= 1
            if m:
                base *= base
    if n < 0:
        if result == 0:
            # |z|**|n| underflowed; its reciprocal is an overflow.
            raise NumericOverflowError("reciprocal of underflowed power", step=step)
        if cmath.isfinite(result):
            result = 1 / result
    if not cmath.isfinite(result):
        raise NumericOverflowError("result overflowed to a non-finite value", step=step)
    return result


class Powers:
    """Integer powers of one base that share their squarings.

    Keeps the ladder ``z, z**2, z**4, ...`` (extended on demand) and the
    finite product for every ``|n|`` already asked for.  A power is the
    product of the ladder entries at the set bits of ``|n|``, multiplied low
    bit first onto ``1+0j``: the same squarings and the same multiplication
    order as :func:`cpow`, so ``Powers(z).pow(n)`` equals ``cpow(z, n)``
    bit for bit and raises the same errors.  Meant to live for one orbit.
    """

    __slots__ = ("base", "_ladder", "_products")

    def __init__(self, z: complex):
        self.base = complex(z)
        self._ladder = [self.base]
        self._products: dict[int, complex] = {}

    def pow(self, n: int) -> complex:
        """``base**n``, exactly as ``cpow(base, n)``."""
        if n == 0:
            return 1 + 0j
        if self.base == 0:
            if n < 0:
                raise ZeroToNegativePowerError("zero base raised to a negative power")
            return 0j
        m = -n if n < 0 else n
        products = self._products
        result = products.get(m)
        if result is None:
            ladder = self._ladder
            top = m.bit_length() - 1
            while len(ladder) <= top:
                ladder.append(ladder[-1] * ladder[-1])
            # The top bit is multiplied in last, onto the product of the
            # lower bits.  That product is often known already: z**(2**t - 1)
            # on the way to z**(2**(t+1) - 1), or 1 for a power of two.
            lower = m ^ (1 << top)
            result = products.get(lower) if lower else 1 + 0j
            if result is None:
                result = 1 + 0j
                for i in range(lower.bit_length()):
                    if lower >> i & 1:
                        result *= ladder[i]
            result *= ladder[top]
            products[m] = ensure_finite(result)  # only finite products are kept
        if n < 0:
            if result == 0:
                raise NumericOverflowError("reciprocal of underflowed power")
            return ensure_finite(1 / result)
        return result


def principal_sqrt(z: complex) -> complex:
    """Square root with non-negative real part (tie: non-negative imaginary)."""
    w = cmath.sqrt(z)
    if w.real == 0 and w.imag < 0:  # cmath.sqrt's real part is never negative
        w = -w
    return w


#: The one comparison rule, ``|a-b| <= EQ_ABS + EQ_REL * max(|a|, |b|)``: the
#: tolerance of the sign-orbit dedupe in ``verify``.  Looser than the 1e-9
#: residual tolerance of its properties, so roundoff never splits a genuine
#: branch into two.
EQ_REL = 1e-8
EQ_ABS = 1e-12


def approx_eq(a: complex, b: complex) -> bool:
    """True iff ``|a-b| <= EQ_ABS + EQ_REL * max(|a|, |b|)``."""
    return abs(a - b) <= EQ_ABS + EQ_REL * max(abs(a), abs(b))


def pair_eq_unordered(p: ComplexPair, q: ComplexPair) -> bool:
    """Equality of two label-free pairs under some assignment of labels."""
    a1, a2 = p
    b1, b2 = q
    return (approx_eq(a1, b1) and approx_eq(a2, b2)) or (approx_eq(a1, b2) and approx_eq(a2, b1))


def pair_eq_ordered(p: ComplexPair, q: ComplexPair) -> bool:
    """Equality of two labelled pairs, component by component."""
    return approx_eq(p[0], q[0]) and approx_eq(p[1], q[1])

