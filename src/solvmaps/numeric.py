"""Complex-scalar primitives used by every other module.

Integer powers follow exact repeated-multiplication semantics (so the parity
convention (-z)**s == (+/-) z**s holds with no branch-cut surprises), square
roots are branch-explicit, and all comparisons share one
relative-plus-absolute tolerance rule.  :class:`Powers` shares the squarings of
one base across many exponents and returns exactly what :func:`cpow` would.
"""

from __future__ import annotations

import cmath
import math
from functools import reduce
from itertools import compress
from operator import mul

from .errors import NumericOverflowError, ZeroToNegativePowerError

#: The two inhabitants of the sign type.
PLUS = 1
MINUS = -1
SIGNS = (PLUS, MINUS)

Sign = int
ComplexPair = tuple[complex, complex]


def is_finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


def ensure_finite(z: complex) -> complex:
    """Return ``z`` unchanged, or raise instead of propagating Inf/NaN."""
    if not is_finite(z):
        raise NumericOverflowError("result overflowed to a non-finite value")
    return z


def ensure_all_finite(*values: complex) -> None:
    """Raise ``NumericOverflowError`` if any of ``values`` is not finite.

    A finite sum means finite values; a sum that overflows is checked value by value.
    """
    if not cmath.isfinite(sum(values)):
        for z in values:
            ensure_finite(z)


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
        if is_finite(result):
            result = 1 / result
    if not is_finite(result):
        raise NumericOverflowError("result overflowed to a non-finite value", step=step)
    return result


#: Maps the digits of ``bin(n)`` to the bytes 0 and 1, so the bits of ``n``
#: can select entries of a squaring ladder.
_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")


class Powers:
    """Integer powers of one base that share their squarings.

    Keeps the ladder ``z, z**2, z**4, ...`` (extended on demand) and the
    product for every ``|n|`` already asked for.  A power is the product of
    the ladder entries at the set bits of ``|n|``, multiplied low bit first
    onto ``1+0j``: the same squarings and the same multiplication order as
    :func:`cpow`, so ``Powers(z).pow(n)`` equals ``cpow(z, n)`` bit for bit
    and raises the same errors.  Meant to live for one orbit.
    """

    __slots__ = ("base", "_ladder", "_products")

    def __init__(self, z: complex):
        self.base = complex(z)
        self._ladder = [self.base]
        self._products: dict[int, complex] = {}

    def __len__(self) -> int:
        """Number of ladder entries built so far (squarings + 1)."""
        return len(self._ladder)

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
                bits = bin(lower)[:1:-1].encode().translate(_BIT_VALUES)
                result = reduce(mul, compress(ladder, bits), 1 + 0j)
            result *= ladder[top]
            products[m] = result
        if n < 0:
            ensure_finite(result)
            if result == 0:
                raise NumericOverflowError("reciprocal of underflowed power")
            result = 1 / result
        return ensure_finite(result)


def principal_sqrt(z: complex) -> complex:
    """Square root with non-negative real part (tie: non-negative imaginary)."""
    w = cmath.sqrt(z)
    if w.real < 0 or (w.real == 0 and w.imag < 0):
        w = -w
    return w


def sqrt_branch(z: complex, s: Sign) -> complex:
    """``s`` times the principal square root of ``z``."""
    return s * principal_sqrt(z)


def approx_eq(a: complex, b: complex, rel: float = 1e-9, abs_tol: float = 1e-12) -> bool:
    """True iff ``|a-b| <= abs_tol + rel * max(|a|, |b|)``."""
    return abs(a - b) <= abs_tol + rel * max(abs(a), abs(b))


def pair_eq_unordered(
    p: ComplexPair, q: ComplexPair, rel: float = 1e-9, abs_tol: float = 1e-12
) -> bool:
    """Equality of two label-free pairs under some assignment of labels."""
    a1, a2 = p
    b1, b2 = q
    return (approx_eq(a1, b1, rel, abs_tol) and approx_eq(a2, b2, rel, abs_tol)) or (
        approx_eq(a1, b2, rel, abs_tol) and approx_eq(a2, b1, rel, abs_tol)
    )


def pair_eq_ordered(
    p: ComplexPair, q: ComplexPair, rel: float = 1e-9, abs_tol: float = 1e-12
) -> bool:
    return approx_eq(p[0], q[0], rel, abs_tol) and approx_eq(p[1], q[1], rel, abs_tol)


def complex_from_obj(obj: object) -> complex:
    """Parse a complex scalar from any accepted literal form.

    Accepts what JSON decodes to: a real number, a two-element ``[re, im]``
    list, or a string such as ``"1.5"``, ``"2i"``, ``"1+2i"`` (also with ``j``).
    """
    if isinstance(obj, bool):
        raise ValueError(f"not a complex literal: {obj!r}")
    if isinstance(obj, (int, float)):
        return complex(obj)
    if isinstance(obj, list) and len(obj) == 2:
        re, im = obj
        if isinstance(re, bool) or isinstance(im, bool):
            raise ValueError(f"not a complex literal: {obj!r}")
        return complex(float(re), float(im))
    if isinstance(obj, str):
        text = obj.strip().replace(" ", "").replace("i", "j")
        try:
            return complex(text)
        except ValueError as exc:
            raise ValueError(f"not a complex literal: {obj!r}") from exc
    raise ValueError(f"not a complex literal: {obj!r}")
