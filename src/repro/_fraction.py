"""Exact-arithmetic helpers shared across the package.

The correctness arguments of the paper (Theorems III.1 and IV.3 in
particular) are exact combinatorial identities on loads and interval
endpoints.  Validating them with floating point would force tolerances that
can hide genuine violations, so every core algorithm works on
:class:`fractions.Fraction`.  This module centralizes coercion so that the
public API accepts ``int``, ``Fraction``, exact ``float`` values and numpy
scalars interchangeably.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from typing import Union

Number = Union[int, float, Fraction]

#: Sentinel for "this job may not run on this machine set" (the paper's ∞).
INF = math.inf

# ---------------------------------------------------------------------------
# Optional big-integer backend
# ---------------------------------------------------------------------------
# The exact LP simplex spends its time multiplying scaled integers whose
# bit-length grows with pivot depth.  gmpy2's mpz (GMP) multiplies large
# integers asymptotically faster than CPython's int; when the package is
# importable we route kernel integers through it.  mpz registers as
# numbers.Integral, so Fraction(mpz, mpz), comparisons and mixed arithmetic
# with plain ints all behave; results crossing the kernel boundary are
# coerced back to int for hashing/serialization safety.
#
# ``REPRO_BIGINT=python`` is the escape hatch: it forces the pure-python
# path even when gmpy2 is installed (bit-for-bit reference behaviour).

try:
    if os.environ.get("REPRO_BIGINT", "").lower() == "python":
        raise ImportError("REPRO_BIGINT=python requested the built-in int")
    from gmpy2 import mpz as _mpz  # type: ignore[import-not-found]

    HAVE_GMPY2 = True
except ImportError:  # pragma: no cover - exercised via subprocess test
    _mpz = int
    HAVE_GMPY2 = False

#: Coerce a kernel integer to the active big-integer type.  ``bigint(0)``
#: is the kernel's zero; sums/products stay in the fast type automatically.
bigint = _mpz


def bigint_backend() -> str:
    """Name of the active integer backend: ``"gmpy2"`` or ``"python"``."""
    return "gmpy2" if HAVE_GMPY2 else "python"


def is_inf(value: object) -> bool:
    """Return ``True`` when *value* is the infinite-processing-time sentinel."""
    return isinstance(value, float) and math.isinf(value)


def to_fraction(value: Number) -> Fraction:
    """Coerce *value* to an exact :class:`Fraction`.

    Floats are converted exactly (their binary expansion), which is the right
    thing for values like ``0.5`` produced by user code; values that came out
    of an LP float backend should be rationalized explicitly by the caller
    instead (see :func:`rationalize`).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):  # bool is an int subclass; reject explicitly
        raise TypeError("bool is not a valid numeric value")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if math.isinf(value) or math.isnan(value):
            raise ValueError(f"cannot convert non-finite float {value!r} to Fraction")
        return Fraction(value)
    # numpy integer / floating scalars expose item()
    item = getattr(value, "item", None)
    if item is not None:
        return to_fraction(item())
    raise TypeError(f"cannot interpret {value!r} as an exact number")


def to_fraction_finite(value: Number, what: str = "value") -> Fraction:
    """Guarded coercion: domain error instead of ``ValueError`` on INF/NaN.

    :func:`to_fraction` treats a non-finite float as a programming error
    (``ValueError``).  Call sites where the INF sentinel can legitimately
    appear in *input data* — job-length vectors, assignment loads — should
    use this helper instead, so a forbidden pair surfaces as the library's
    own :class:`~repro.exceptions.InvalidInstanceError` with a message
    naming the offending quantity, not as a bare coercion crash.
    """
    if isinstance(value, float) and (math.isinf(value) or math.isnan(value)):
        from .exceptions import InvalidInstanceError

        kind = "infinite (the INF sentinel)" if math.isinf(value) else "NaN"
        raise InvalidInstanceError(
            f"{what} is {kind} where a finite number is required"
        )
    return to_fraction(value)


def rationalize(value: float, max_denominator: int = 10**9) -> Fraction:
    """Convert a float produced by a numeric solver to a nearby rational.

    Unlike :func:`to_fraction` this snaps to a small denominator, which is
    appropriate when the float is a noisy image of an underlying rational
    (e.g. an LP vertex with rational data).
    """
    if math.isinf(value) or math.isnan(value):
        raise ValueError(f"cannot rationalize non-finite float {value!r}")
    return Fraction(value).limit_denominator(max_denominator)


def as_int_if_integral(value: Fraction) -> Union[int, Fraction]:
    """Return an ``int`` when *value* is integral, else the Fraction itself."""
    frac = to_fraction(value)
    if frac.denominator == 1:
        return int(frac)
    return frac


def fsum(values) -> Fraction:
    """Exact sum of an iterable of numbers as a Fraction."""
    total = Fraction(0)
    for value in values:
        total += to_fraction(value)
    return total
