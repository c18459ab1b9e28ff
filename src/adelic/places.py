"""Places of Q and absolute values.

A Place is either the archimedean place or a finite place attached to a
prime p.  All residue degrees are 1 over Q, so no N_v weighting appears
anywhere.  log_abs returns exact rational multiples of log p at finite
places and an error-bounded float at the archimedean place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .exact import (
    DomainError, LogValue, Rational, _primes_below, _val, factorize, require_prime)

if TYPE_CHECKING:
    from .divisors import EffectiveDivisor
    from .weights import Weight

__all__ = [
    "Place",
    "ARCH",
    "log_abs",
    "product_formula_check",
    "relevant_places",
]


@dataclass(frozen=True, order=False)
class Place:
    """A place of Q: Place(None) is archimedean, Place(p) is p-adic."""

    prime: int | None = None

    def __post_init__(self):
        if self.prime is not None:
            require_prime(self.prime)

    @classmethod
    def _of_prime(cls, p: int) -> "Place":
        # the place of a p known to be prime: __post_init__'s check skipped
        place = object.__new__(cls)
        object.__setattr__(place, "prime", p)
        return place

    @property
    def is_archimedean(self) -> bool:
        return self.prime is None

    def _key(self):
        return (1, 0) if self.prime is None else (0, self.prime)

    def __lt__(self, other: "Place") -> bool:
        return self._key() < other._key()

    def __str__(self) -> str:
        return "inf" if self.prime is None else str(self.prime)


#: The archimedean place.
ARCH = Place(None)


def log_abs_float(q: Rational) -> tuple[float, float]:
    """log |q| as a float with an error bound, from the correctly rounded
    quotient |q| (LogValue._log); safe for huge numerators."""
    q = Fraction(q)
    if q == 0:
        raise DomainError("log of zero")
    v = LogValue._log(abs(q))
    return v.value, v.err


def log_abs(q: Rational, v: Place) -> LogValue:
    """log of the v-adic absolute value of a nonzero rational."""
    q = Fraction(q)
    if q == 0:
        raise DomainError("absolute value of zero")
    if v.is_archimedean:
        return LogValue._log(abs(q))
    return LogValue.exact_log(-_val(q, v.prime), v.prime)


def product_formula_check(q: Rational) -> bool:
    """Verify sum_v log|q|_v = 0 exactly, as an identity of factorizations.

    The numerator and denominator are factored completely; the check
    reconstructs |q| as a product of p^val_p(q) over the primes found and
    compares integers, with no floating point involved."""
    q = Fraction(q)
    if q == 0:
        raise DomainError("product formula needs a nonzero rational")
    return _product_formula(q, set(factorize(q.numerator)) | set(factorize(q.denominator)))


def _product_formula(q: Fraction, primes) -> bool:
    # |q| == prod of p^val_p(q) over primes (known prime), as integers
    num = den = 1
    for p in primes:
        e = _val(q, p)
        if e > 0:
            num *= p ** e
        elif e < 0:
            den *= p ** (-e)
    return num == abs(q.numerator) and den == q.denominator


#: Largest prime cutoff relevant_places will enumerate primes up to.
PRIME_LIMIT = 10 ** 7


@dataclass(frozen=True)
class RelevantPlaces:
    """Finite list of places that can carry more than their d* term for a
    divisor and weight, and a certified bound on the weight at every place
    left out.

    Every unlisted prime of d* is a unit prime above 2^15 and above any
    prime cutoff, so its d* term is the divisor's only local data there;
    global_fekete folds those terms into one cofactor row."""

    places: tuple[Place, ...]
    tail_bound: float
    prime_cutoff: int | None


def relevant_places(
    Z: "EffectiveDivisor",
    g: "Weight",
    tail_eps: float = 1e-9,
) -> RelevantPlaces:
    """Places where the divisor or the weight can contribute more than the
    divisor's d* term.

    Always includes the archimedean place, the divisor's primes (those of
    the leading coefficient of the finite part, those the numerator of the
    pairwise difference product shares with the end coefficients, and its
    primes below 2^15), and the prime of every nonzero override of the
    weight.  For weights supported at infinitely many primes, also
    includes all p <= P with P minimal such that the weight's certified
    tail bound sum_{p>P} sup|g_p| drops below tail_eps / deg(Z); a P above
    PRIME_LIMIT is refused.  The returned tail_bound certifies that sum.
    Every other prime of d* adds only its d* term.
    """
    if not tail_eps > 0:  # NaN included
        raise DomainError(f"tail_eps must be positive, got {tail_eps!r}")
    ps = {require_prime(c.prime) for c in g.overrides if c.half or c.shift}
    cutoff: int | None = None
    tail = 0.0
    if g.branching:
        try:
            cutoff = g.prime_cutoff(tail_eps / Z.degree)
        except DomainError:  # a bound that underflowed to 0 or has no float cutoff
            cutoff = math.inf
        if cutoff > PRIME_LIMIT:
            raise DomainError(
                f"tail_eps={tail_eps} needs primes up to {cutoff}, above the"
                f" limit {PRIME_LIMIT}; raise tail_eps"
            )
        ps |= set(_primes_below(cutoff + 1))
        tail = g.tail_sum_bound(cutoff)
    # every prime here is sieved, factored or checked above: no second isprime
    places = tuple(map(Place._of_prime, sorted(ps | Z.primes))) + (ARCH,)
    return RelevantPlaces(places, tail, cutoff)
