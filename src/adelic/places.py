"""Places of Q and absolute values.

A Place is the archimedean place, a finite place attached to a prime p,
or a base place b, standing for all the primes of an integer b at once.
All residue degrees are 1 over Q, so no N_v weighting appears anywhere.
log_abs returns exact rational multiples of log p (or log b) at finite
places and an error-bounded float at the archimedean place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .exact import (
    DomainError, LogValue, Rational, _index, _primes_below, _rational, _trial_division, _val,
    isprime, require_prime)

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
    """A place of Q: Place(None) is archimedean, Place(p) is p-adic.

    Place(b, base=True) is a base place, an integer b >= 2 whose primes
    are not listed one by one (see EffectiveDivisor.primes); the weight
    reads zero there.  It sorts after every prime and before ARCH."""

    prime: int | None = None
    base: bool = False

    def __post_init__(self):
        # the int that _index or require_prime returns is stored, so that a
        # numpy integer is read as the int it is
        if self.base:
            object.__setattr__(self, "prime", _index(self.prime, "a base place"))
            if self.prime < 2:
                raise DomainError(f"a base place is an integer >= 2, got {self.prime!r}")
        elif self.prime is not None:
            object.__setattr__(self, "prime", require_prime(self.prime))

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
        return (2, 0) if self.prime is None else (int(self.base), self.prime)

    def __lt__(self, other: "Place") -> bool:
        return self._key() < other._key()

    def __str__(self) -> str:
        return "inf" if self.prime is None else str(self.prime)


#: The archimedean place.
ARCH = Place(None)


def log_abs(q: Rational, v: Place) -> LogValue:
    """log of the v-adic absolute value of a nonzero rational."""
    q = _rational(q)
    if q == 0:
        raise DomainError("absolute value of zero")
    if v.is_archimedean:
        return LogValue._log(abs(q))
    return LogValue.exact_log(-_val(q, v.prime), v.prime)


def product_formula_check(q: Rational) -> bool:
    """Verify sum_v log|q|_v = 0 exactly, with no floating point and no
    factoring: |q| is rebuilt as the product of b^v_b(q) over a coprime
    base of it, the primes below 2^15 of num(q) and den(q) by trial
    division and what is left of each, a prime or a base place."""
    q = _rational(q)
    if q == 0:
        raise DomainError("product formula needs a nonzero rational")
    places = _base_places(q)
    rebuilt = math.prod(Fraction(v.prime) ** _val(q, v.prime) for v in places)
    return rebuilt == abs(q) and _coprime(places)


def _base_places(q: Fraction) -> list[Place]:
    # the places of a coprime base of |q| (see product_formula_check),
    # sorted; num(q) and den(q) are coprime, so their rests are too
    out = []
    for n in (abs(q.numerator), q.denominator):
        small, rest = _trial_division(n)
        out += map(Place._of_prime, small)
        if rest > 1:
            out.append(Place._of_prime(rest) if isprime(rest) else Place(rest, base=True))
    return sorted(out)


def _coprime(places: list[Place]) -> bool:
    # whether distinct finite places are pairwise coprime: primes are, and
    # each base place is checked against the product of the others
    bases = [v.prime for v in places if v.base]
    m = math.prod(v.prime for v in places) if bases else 1
    return all(math.gcd(b, m // b) == 1 for b in bases)


#: Largest prime cutoff relevant_places will enumerate primes up to.
PRIME_LIMIT = 10 ** 7


@dataclass(frozen=True)
class RelevantPlaces:
    """Finite list of places that can carry more than their d* term for a
    divisor and weight, and a certified bound on the weight at every place
    left out.

    Every unlisted prime of d* is a unit prime above 2^15 and above any
    prime cutoff, so its d* term is the divisor's only local data there;
    global_fekete gives those primes one row, at the base place C."""

    places: tuple[Place, ...]
    tail_bound: float
    prime_cutoff: int | None


def relevant_places(
    Z: "EffectiveDivisor",
    g: "Weight",
    tail_eps: float = 1e-9,
) -> RelevantPlaces:
    """Places where the divisor or the weight can contribute more than the
    divisor's d* term, primes ascending, then base places, then ARCH.

    Always includes the archimedean place, the places of the divisor's
    coprime base (EffectiveDivisor.primes), and the prime of every nonzero
    override of the weight.  For weights supported at infinitely many
    primes, also includes all p <= P with P minimal such that the weight's
    certified tail bound sum_{p>P} sup|g_p| drops below tail_eps / deg(Z);
    a P above PRIME_LIMIT is refused.  The returned tail_bound certifies that sum.
    An element of the base that isprime does not prove prime loses each
    prime listed so; the rest is a base place, whose primes are above the
    cutoff, so tail_bound holds their weight terms.  Every other prime of
    d* adds only its d* term.
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
    primes, bases = set(ps), set()
    for n in Z.primes:
        if not isprime(n):
            for p in ps:
                while n % p == 0:
                    n //= p
        if n > 1:
            (primes if isprime(n) else bases).add(n)
    # every prime here is sieved, trial-divided or proven above: no second isprime
    places = (*map(Place._of_prime, sorted(primes)),
              *(Place(b, base=True) for b in sorted(bases)), ARCH)
    return RelevantPlaces(places, tail, cutoff)
