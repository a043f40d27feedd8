"""Shift-invariant difference operators and their conjugate position operators.

Everything here acts on `Polynomial` values with exact rational arithmetic:
general delta operators built from finite shift combinations, Pincherle
derivatives, and the beta/xi operators of the right, left and symmetric
lattice correspondences. The defining relation [delta, xi] = 1 can therefore
be verified exactly, coefficient by coefficient.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from math import inf
from typing import Callable, Mapping, NamedTuple, Union

from .polynomials import Polynomial, _exact, shift_sum

Operator = Callable[[Polynomial], Polynomial]


class InvalidDeltaError(ValueError):
    """A difference operator violates the delta-operator conditions."""


class Kind(Enum):
    RIGHT = "right"
    LEFT = "left"
    SYMMETRIC = "symmetric"


class Correspondence:
    """One of the three lattice correspondences at spacing sigma; an immutable value.

    sigma, positive and finite, may be an int, Fraction or float; exact code
    paths convert it with `Fraction`, which is lossless for all three.
    """

    __slots__ = ("kind", "sigma")

    def __init__(self, kind: Kind, sigma: Union[int, float, Fraction] = 1):
        if not 0 < sigma < inf:
            raise ValueError("sigma must be positive and finite")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "sigma", sigma)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return Correspondence, (self.kind, self.sigma)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.sigma) == (other.kind, other.sigma)

    def __hash__(self):
        return hash((self.kind, self.sigma))

    def __repr__(self):
        return f"Correspondence(kind={self.kind!r}, sigma={self.sigma!r})"

    def sigma_exact(self) -> Fraction:
        return Fraction(self.sigma)

    def sigma_float(self) -> float:
        """sigma as a double; a ValueError for an exact sigma past the double range."""
        try:
            return float(self.sigma)
        except OverflowError:
            raise ValueError(
                "sigma exceeds the double range: only the exact paths (basic_polynomial, "
                "basic_polynomial_value, exponential_series_exact, the operators) take it"
            ) from None


def right(sigma=1) -> Correspondence:
    return Correspondence(Kind.RIGHT, sigma)


def left(sigma=1) -> Correspondence:
    return Correspondence(Kind.LEFT, sigma)


def symmetric(sigma=1) -> Correspondence:
    return Correspondence(Kind.SYMMETRIC, sigma)


class DeltaOperator:
    """Finite shift series (1/(N sigma)) sum_n a_n T^n acting on polynomials.

    The two delta conditions (coefficients sum to zero, first moment equal to
    the normalizer) are not enforced at construction time so that invalid
    candidates can still be inspected with `check_delta_conditions`;
    `apply_delta` refuses to run with them.
    """

    def __init__(self, terms: Mapping[int, Fraction], normalizer: int, sigma: Fraction):
        if int(normalizer) != normalizer or normalizer <= 0:
            raise ValueError("normalizer must be a positive integer")
        if not 0 < sigma < inf:
            raise ValueError("sigma must be positive and finite")
        self.terms = {int(n): _exact(a) for n, a in terms.items() if a}
        self.normalizer = int(normalizer)
        self.sigma = Fraction(sigma)

    @classmethod
    def right(cls, sigma=1) -> "DeltaOperator":
        return cls({1: Fraction(1), 0: Fraction(-1)}, 1, sigma)

    @classmethod
    def left(cls, sigma=1) -> "DeltaOperator":
        return cls({0: Fraction(1), -1: Fraction(-1)}, 1, sigma)

    @classmethod
    def symmetric(cls, sigma=1) -> "DeltaOperator":
        return cls({1: Fraction(1), -1: Fraction(-1)}, 2, sigma)

    @classmethod
    @lru_cache(maxsize=64)
    def for_correspondence(cls, c: Correspondence) -> "DeltaOperator":
        builder = {Kind.RIGHT: cls.right, Kind.LEFT: cls.left, Kind.SYMMETRIC: cls.symmetric}
        return builder[c.kind](c.sigma_exact())

    @cached_property
    def delta_weights(self) -> dict[int, Fraction]:
        """The shift-sum weights a_n/(N sigma) of delta; an InvalidDeltaError if the delta conditions fail."""
        report = check_delta_conditions(self)
        if not report.passed:
            raise InvalidDeltaError(
                f"delta conditions violated: sum={report.coefficient_sum}, "
                f"moment={report.weighted_sum}, normalizer={report.normalizer}"
            )
        u, v = self.sigma.numerator, self.sigma.denominator
        return {n: Fraction(a.numerator * v, a.denominator * self.normalizer * u) for n, a in self.terms.items()}

    @cached_property
    def pincherle_weights(self) -> dict[int, Fraction]:
        """The shift-sum weights n a_n / N of delta's Pincherle derivative, the inverse of beta."""
        return {n: Fraction(n * a.numerator, a.denominator * self.normalizer) for n, a in self.terms.items()}

    def __call__(self, p: Polynomial) -> Polynomial:
        return apply_delta(self, p)


class DeltaConditionReport(NamedTuple):
    """Both delta-condition sums, together with pass/fail flags."""

    coefficient_sum: Fraction
    weighted_sum: Fraction
    normalizer: int

    @property
    def zero_sum_ok(self) -> bool:
        return self.coefficient_sum == 0

    @property
    def moment_ok(self) -> bool:
        return self.weighted_sum == self.normalizer

    @property
    def passed(self) -> bool:
        return self.zero_sum_ok and self.moment_ok


def check_delta_conditions(d: DeltaOperator) -> DeltaConditionReport:
    """Report whether d lowers degree by one and tends to d/dx as sigma -> 0."""
    coeff_sum = sum(d.terms.values(), Fraction(0))
    weighted = sum((n * a for n, a in d.terms.items()), Fraction(0))
    return DeltaConditionReport(coeff_sum, weighted, d.normalizer)


def apply_delta(d: DeltaOperator, p: Polynomial) -> Polynomial:
    """Apply (1/(N sigma)) sum_n a_n T^{n sigma} to p, exactly."""
    return shift_sum(p, d.sigma, d.delta_weights)


def pincherle_derivative(op: Operator, p: Polynomial) -> Polynomial:
    """Apply the commutator [op, X] = op X - X op to p."""
    return op(p.times_x()) - op(p).times_x()


def apply_beta(c: Correspondence, p: Polynomial) -> Polynomial:
    """Apply beta, the inverse of the Pincherle derivative sum_n (n a_n / N) T^(n sigma) of c's delta.

    Its moments are integers: 1 for right, (-1)^k for left, 1 and 0 at even and odd k for symmetric.
    """
    d = DeltaOperator.for_correspondence(c)
    return shift_sum(p, d.sigma, d.pincherle_weights, inverse=True)


def apply_xi(c: Correspondence, p: Polynomial) -> Polynomial:
    """Apply the discrete position operator xi = X beta."""
    return apply_beta(c, p).times_x()


def commutator_residual(c: Correspondence, degree_max: int) -> Fraction:
    """Largest coefficient of ([delta, xi] - 1) x^n over all n <= degree_max.

    Exact rational arithmetic; the Heisenberg relation makes the expected
    value exactly zero.
    """
    if degree_max < 1:
        raise ValueError("degree_max must be >= 1")
    d = DeltaOperator.for_correspondence(c)
    worst = Fraction(0)
    for n in range(degree_max + 1):
        p = Polynomial.monomial(n)
        commuted = apply_delta(d, apply_xi(c, p)) - apply_xi(c, apply_delta(d, p))
        residual = (commuted - p).max_abs_coefficient()
        if residual > worst:
            worst = residual
    return worst
