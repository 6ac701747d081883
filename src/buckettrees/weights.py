"""Weight models and the three grown families.

A weight model assigns a non-negative rational to every tree: saturated
buckets contribute a degree weight phi_k (k = child count), unsaturated
leaves a bucket weight psi_c (c = capacity).  Degree weights come either
as an explicit list or as the one closed rule of grown families, which
covers the exponential and every power of a binomial; every rule composes
with a series the same way, by Horner's rule over its coefficients.

The families are parameter sets for the growth process.  Each is fixed by
(b, c1, c2), where T_{n+1}/T_n = c1*n + c2; a family keeps c1 and c2 as
attributes set once when it is built, and ``weights_of`` derives its
canonical weight model with psi_1 = 1 from those three numbers alone.
"""

from __future__ import annotations

import abc
import math
import operator
from fractions import Fraction
from typing import Sequence, Union

RationalLike = Union[int, str, Fraction]


class InvalidWeightsError(ValueError):
    """The weight data violates a model invariant."""


def quoted(text: str) -> str:
    """A refused value as an error line shows it: at most its first 24
    characters."""
    return repr(text) if len(text) <= 24 else f"{text[:24]!r}... ({len(text)} characters)"


def shown(value: object) -> str:
    """str(value) as an error line shows it: whole up to 24 characters, else
    ``quoted``.  A number with more digits than str() writes (4,300 by
    default) is named by its sign and length in bits, and any other value
    that holds one by its type."""
    try:
        text = str(value)
    except ValueError:
        if isinstance(value, Fraction):
            if value.denominator != 1:
                size = (f"fraction of {value.numerator.bit_length()} over "
                        f"{value.denominator.bit_length()} bits")
                return f"a negative {size}" if value < 0 else f"a {size}"
            value = value.numerator   # an integral fraction is named as the int it is
        if not isinstance(value, int):
            return f"a {type(value).__name__} holding a number too long for str()"
        size = f"int of {value.bit_length()} bits"
        return f"a negative {size}" if value < 0 else f"an {size}"
    return text if len(text) <= 24 else quoted(text)


def _check_int(value: object, name: str, floor: int | None = None,
               error: type[ValueError] = ValueError) -> None:
    """Refuse, with ``error`` and in one line, a non-int (a bool included) or an
    int below ``floor``: the one check of every kernel's sizes, counts and indices."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{name} must be an int, got {type(value).__name__}")
    if floor is not None and value < floor:
        raise error(f"{name} must be >= {floor}, got {shown(value)}")


def _common_scale(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(scale, numerators): the lcm of the values' denominators, and each
    value times it, an integer."""
    scale = math.lcm(*(value.denominator for value in values))
    return scale, [value.numerator * (scale // value.denominator) for value in values]


def to_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, float):
        raise InvalidWeightsError(f"floats are not exact: {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        text = quoted(value) if isinstance(value, str) else repr(value)
        raise InvalidWeightsError(f"not a rational: {text}") from exc


def binom_frac(x: Fraction, k: int) -> Fraction:
    """Generalized binomial coefficient with rational upper argument."""
    if k < 0:
        return Fraction(0)
    num = Fraction(1)
    for i in range(k):
        num *= x - i
    return num / math.factorial(k)


def _mul_trunc(a: Sequence[Fraction], b: Sequence[Fraction], order: int) -> list[Fraction]:
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: order + 1 - i]):
            if bj:
                out[i + j] += ai * bj
    return out


# ── frozen values ─────────────────────────────────────────────────────────

class Frozen:
    """Base of the package's immutable, validated value types.

    A subclass names its fields in ``_fields`` and sets them in its own
    ``__init__`` with ``_set_fields``.  Two values are equal when they
    are of one class and their field tuples are equal; a value hashes as its
    field tuple, reprs as ``Name(field=value, ...)`` and pickles as a call of
    its class on its fields.  Other attributes, such as a family's c1 and
    c2, play no part in these.  Assigning or deleting any attribute raises
    ``AttributeError``.  These are plain classes, not dataclasses, because
    ``@dataclass`` imports ``inspect`` and execs generated methods for each
    class, which every command paid at start-up.
    """

    __slots__ = ()   # so that a slotted subclass such as BucketNode has no __dict__
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "_fields" in vars(cls):
            get = operator.attrgetter(*cls._fields)
            if len(cls._fields) == 1:
                one = get
                get = lambda self: (one(self),)
            cls._values = staticmethod(get)
            cls.__match_args__ = cls._fields

    def _set_fields(self, *values: object) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values(self)


# ── degree-weight rules ───────────────────────────────────────────────────

class DegreeWeights(abc.ABC):
    """Sequence phi_0, phi_1, ... of non-negative degree weights."""

    @abc.abstractmethod
    def coeff(self, k: int) -> Fraction:
        """phi_k."""

    def compose(self, series: Sequence[Fraction], order: int) -> list[Fraction]:
        """Coefficients of phi(S(z)) through z^order, for S with S(0) = 0."""
        if series and series[0] != 0:
            raise ValueError("composition requires a series with zero constant term")
        # S^k starts at z^k, so coefficients past the order never contribute.
        bound = self.support_bound()
        top = order if bound is None else min(order, bound)
        acc = [Fraction(0)] * (order + 1)
        for k in range(top, -1, -1):
            acc = _mul_trunc(acc, series, order)
            acc[0] += self.coeff(k)
        return acc

    @abc.abstractmethod
    def scaled(self, factor: Fraction, stretch: Fraction) -> "DegreeWeights":
        """The rule with phi_k replaced by factor * stretch^k * phi_k."""

    @abc.abstractmethod
    def support_bound(self) -> int | None:
        """Largest k with phi_k nonzero, or None when infinitely many are."""

    @abc.abstractmethod
    def describe(self) -> dict:
        """JSON-friendly description for reports."""

    def is_degenerate(self) -> bool:
        bound = self.support_bound()
        return bound is not None and bound < 2


class ExplicitDegreeWeights(Frozen, DegreeWeights):
    """Finite list of degree weights; all higher ones are zero."""

    _fields = ("coefficients",)
    coefficients: tuple[Fraction, ...]

    def __init__(self, coefficients: Sequence[RationalLike]) -> None:
        coeffs = tuple(to_fraction(c) for c in coefficients)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        self._set_fields(coeffs)
        if not coeffs:
            raise InvalidWeightsError("at least one degree weight is required")
        if any(c < 0 for c in coeffs):
            raise InvalidWeightsError("degree weights must be non-negative")
        if coeffs[0] <= 0:
            raise InvalidWeightsError("the degree-0 weight must be positive")

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.coefficients):
            return self.coefficients[k]
        return Fraction(0)

    def scaled(self, factor: Fraction, stretch: Fraction) -> "ExplicitDegreeWeights":
        return ExplicitDegreeWeights(
            tuple(factor * stretch**k * c for k, c in enumerate(self.coefficients)))

    def support_bound(self) -> int | None:
        return len(self.coefficients) - 1

    def describe(self) -> dict:
        return {"kind": "list", "coefficients": [str(c) for c in self.coefficients]}


class AffineDegreeWeights(Frozen, DegreeWeights):
    """phi_0 = scale and (k+1) phi_{k+1} = (rate - slope*k) phi_k.

    Equivalently (1 + slope*t) phi'(t) = rate * phi(t): phi is
    scale * exp(rate*t) when slope = 0 and scale * (1 + slope*t)^(rate/slope)
    otherwise.  Every coefficient is non-negative exactly when rate >= 0 and,
    for slope > 0, rate/slope is an integer (then phi is a polynomial of
    that degree).
    """

    _fields = ("scale", "rate", "slope")
    scale: Fraction
    rate: Fraction
    slope: Fraction

    def __init__(self, scale: RationalLike, rate: RationalLike, slope: RationalLike) -> None:
        self._set_fields(to_fraction(scale), to_fraction(rate), to_fraction(slope))
        if self.scale <= 0:
            raise InvalidWeightsError("scale must be positive")
        if self.slope == 0:
            if self.rate < 0:
                raise InvalidWeightsError("a negative rate makes weights alternate in sign")
        elif self.rate < 0 or (self.slope > 0 and (self.rate / self.slope).denominator != 1):
            raise InvalidWeightsError(
                f"(1 + {shown(self.slope)} t)^{shown(self.rate / self.slope)} "
                f"has sign-alternating coefficients")

    def coeff(self, k: int) -> Fraction:
        # scale * prod_{i<k} (alpha - beta*i) / (q^k k!) with alpha, beta integers.
        q, (alpha, beta) = _common_scale((self.rate, self.slope))
        num = math.prod(alpha - beta * i for i in range(k))
        return Fraction(self.scale.numerator * num,
                        self.scale.denominator * q**k * math.factorial(k))

    def scaled(self, factor: Fraction, stretch: Fraction) -> "AffineDegreeWeights":
        return AffineDegreeWeights(self.scale * factor, self.rate * stretch,
                                   self.slope * stretch)

    def support_bound(self) -> int | None:
        if self.rate == 0:
            return 0
        if self.slope > 0:
            return int(self.rate / self.slope)
        return None

    def describe(self) -> dict:
        if self.slope == 0:
            return {"kind": "exponential", "scale": str(self.scale), "rate": str(self.rate)}
        return {
            "kind": "power",
            "scale": str(self.scale),
            "base": str(self.slope),
            "exponent": str(self.rate / self.slope),
        }


# ── weight model ──────────────────────────────────────────────────────────

class WeightModel(Frozen):
    """Bucket weights psi_1..psi_{b-1} plus a degree-weight rule.

    Invariants: phi_0 > 0, all weights non-negative, and some phi_k with
    k >= 2 is positive (otherwise no tree could branch and every tree would
    be a chain of buckets).  A rule with infinitely many positive weights
    must be an ``AffineDegreeWeights``: the totals and the classifier read
    any other rule only through its last nonzero weight.
    """

    _fields = ("b", "psi", "phi")
    b: int
    psi: tuple[Fraction, ...]
    phi: DegreeWeights

    def __init__(self, b: int, psi: Sequence[RationalLike], phi: DegreeWeights) -> None:
        _check_int(b, "bucket capacity", 1, InvalidWeightsError)
        psi = tuple(to_fraction(p) for p in psi)
        if len(psi) != b - 1:
            raise InvalidWeightsError(
                f"expected {shown(b - 1)} bucket weights for b={shown(b)}, got {len(psi)}")
        if any(p < 0 for p in psi):
            raise InvalidWeightsError("bucket weights must be non-negative")
        if phi.coeff(0) <= 0:
            raise InvalidWeightsError("the degree-0 weight must be positive")
        if phi.is_degenerate():
            raise InvalidWeightsError(
                "degenerate model: no degree weight phi_k with k >= 2 is positive, "
                "so all trees are label chains")
        if phi.support_bound() is None and not isinstance(phi, AffineDegreeWeights):
            raise InvalidWeightsError(
                "a degree rule of unbounded support must be an AffineDegreeWeights")
        self._set_fields(b, psi, phi)

    def psi_extended(self, k: int) -> Fraction:
        """psi_k for 1 <= k <= b, with psi_b := phi_0."""
        _check_int(k, "k")
        if not 1 <= k <= self.b:
            raise ValueError(f"k={shown(k)} outside 1..{self.b}")
        if k == self.b:
            return self.phi.coeff(0)
        return self.psi[k - 1]

    def phi_coefficients(self, through: int) -> list[Fraction]:
        _check_int(through, "through", 0)
        return [self.phi.coeff(k) for k in range(through + 1)]

    def scaled(self, a: RationalLike, s: RationalLike) -> "WeightModel":
        """Equivalent model with psi_k -> a^k s^-1 psi_k, phi_k -> a^b s^{k-1} phi_k.

        Rescaling multiplies every size-n tree weight by a^n / s and leaves
        the normalized tree distribution unchanged.
        """
        a = to_fraction(a)
        s = to_fraction(s)
        if a <= 0 or s <= 0:
            raise InvalidWeightsError("scaling factors must be positive")
        psi = tuple(a**k / s * p for k, p in zip(range(1, self.b), self.psi))
        phi = self.phi.scaled(a**self.b / s, s)
        return WeightModel(self.b, psi, phi)

    def describe(self) -> dict:
        return {
            "b": self.b,
            "psi": [str(p) for p in self.psi],
            "phi": self.phi.describe(),
        }


# ── grown families ────────────────────────────────────────────────────────

class FamilySpec(abc.ABC):
    """A parameterized growth rule, fixed by (b, c1, c2).

    The attachment weight of a node is affine in its bucket load and child
    count: c1 * capacity + c2 * (1 - degree).  Summing over all nodes of a
    size-n tree gives the normalizer c1 * n + c2, independent of the shape.
    """

    b: int
    c1: Fraction
    c2: Fraction

    def _hold(self, c1: Fraction, c2: Fraction) -> None:
        # Attributes, not fields: they follow from the parameters, so they
        # play no part in ==, hash or repr.
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)

    @abc.abstractmethod
    def describe(self) -> dict: ...

    def kappa(self) -> Fraction:
        """White-ball shift of the descendants urn and its Beta limit; c2 / c1."""
        return self.c2 / self.c1

    def connectivity(self, n: int) -> Fraction:
        """Total attachment weight of any size-n tree grown by this rule."""
        return self.c1 * n + self.c2

    def attachment_weight(self, capacity: int, degree: int) -> Fraction:
        return self.c1 * capacity + self.c2 * (1 - degree)


class BucketRecursive(Frozen, FamilySpec):
    """Uniform attachment: a node is chosen proportionally to its bucket load."""

    _fields = ("b",)

    def __init__(self, b: int) -> None:
        _check_int(b, "b", 1, InvalidWeightsError)
        self._set_fields(b)
        self._hold(Fraction(1), Fraction(0))

    def describe(self) -> dict:
        return {"family": "bucket-recursive", "b": self.b}


class DAryIncreasing(Frozen, FamilySpec):
    """Bounded branching: saturated buckets accept at most b*(d-1)+1 children."""

    _fields = ("b", "d")
    d: Fraction

    def __init__(self, b: int, d: RationalLike) -> None:
        _check_int(b, "b", 1, InvalidWeightsError)
        d = to_fraction(d)
        if d <= 1:
            raise InvalidWeightsError(f"d must exceed 1, got {shown(d)}")
        slots = (d - 1) * b
        if slots.denominator != 1:
            raise InvalidWeightsError(
                f"(d-1)*b must be a positive integer, got {shown(slots)}")
        self._set_fields(b, d)
        self._hold(d - 1, Fraction(1))

    def describe(self) -> dict:
        return {"family": "dary", "b": self.b, "d": str(self.d)}


class PlaneOriented(Frozen, FamilySpec):
    """Preferential attachment: weight grows with the current child count."""

    _fields = ("b", "alpha")
    alpha: Fraction

    def __init__(self, b: int, alpha: RationalLike) -> None:
        _check_int(b, "b", 1, InvalidWeightsError)
        alpha = to_fraction(alpha)
        if alpha <= 0:
            raise InvalidWeightsError(f"alpha must be positive, got {shown(alpha)}")
        self._set_fields(b, alpha)
        self._hold(alpha + 1, Fraction(-1))

    def describe(self) -> dict:
        return {"family": "plane-oriented", "b": self.b, "alpha": str(self.alpha)}


# Largest b whose canonical weights weights_of builds: the digits of
# psi_k = T_k grow like k!, so psi_1..psi_{b-1} cost O(b^2) to build.
MAX_MODEL_B = 1000


def weights_of(spec: FamilySpec) -> WeightModel:
    """Canonical weights of a family with psi_1 = 1, from (b, c1, c2) alone.

    psi_k = T_k = prod_{i<k} (c1*i + c2) for k < b.  The degree rule
    starts at phi_0 = T_b and obeys
    (k+1) phi_{k+1} = (b*c1 + c2 - c2*k) phi_k.
    """
    if spec.b > MAX_MODEL_B:
        raise InvalidWeightsError(
            f"b = {shown(spec.b)} is above {MAX_MODEL_B}, "
            "the largest capacity whose weights are built")
    totals = [Fraction(1)]
    for i in range(1, spec.b):
        totals.append(totals[-1] * spec.connectivity(i))
    phi = AffineDegreeWeights(totals[-1], spec.b * spec.c1 + spec.c2, spec.c2)
    return WeightModel(spec.b, tuple(totals[:-1]), phi)
