"""Sparse multigraded elements of the truncated Weyl-bundle form algebra.

An element is a finite sum of terms

    c * x^alpha * y^beta * h^k * dx^S

with ``c`` a Gaussian-rational :class:`~jetstar.scalars.Scalar`, ``alpha`` and
``beta`` exponent vectors over the ``2n`` base/fiber variables, ``k`` an
integer power of the formal parameter ``h``, and ``S`` a strictly increasing
tuple of form-generator indices.  Terms are stored sparsely; zero
coefficients are never kept.  All operations are pure and eagerly truncated
by a :class:`TruncationPolicy`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DimensionMismatch, ValidationError
from .scalars import Scalar, rational


@dataclass(frozen=True)
class TruncationPolicy:
    """Truncation orders for every grading.

    ``half_dim``      n, the ambient dimension is 2n.
    ``jet_order``     max total base (x) degree retained.
    ``fedosov_order`` max fiber-plus-2*hbar degree |beta| + 2k retained.
    ``hbar_order``    max h power retained.
    ``hbar_min``      minimal h power allowed (0 for power series,
                      negative for Laurent windows).

    The degree schedule for objects at form degree (or derivative-order
    loss) k is ``schedule_cap(k) = jet_order - k``; it is applied by the
    Whitney/de Rham layers, while raw element truncation caps total base
    degree uniformly at ``jet_order``.
    """

    half_dim: int
    jet_order: int
    fedosov_order: int
    hbar_order: int
    hbar_min: int = 0

    def __post_init__(self):
        if self.half_dim < 1:
            raise ValidationError("half_dim must be >= 1")
        if self.jet_order < 0 or self.fedosov_order < 0:
            raise ValidationError("truncation orders must be >= 0")
        if self.hbar_min > self.hbar_order:
            raise ValidationError("hbar_min must not exceed hbar_order")

    @property
    def dim(self):
        return 2 * self.half_dim

    def schedule_cap(self, k):
        return self.jet_order - k

    def keeps(self, key):
        alpha, beta, k, forms = key
        if sum(alpha) > self.jet_order:
            return False
        if sum(beta) + 2 * k > self.fedosov_order:
            return False
        return self.hbar_min <= k <= self.hbar_order

    def extended(self, extra_hbar=0, extra_fedosov=0, extra_jet=0):
        """Loosened policy for intermediate results of fused operations."""
        return TruncationPolicy(
            self.half_dim,
            self.jet_order + extra_jet,
            self.fedosov_order + extra_fedosov,
            self.hbar_order + extra_hbar,
            self.hbar_min,
        )


def _zero_exponents(dim):
    return (0,) * dim


def _merge_forms(s_a, s_b):
    """Merged sorted form tuple and shuffle sign; (None, 0) on overlap."""
    if not s_a:
        return s_b, 1
    if not s_b:
        return s_a, 1
    inversions = 0
    for i in s_a:
        if i in s_b:
            return None, 0
        for j in s_b:
            if i > j:
                inversions += 1
    merged = tuple(sorted(s_a + s_b))
    return merged, (-1 if inversions % 2 else 1)


def _sort_key(key):
    alpha, beta, k, forms = key
    return (len(forms), forms, k, sum(alpha), alpha, sum(beta), beta)


def add_term(terms, key, coeff):
    """Add ``coeff`` at ``key`` of a sparse term map, dropping a zero sum.

    Works for any coefficient type with ``+`` and ``is_zero`` (scalars, and
    elements used as coefficients of form or chain maps).
    """
    acc = terms.get(key)
    total = coeff if acc is None else acc + coeff
    if total.is_zero():
        terms.pop(key, None)
    else:
        terms[key] = total


def sum_of_products(dim, pairs, policy):
    """The element  sum left.mul(right)  over ``(left, right)`` pairs.

    Products are graded-commutative (Koszul wedge signs) and accumulate into
    one term map.  ``policy`` is applied once, to each final product key, so
    a factor carrying an h shift is truncated by the h power of the product,
    never by that of the unshifted factors.
    """
    if policy.dim != dim:
        raise DimensionMismatch("policy dimension does not match elements")
    keeps = policy.keeps
    terms = {}
    for left, right in pairs:
        right_terms = right.terms.items()
        for (a1, b1, k1, s1), c1 in left.terms.items():
            for (a2, b2, k2, s2), c2 in right_terms:
                forms, sign = _merge_forms(s1, s2)
                if forms is None:
                    continue
                key = (
                    tuple(x + y for x, y in zip(a1, a2)),
                    tuple(x + y for x, y in zip(b1, b2)),
                    k1 + k2,
                    forms,
                )
                if not keeps(key):
                    continue
                coeff = c1 * c2
                if sign < 0:
                    coeff = -coeff
                # add_term inlined: this is the innermost loop of every product
                acc = terms.get(key)
                new = coeff if acc is None else acc + coeff
                if new.is_zero():
                    terms.pop(key, None)
                else:
                    terms[key] = new
    return MixedElement._raw(dim, terms)


class MixedElement:
    """Immutable sparse element; see module docstring for the term model."""

    __slots__ = ("dim", "terms", "_hash")

    def __init__(self, dim, terms=None):
        object.__setattr__(self, "dim", dim)
        clean = {}
        if terms:
            for key, coeff in terms.items():
                if not isinstance(coeff, Scalar):
                    coeff = Scalar(coeff)
                if coeff.is_zero():
                    continue
                clean[key] = coeff
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _raw(cls, dim, terms):
        """Internal constructor for term maps already in invariant form."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "dim", dim)
        object.__setattr__(obj, "terms", terms)
        object.__setattr__(obj, "_hash", None)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("MixedElement is immutable")

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def zero(dim):
        return MixedElement(dim)

    @staticmethod
    def scalar(dim, value):
        key = (_zero_exponents(dim), _zero_exponents(dim), 0, ())
        return MixedElement(dim, {key: value if isinstance(value, Scalar) else Scalar(value)})

    @staticmethod
    def one(dim):
        return MixedElement.scalar(dim, Scalar.one())

    @staticmethod
    def base_var(dim, j):
        """x_j, 1-based."""
        _check_index(dim, j)
        alpha = tuple(1 if m == j - 1 else 0 for m in range(dim))
        return MixedElement(dim, {(alpha, _zero_exponents(dim), 0, ()): Scalar.one()})

    @staticmethod
    def fiber_var(dim, j):
        """y_j, 1-based."""
        _check_index(dim, j)
        beta = tuple(1 if m == j - 1 else 0 for m in range(dim))
        return MixedElement(dim, {(_zero_exponents(dim), beta, 0, ()): Scalar.one()})

    @staticmethod
    def form_var(dim, j):
        """dx_j, 1-based."""
        _check_index(dim, j)
        return MixedElement(dim, {(_zero_exponents(dim), _zero_exponents(dim), 0, (j - 1,)): Scalar.one()})

    @staticmethod
    def hbar(dim, power=1):
        return MixedElement(dim, {(_zero_exponents(dim), _zero_exponents(dim), power, ()): Scalar.one()})

    @staticmethod
    def monomial(dim, coeff, alpha=None, beta=None, k=0, forms=()):
        alpha = tuple(alpha) if alpha is not None else _zero_exponents(dim)
        beta = tuple(beta) if beta is not None else _zero_exponents(dim)
        return MixedElement(dim, {(alpha, beta, k, tuple(forms)): coeff})

    # ------------------------------------------------------------------
    # inspection

    def is_zero(self):
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: _sort_key(item[0]))

    def coefficient(self, alpha, beta=None, k=0, forms=()):
        beta = tuple(beta) if beta is not None else _zero_exponents(self.dim)
        return self.terms.get((tuple(alpha), beta, k, tuple(forms)), Scalar.zero())

    def max_base_degree(self):
        return max((sum(a) for a, _, _, _ in self.terms), default=0)

    def max_fiber_degree(self):
        return max((sum(b) for _, b, _, _ in self.terms), default=0)

    def form_degrees(self):
        return sorted({len(s) for _, _, _, s in self.terms})

    def min_fedosov_degree(self):
        """min |beta| + 2k over stored terms; +inf for the zero element."""
        if not self.terms:
            return math.inf
        return min(sum(b) + 2 * k for _, b, k, _ in self.terms)

    def hbar_orders(self):
        return sorted({k for _, _, k, _ in self.terms})

    def is_base_series(self):
        """No fiber variables and no form generators."""
        return all(sum(b) == 0 and not s for _, b, _, s in self.terms)

    # ------------------------------------------------------------------
    # linear structure

    def __add__(self, other):
        self._check_same_dim(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            add_term(terms, key, coeff)
        return MixedElement._raw(self.dim, terms)

    def __neg__(self):
        return MixedElement._raw(self.dim, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        if not isinstance(scalar, Scalar):
            scalar = Scalar(scalar)
        if scalar.is_zero():
            return MixedElement.zero(self.dim)
        return MixedElement._raw(self.dim, {k: c * scalar for k, c in self.terms.items()})

    # ------------------------------------------------------------------
    # graded product

    def mul(self, other, policy):
        """Graded-commutative product, eagerly truncated by ``policy``."""
        self._check_same_dim(other)
        return sum_of_products(self.dim, ((self, other),), policy)

    def hbar_shift(self, shift, policy=None):
        """Multiply by h**shift; truncates when a policy is given."""
        terms = {}
        for (a, b, k, s), c in self.terms.items():
            key = (a, b, k + shift, s)
            if policy is not None and not policy.keeps(key):
                continue
            terms[key] = c
        return MixedElement._raw(self.dim, terms)

    # ------------------------------------------------------------------
    # derivations and grading

    def partial(self, kind, j):
        """Exact partial derivative in x_j ('base') or y_j ('fiber'), 1-based."""
        _check_index(self.dim, j)
        if kind not in ("base", "fiber"):
            raise ValidationError(f"unknown derivative kind {kind!r}")
        pos = j - 1
        terms = {}
        for (a, b, k, s), c in self.terms.items():
            exps = a if kind == "base" else b
            e = exps[pos]
            if e == 0:
                continue
            new_exps = tuple(v - 1 if m == pos else v for m, v in enumerate(exps))
            key = (new_exps, b, k, s) if kind == "base" else (a, new_exps, k, s)
            add_term(terms, key, c * e)
        return MixedElement._raw(self.dim, terms)

    def grade_filter(self, s, k):
        """The component with fiber degree s and h power k."""
        return MixedElement._raw(
            self.dim,
            {key: c for key, c in self.terms.items() if sum(key[1]) == s and key[2] == k},
        )

    def fiber_zero_part(self):
        return self.fiber_degree_filter(0)

    def fiber_degree_filter(self, cap):
        """Drop terms of total fiber degree above cap."""
        return MixedElement._raw(
            self.dim, {key: c for key, c in self.terms.items() if sum(key[1]) <= cap}
        )

    def hbar_coefficient(self, k):
        """Element with the h^k part, with the h power stripped to zero."""
        terms = {}
        for (a, b, kk, s), c in self.terms.items():
            if kk == k:
                terms[(a, b, 0, s)] = c
        return MixedElement._raw(self.dim, terms)

    def form_parity_flip(self):
        """Negate odd-form-degree terms (Koszul parity involution)."""
        return MixedElement._raw(
            self.dim,
            {key: (-c if len(key[3]) % 2 else c) for key, c in self.terms.items()},
        )

    def truncate(self, policy):
        return MixedElement._raw(
            self.dim, {key: c for key, c in self.terms.items() if policy.keeps(key)}
        )

    # ------------------------------------------------------------------
    # base-variable substitution (used by the Whitney jet machinery)

    def shift_base(self, offsets):
        """Substitute x_j -> x_j + offsets[j]; offsets are exact rationals."""
        if len(offsets) != self.dim:
            raise DimensionMismatch("offset vector has wrong length")
        offs = [o if isinstance(o, Scalar) else Scalar(rational(o)) for o in offsets]
        result = {}
        for (a, b, k, s), c in self.terms.items():
            expansions = [((0,) * self.dim, c)]
            for pos, exp in enumerate(a):
                if exp == 0 or offs[pos].is_zero():
                    if exp:
                        expansions = [
                            (tuple(v if m != pos else exp for m, v in enumerate(al)), cf)
                            for al, cf in expansions
                        ]
                    continue
                new_exp = []
                for al, cf in expansions:
                    power = Scalar.one()
                    for kept in range(exp, -1, -1):
                        binom = math.comb(exp, kept)
                        factor = cf * binom * power
                        new_exp.append(
                            (tuple(v if m != pos else kept for m, v in enumerate(al)), factor)
                        )
                        power = power * offs[pos]
                expansions = new_exp
            for alpha, coeff in expansions:
                add_term(result, (alpha, b, k, s), coeff)
        return MixedElement._raw(self.dim, result)

    def substitute_base(self, j, value):
        """Substitute x_j := value (an exact rational), 1-based."""
        _check_index(self.dim, j)
        val = value if isinstance(value, Scalar) else Scalar(rational(value))
        pos = j - 1
        result = {}
        for (a, b, k, s), c in self.terms.items():
            coeff = c * val ** a[pos]
            if coeff.is_zero():
                continue
            key = (tuple(v if m != pos else 0 for m, v in enumerate(a)), b, k, s)
            add_term(result, key, coeff)
        return MixedElement._raw(self.dim, result)

    def base_degree_filter(self, cap):
        """Drop terms of total base degree above cap."""
        return MixedElement._raw(
            self.dim, {key: c for key, c in self.terms.items() if sum(key[0]) <= cap}
        )

    # ------------------------------------------------------------------
    # equality / printing

    def _check_same_dim(self, other):
        if not isinstance(other, MixedElement):
            raise TypeError("expected a MixedElement")
        if self.dim != other.dim:
            raise DimensionMismatch(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __eq__(self, other):
        if not isinstance(other, MixedElement):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        cached = self._hash
        if cached is None:
            cached = hash((self.dim, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __repr__(self):
        return f"MixedElement({self})"

    def __str__(self):
        return self.to_str()

    def to_str(self):
        """Canonical printing in sorted key order; parses back to itself."""
        if not self.terms:
            return "0"
        parts = []
        for (a, b, k, s), c in self.sorted_terms():
            factors = []
            for pos, e in enumerate(a):
                if e:
                    factors.append(f"x{pos + 1}" + (f"^{e}" if e != 1 else ""))
            for pos, e in enumerate(b):
                if e:
                    factors.append(f"y{pos + 1}" + (f"^{e}" if e != 1 else ""))
            if k:
                factors.append("h" + (f"^{k}" if k != 1 else ""))
            for pos in s:
                factors.append(f"dx{pos + 1}")
            coeff_str = str(c)
            if factors:
                if coeff_str == "1":
                    parts.append("*".join(factors))
                else:
                    parts.append(f"({coeff_str})*" + "*".join(factors))
            else:
                if c.im == 0 and c.re >= 0:
                    parts.append(coeff_str)
                else:
                    parts.append(f"({coeff_str})")
        return " + ".join(parts)


def _check_index(dim, j):
    if not 1 <= j <= dim:
        raise ValidationError(f"variable index {j} out of range 1..{dim}")
