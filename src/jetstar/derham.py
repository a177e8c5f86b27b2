"""Whitney-de Rham complex, symplectic Hodge star, Brylinski boundary.

Forms carry one polynomial coefficient per intersection component of the
model set and per sorted form-index set, truncated at an explicit
coefficient-degree cap.  The exterior derivative follows the descending cap
schedule (cap N - q at form degree q), which keeps the formal Poincare lemma
exact; the Brylinski complex lives on the star-image of that schedule
(cap N - 2n + q at degree q), which is what makes the duality table

    dim H^delta_q = dim H^{2n - q}_dR

an exact statement at truncation.  The Hodge star is solved degreewise from
its defining relation  alpha ^ (*beta) = Lambda^k(alpha, beta) nu  with
nu = omega^n / n! the symplectic volume form.

d and the Brylinski boundary are each one rule on a basis form x^alpha dx^S
(:func:`_d_rule`, :func:`_delta_rule`): :func:`d` and :func:`brylinski_delta`
extend it linearly, and the dimension counts pass it to linalg.homology_dims.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from itertools import combinations

from . import linalg
from .elements import MixedElement, TruncationPolicy, add_term
from .errors import DimensionMismatch, ValidationError
from .scalars import Scalar, rational
from .weyl import PoissonTensor
from .whitney import monomials_up_to


class WhitneyForm:
    """Differential form with per-component truncated polynomial data."""

    __slots__ = ("algebra", "degree", "cap", "comps")

    def __init__(self, algebra, degree, cap, comps=None):
        if not 0 <= degree <= algebra.subset.dim:
            raise ValidationError(f"form degree {degree} out of range")
        if cap < 0:
            raise ValidationError("coefficient cap exhausted")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "cap", cap)
        clean = []
        for ci in range(algebra.n_components):
            data = {}
            if comps and ci < len(comps):
                for forms, poly in comps[ci].items():
                    poly = poly.base_degree_filter(cap)
                    if not poly.is_zero():
                        data[tuple(forms)] = poly
            clean.append(data)
        object.__setattr__(self, "comps", tuple(clean))

    def __setattr__(self, name, value):
        raise AttributeError("WhitneyForm is immutable")

    # ------------------------------------------------------------------

    @staticmethod
    def zero(algebra, degree, cap):
        return WhitneyForm(algebra, degree, cap)

    def is_zero(self):
        return all(not data for data in self.comps)

    def component(self, ci, forms):
        return self.comps[ci].get(tuple(forms), MixedElement.zero(self.algebra.subset.dim))

    def __add__(self, other):
        self._check(other)
        comps = []
        for left, right in zip(self.comps, other.comps):
            data = dict(left)
            for forms, poly in right.items():
                add_term(data, forms, poly)
            comps.append(data)
        return WhitneyForm(self.algebra, self.degree, self.cap, comps)

    def __neg__(self):
        return self.scale(Scalar(-1))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        comps = [
            {forms: poly.scale(scalar) for forms, poly in data.items()}
            for data in self.comps
        ]
        return WhitneyForm(self.algebra, self.degree, self.cap, comps)

    def _check(self, other):
        if (
            not isinstance(other, WhitneyForm)
            or other.algebra.subset != self.algebra.subset
            or other.degree != self.degree
        ):
            raise ValidationError("form mismatch (subset or degree)")

    def __eq__(self, other):
        if not isinstance(other, WhitneyForm):
            return NotImplemented
        return (
            self.algebra.subset == other.algebra.subset
            and self.degree == other.degree
            and self.comps == other.comps
        )

    def __hash__(self):
        return hash((self.degree, tuple(frozenset(d.items()) for d in self.comps)))

    def __repr__(self):
        parts = []
        for ci, data in enumerate(self.comps):
            for forms, poly in sorted(data.items()):
                wedge = "^".join(f"dx{j + 1}" for j in forms) or "1"
                parts.append(f"[c{ci}] ({poly})*{wedge}")
        return "WhitneyForm(" + ("; ".join(parts) if parts else "0") + ")"


# ----------------------------------------------------------------------
# exterior derivative


def _lower(alpha, j):
    """The exponent of d/dx_j x^alpha (whose factor is alpha[j])."""
    return alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:]


def _d_rule(forms, alpha):
    """d on one basis form x^alpha dx^forms, as ((forms', alpha'), Scalar) pairs."""
    for j, e in enumerate(alpha):
        if e == 0 or j in forms:
            continue
        below = sum(1 for f in forms if f < j)
        yield (tuple(sorted(forms + (j,))), _lower(alpha, j)), Scalar(-e if below % 2 else e)


def _apply(rule, form, degree, cap):
    """The linear extension of a basis rule to a form of the given target
    degree and coefficient cap; h powers, fiber and form parts of each
    coefficient term ride along."""
    dim = form.algebra.subset.dim
    comps = []
    for data in form.comps:
        out = {}
        for forms, poly in data.items():
            for (alpha, beta, k, s), c in poly.terms.items():
                for (target, image), w in rule(forms, alpha):
                    add_term(out.setdefault(target, {}), (image, beta, k, s), c * w)
        comps.append({forms: MixedElement._raw(dim, terms) for forms, terms in out.items()})
    return WhitneyForm(form.algebra, degree, cap, comps)


def d(form):
    """Whitney-de Rham differential; consumes one coefficient degree."""
    if form.degree >= form.algebra.subset.dim:
        raise ValidationError("d on a top-degree form")
    if form.cap - 1 < 0:
        raise ValidationError("degree schedule exhausted")
    return _apply(_d_rule, form, form.degree + 1, form.cap - 1)


# ----------------------------------------------------------------------
# Poisson pairing, volume form, Hodge star


def _det(matrix):
    n = len(matrix)
    if n == 0:
        return Scalar.one()
    if n == 1:
        return matrix[0][0]
    total = Scalar.zero()
    for col in range(n):
        entry = matrix[0][col]
        if entry.is_zero():
            continue
        minor = [row[:col] + row[col + 1:] for row in matrix[1:]]
        cofactor = entry * _det(minor)
        total = total + (cofactor if col % 2 == 0 else -cofactor)
    return total


def _pair_wedges(pt, forms_a, forms_b):
    """det [ Pi^{a_i b_j} ]: the k-fold contraction of two wedge monomials."""
    matrix = [[pt.pi[a][b] for b in forms_b] for a in forms_a]
    return _det(matrix)


def lambda_pi(alpha_form, beta_form, pt):
    """Degreewise Poisson pairing of two equal-degree forms.

    Returns the coefficient object (a 0-form): on wedge monomials it is the
    product of coefficients times the determinant of pairwise contractions.
    """
    if alpha_form.degree != beta_form.degree:
        raise DimensionMismatch("lambda pairing needs equal degrees")
    algebra = alpha_form.algebra
    policy = algebra.policy
    comps = []
    for left, right in zip(alpha_form.comps, beta_form.comps):
        total = MixedElement.zero(algebra.subset.dim)
        for forms_a, poly_a in left.items():
            for forms_b, poly_b in right.items():
                weight = _pair_wedges(pt, forms_a, forms_b)
                if weight.is_zero():
                    continue
                total = total + poly_a.mul(poly_b, policy).scale(weight)
        comps.append({(): total} if not total.is_zero() else {})
    cap = min(policy.jet_order, alpha_form.cap + beta_form.cap)
    return WhitneyForm(algebra, 0, cap, comps)


def volume_coefficient(pt):
    """nu = omega^n / n! as a multiple of dx1^...^dx2n (exact Scalar)."""
    dim = pt.dim
    omega_matrix = pt.symplectic_form_matrix()
    wide = TruncationPolicy(pt.half_dim, 0, 0, 0)
    two_form = MixedElement.zero(dim)
    for i in range(dim):
        for j in range(i + 1, dim):
            w = omega_matrix[i][j]
            if w.is_zero():
                continue
            two_form = two_form + MixedElement.monomial(
                dim, w, forms=(i, j)
            )
    power = MixedElement.one(dim)
    for _ in range(pt.half_dim):
        power = power.mul(two_form, wide)
    power = power.scale(Scalar(rational(1, math.factorial(pt.half_dim))))
    full = tuple(range(dim))
    for (alpha, beta, k, forms), coeff in power.terms.items():
        if forms == full:
            return coeff
    raise ValidationError("degenerate symplectic volume form")


def sorted_sign(sequence):
    """Sign of the permutation sorting ``sequence`` (entries distinct)."""
    inversions = 0
    for i in range(len(sequence)):
        for j in range(i + 1, len(sequence)):
            if sequence[i] > sequence[j]:
                inversions += 1
    return -1 if inversions % 2 else 1


@lru_cache(maxsize=8)
def _star_constants(half_dim, pi):
    """dx^S -> [(T, coefficient)] solving  dx^U ^ (*dx^S) = Lambda(U,S) nu.

    Cached per Poisson tensor ``(half_dim, pi)``; the cache keeps the eight
    most recently used tensors.
    """
    pt = PoissonTensor(half_dim, pi)
    dim = pt.dim
    nu = volume_coefficient(pt)
    table = {}
    for k in range(dim + 1):
        for s_set in combinations(range(dim), k):
            images = []
            for t_set in combinations(range(dim), dim - k):
                u_set = tuple(m for m in range(dim) if m not in t_set)
                weight = _pair_wedges(pt, u_set, s_set)
                if weight.is_zero():
                    continue
                sign = sorted_sign(u_set + t_set)
                coeff = weight * nu * Scalar(sign)
                if not coeff.is_zero():
                    images.append((t_set, coeff))
            table[s_set] = images
    return table


def hodge_star(form, pt):
    """Symplectic Hodge star; pointwise, so the coefficient cap is kept."""
    table = _star_constants(pt.half_dim, pt.pi)

    def rule(forms, alpha):
        return (((target, alpha), coeff) for target, coeff in table[forms])

    return _apply(rule, form, form.algebra.subset.dim - form.degree, form.cap)


# ----------------------------------------------------------------------
# Brylinski boundary


def _delta_rule(pt, forms, alpha):
    """Brylinski delta on one basis form, as ((forms', alpha'), Scalar) pairs.

    Coordinate brackets are constant, so only the bracket with the
    coefficient survives:

        delta(x^alpha dx^S) = sum_m (-1)^m sum_i Pi^{i s_m} (d_i x^alpha) dx^{S minus s_m}.
    """
    for m, s in enumerate(forms):
        rest = forms[:m] + forms[m + 1:]
        for i, e in enumerate(alpha):
            w = pt.pi[i][s]
            if e == 0 or w.is_zero():
                continue
            yield (rest, _lower(alpha, i)), w * Scalar(-e if m % 2 else e)


def _delta(pt, dim):
    """The Brylinski rule of ``pt`` for forms on a ``dim``-dimensional subset."""
    if pt.dim != dim:
        raise DimensionMismatch(
            f"Poisson tensor of dimension {pt.dim} on a subset of dimension {dim}"
        )
    return partial(_delta_rule, pt)


def brylinski_delta(form, pt):
    """Poisson-homology boundary: the linear extension of :func:`_delta_rule`."""
    if form.degree < 1:
        raise ValidationError("delta on a 0-form")
    rule = _delta(pt, form.algebra.subset.dim)
    return _apply(rule, form, form.degree - 1, max(form.cap - 1, 0))


def delta_via_star(form, pt):
    """(-1)^{k+1} * d * : the dual route for the Brylinski boundary."""
    k = form.degree
    inner = hodge_star(form, pt)
    result = hodge_star(d(inner), pt)
    if k % 2 == 0:
        result = -result
    return result


# ----------------------------------------------------------------------
# cohomology / homology dimension counts


def cohomology_dims(subset, policy):
    """Whitney-de Rham Betti numbers under the descending cap schedule."""
    return _form_homology(subset, policy, _d_rule, +1)


def poisson_homology_dims(subset, pt, policy):
    """Brylinski homology dimensions on the reversed cap schedule."""
    return _form_homology(subset, policy, _delta(pt, subset.dim), -1)


def _form_homology(subset, policy, rule, step):
    """Homology of the form complex of ``rule`` (d: step +1, cap N - q at
    degree q; delta: step -1, cap N - 2n + q), times the component count."""
    dim = subset.dim
    if policy.jet_order < dim:
        raise ValidationError("jet_order must be at least 2n for all form degrees")
    bases = []
    for q in range(dim + 1):
        monos = monomials_up_to(dim, policy.jet_order - (q if step > 0 else dim - q))
        bases.append([(forms, alpha) for forms in combinations(range(dim), q) for alpha in monos])
    dims, _ = linalg.homology_dims(bases, lambda key: rule(*key), step)
    return [len(subset.components()) * h for h in dims]


def duality_table(subset, pt, policy):
    """Rows (q, dim H^delta_q, dim H^{2n-q}_dR); equality is the witness."""
    betti = cohomology_dims(subset, policy)
    return duality_rows(betti, poisson_homology_dims(subset, pt, policy))


def duality_rows(betti, homology):
    """Duality table rows from Betti numbers and Brylinski homology dims."""
    top = len(betti) - 1
    return [(q, homology[q], betti[top - q]) for q in range(top + 1)]


def random_form(rng, algebra, degree, cap, max_terms=3):
    """Seeded random form used by property checks."""
    dim = algebra.subset.dim
    monos = monomials_up_to(dim, cap)
    wedges = list(combinations(range(dim), degree))
    comps = []
    for _ in range(algebra.n_components):
        data = {}
        for _ in range(rng.randint(1, max_terms)):
            forms = wedges[rng.randrange(len(wedges))]
            alpha = monos[rng.randrange(len(monos))]
            coeff = Scalar(rng.randint(-3, 3))
            add_term(data, forms, MixedElement.monomial(dim, coeff, alpha=alpha))
        comps.append(data)
    return WhitneyForm(algebra, degree, cap, comps)
