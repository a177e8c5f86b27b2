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
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from . import linalg
from .elements import MixedElement, add_term
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


def d(form):
    """Whitney-de Rham differential; consumes one coefficient degree."""
    algebra = form.algebra
    dim = algebra.subset.dim
    if form.degree >= dim:
        raise ValidationError("d on a top-degree form")
    if form.cap - 1 < 0:
        raise ValidationError("degree schedule exhausted")
    comps = []
    for data in form.comps:
        out = {}
        for forms, poly in data.items():
            for j in range(dim):
                if j in forms:
                    continue
                dp = poly.partial("base", j + 1)
                if dp.is_zero():
                    continue
                below = sum(1 for f in forms if f < j)
                if below % 2:
                    dp = -dp
                add_term(out, tuple(sorted(forms + (j,))), dp)
        comps.append(out)
    return WhitneyForm(algebra, form.degree + 1, form.cap - 1, comps)


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
    from .elements import TruncationPolicy

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
    fact = 1
    for v in range(2, pt.half_dim + 1):
        fact *= v
    power = power.scale(Scalar(rational(1, fact)))
    full = tuple(range(dim))
    for (alpha, beta, k, forms), coeff in power.terms.items():
        if forms == full:
            return coeff
    raise ValidationError("degenerate symplectic volume form")


def _sorted_sign(sequence):
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
                sign = _sorted_sign(u_set + t_set)
                coeff = weight * nu * Scalar(sign)
                if not coeff.is_zero():
                    images.append((t_set, coeff))
            table[s_set] = images
    return table


def hodge_star(form, pt):
    """Symplectic Hodge star; pointwise, so the coefficient cap is kept."""
    table = _star_constants(pt.half_dim, pt.pi)
    algebra = form.algebra
    comps = []
    for data in form.comps:
        out = {}
        for forms, poly in data.items():
            for target, coeff in table[forms]:
                add_term(out, target, poly.scale(coeff))
        comps.append(out)
    return WhitneyForm(algebra, algebra.subset.dim - form.degree, form.cap, comps)


# ----------------------------------------------------------------------
# Brylinski boundary


def brylinski_delta(form, pt):
    """Poisson-homology boundary via the two-sum formula on wedge monomials.

    On p dx^{s_1} ^ ... ^ dx^{s_q} the bracket-with-coefficient sum is the
    only survivor (coordinate brackets are constant), so

        delta(p dx^S) = sum_m (-1)^{m+1} {p, x^{s_m}} dx^{S minus s_m}.
    """
    if form.degree < 1:
        raise ValidationError("delta on a 0-form")
    algebra = form.algebra
    comps = []
    for data in form.comps:
        out = {}
        for forms, poly in data.items():
            for m, s in enumerate(forms):
                bracket = _poisson_with_coordinate(poly, s, pt)
                if bracket.is_zero():
                    continue
                if m % 2:
                    bracket = -bracket
                add_term(out, forms[:m] + forms[m + 1:], bracket)
        comps.append(out)
    return WhitneyForm(algebra, form.degree - 1, max(form.cap - 1, 0), comps)


def _poisson_with_coordinate(poly, s, pt):
    """{p, x^s} = sum_i Pi^{is} d_i p."""
    dim = poly.dim
    total = MixedElement.zero(dim)
    for i in range(dim):
        w = pt.pi[i][s]
        if w.is_zero():
            continue
        dp = poly.partial("base", i + 1)
        if not dp.is_zero():
            total = total + dp.scale(w)
    return total


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


def _form_basis(dim, degree, cap):
    monos = monomials_up_to(dim, cap)
    return [
        (forms, alpha)
        for forms in combinations(range(dim), degree)
        for alpha in monos
    ]


def _d_matrix(dim, degree, cap_domain):
    """Transposed matrix of d from degree-``degree`` forms (coeff cap
    cap_domain): one sparse ``{target index: Scalar}`` row per domain form."""
    target = _form_basis(dim, degree + 1, cap_domain - 1)
    index = {key: i for i, key in enumerate(target)}
    rows = []
    for forms, alpha in _form_basis(dim, degree, cap_domain):
        row = {}
        for j in range(dim):
            if j in forms or alpha[j] == 0:
                continue
            new_alpha = tuple(v - 1 if m == j else v for m, v in enumerate(alpha))
            below = sum(1 for f in forms if f < j)
            sign = -1 if below % 2 else 1
            row[index[(tuple(sorted(forms + (j,))), new_alpha)]] = Scalar(sign * alpha[j])
        rows.append(row)
    return rows, len(target)


def _delta_matrix(pt, degree, cap_domain):
    """Transposed matrix of the Brylinski boundary from degree-``degree``
    forms: one sparse ``{target index: Scalar}`` row per domain form."""
    dim = pt.dim
    target = _form_basis(dim, degree - 1, cap_domain - 1)
    index = {key: i for i, key in enumerate(target)}
    rows = []
    for forms, alpha in _form_basis(dim, degree, cap_domain):
        row = {}
        for m, s in enumerate(forms):
            outer_sign = -1 if m % 2 else 1
            for i in range(dim):
                w = pt.pi[i][s]
                if w.is_zero() or alpha[i] == 0:
                    continue
                new_alpha = tuple(v - 1 if q == i else v for q, v in enumerate(alpha))
                key = (forms[:m] + forms[m + 1:], new_alpha)
                row[index[key]] = w * Scalar(outer_sign * alpha[i])
        rows.append(row)
    return rows, len(target)


def cohomology_dims(subset, policy):
    """Whitney-de Rham Betti numbers under the descending cap schedule."""
    dim = subset.dim
    if policy.jet_order < dim:
        raise ValidationError("jet_order must be at least 2n for all form degrees")
    n_comp = len(subset.components())
    ranks = []
    dims = []
    for q in range(dim + 1):
        cap = policy.jet_order - q
        dims.append(len(_form_basis(dim, q, cap)))
        if q < dim:
            ranks.append(linalg.rank_sparse(*_d_matrix(dim, q, cap)))
        else:
            ranks.append(0)
    betti = []
    for q in range(dim + 1):
        incoming = ranks[q - 1] if q > 0 else 0
        betti.append(n_comp * (dims[q] - ranks[q] - incoming))
    return betti


def poisson_homology_dims(subset, pt, policy):
    """Brylinski homology dimensions on the reversed cap schedule."""
    dim = subset.dim
    if policy.jet_order < dim:
        raise ValidationError("jet_order must be at least 2n for all form degrees")
    n_comp = len(subset.components())
    ranks = []
    dims = []
    for q in range(dim + 1):
        cap = policy.jet_order - (dim - q)
        dims.append(len(_form_basis(dim, q, cap)))
        if q >= 1:
            ranks.append(linalg.rank_sparse(*_delta_matrix(pt, q, cap)))
        else:
            ranks.append(0)
    homology = []
    for q in range(dim + 1):
        outgoing = ranks[q]
        incoming = ranks[q + 1] if q + 1 <= dim else 0
        homology.append(n_comp * (dims[q] - outgoing - incoming))
    return homology


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
