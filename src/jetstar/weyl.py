"""The formal Weyl-algebra fiber over a constant Poisson tensor.

Provides the fiberwise Moyal-Weyl product in the symmetric (Weyl-ordered)
convention

    a o b = sum_k ((-i*h/2)^k / k!) mu(PiHat^k (a (x) b)),

computed as written: the levels PiHat^k are built by repeated
:func:`pi_hat`, each level becomes (h^k-shifted, weighted) factor pairs
(:func:`moyal_pairs`), and one :func:`~jetstar.elements.sum_of_products` call
multiplies and sums every pair, applying the truncation policy once to each
final term.  Laurent h windows (``hbar_min < 0``) are therefore exact.

(i/h)[B, a] for a one-form B, the step every Fedosov iteration repeats, is
:func:`ihbar_commutator`: the even levels of B o a and (-1)^{|a|} a o B
cancel, so it multiplies only the odd levels of B o a, each already divided
by h.  Also provided: the grading/filtration utilities and the homotopy pair
delta_op / delta_inv.  With this convention [y_i, y_j] = -i*h*Pi^{ij} on the
nose and the product is associative modulo the truncation policy.
"""

from __future__ import annotations

import math

from . import linalg
from .elements import MixedElement, add_term, sum_of_products
from .errors import DimensionMismatch, ValidationError
from .scalars import Scalar, rational


class PoissonTensor:
    """Constant antisymmetric invertible 2n x 2n tensor Pi^{ij}.

    ``omega`` is the exact matrix inverse of ``pi`` (pi * omega = id).  The
    default Darboux tensor pairs coordinates as {x_a, x_{n+a}} = 1.
    """

    __slots__ = ("half_dim", "pi", "omega", "pairs")

    def __init__(self, half_dim, pi):
        dim = 2 * half_dim
        if len(pi) != dim or any(len(row) != dim for row in pi):
            raise ValidationError("Poisson tensor must be 2n x 2n")
        matrix = tuple(
            tuple(v if isinstance(v, Scalar) else Scalar(rational(v)) for v in row)
            for row in pi
        )
        for a in range(dim):
            for b in range(dim):
                if matrix[a][b] != -matrix[b][a]:
                    raise ValidationError("Poisson tensor must be antisymmetric")
        inverse = linalg.invert([list(row) for row in matrix])
        if inverse is None:
            raise ValidationError("Poisson tensor must be invertible")
        object.__setattr__(self, "half_dim", half_dim)
        object.__setattr__(self, "pi", matrix)
        object.__setattr__(self, "omega", tuple(tuple(row) for row in inverse))
        object.__setattr__(
            self,
            "pairs",
            tuple(
                (a, b, matrix[a][b])
                for a in range(dim)
                for b in range(dim)
                if not matrix[a][b].is_zero()
            ),
        )

    def __setattr__(self, name, value):
        raise AttributeError("PoissonTensor is immutable")

    @property
    def dim(self):
        return 2 * self.half_dim

    @staticmethod
    def darboux(half_dim):
        dim = 2 * half_dim
        rows = [[Scalar.zero() for _ in range(dim)] for _ in range(dim)]
        for a in range(half_dim):
            rows[a][half_dim + a] = Scalar.one()
            rows[half_dim + a][a] = -Scalar.one()
        return PoissonTensor(half_dim, rows)

    @staticmethod
    def from_matrix_strings(half_dim, rows):
        return PoissonTensor(half_dim, [[rational(v) for v in row] for row in rows])

    def symplectic_form_matrix(self):
        """Matrix of the symplectic 2-form (the negated inverse of pi)."""
        return tuple(tuple(-v for v in row) for row in self.omega)

    def to_json(self):
        return {
            "half_dim": self.half_dim,
            "pi": [[str(v.re) for v in row] for row in self.pi],
        }

    def __repr__(self):
        return f"PoissonTensor(n={self.half_dim})"


def pi_hat(a, b, pt):
    """One application of the Poisson bidifferential to a tensor pair.

    Returns the formal sum  sum_{ij} Pi^{ij} (d_{y_i} a) (x) (d_{y_j} b)
    as a list of (weight, left, right) triples with nonzero factors.
    """
    if a.dim != b.dim or a.dim != pt.dim:
        raise DimensionMismatch("pi_hat arguments must share one dimension")
    out = []
    for i, j, weight in pt.pairs:
        left = a.partial("fiber", i + 1)
        if left.is_zero():
            continue
        right = b.partial("fiber", j + 1)
        if right.is_zero():
            continue
        out.append((weight, left, right))
    return out


def contraction_depth(a, b, policy):
    """The last level of a o b that can fall in the h window (level k takes
    k fiber derivatives of each factor and adds k powers of h)."""
    min_k = min(a.hbar_orders(), default=0) + min(b.hbar_orders(), default=0)
    return min(a.max_fiber_degree(), b.max_fiber_degree(), policy.hbar_order - min_k)


def _contraction_levels(a, b, pt, policy):
    """Yield (k, {(u, v): weight}) for PiHat^k applied to a (x) b."""
    if a.is_zero() or b.is_zero():
        return
    kmax = contraction_depth(a, b, policy)
    level = {(a, b): Scalar.one()}
    k = 0
    while level and k <= max(kmax, 0):
        yield k, level
        nxt = {}
        for (u, v), w in level.items():
            for piw, du, dv in pi_hat(u, v, pt):
                add_term(nxt, (du, dv), w * piw)
        level = nxt
        k += 1


def moyal_pairs(a, b, pt, policy):
    """Yield (k, c, u, v) with c = (-i/2)^k / k! * (PiHat^k weight of the
    pair): a o b is the sum of c * h^k * u v over every level-k pair."""
    half = Scalar(rational(-1, 2)) * Scalar.i()  # -i/2
    prefactor = Scalar.one()
    for k, level in _contraction_levels(a, b, pt, policy):
        if k > 0:
            prefactor = prefactor * half / Scalar(k)
        for (u, v), w in level.items():
            yield k, w * prefactor, u, v


def moyal(a, b, pt, policy):
    """Moyal-Weyl product, eagerly truncated by the policy.

    All pairs of :func:`moyal_pairs` go through one sum_of_products call, so
    the policy sees each final key exactly once.  Form-valued inputs are
    multiplied with the usual Koszul wedge signs; the fiber contractions
    themselves are parity-neutral.
    """
    pairs = [(u.scale(c).hbar_shift(k), v) for k, c, u, v in moyal_pairs(a, b, pt, policy)]
    return sum_of_products(a.dim, pairs, policy)


def star_commutator(a, b, pt, policy):
    """a o b - b o a (ungraded; intended for form-degree-0 inputs)."""
    return moyal(a, b, pt, policy) - moyal(b, a, pt, policy)


def ihbar_commutator(one_form, a, pt, policy):
    """(i/h)[B, a] = (i/h)(B o a - (-1)^{|a|} a o B) for a 1-form B.

    Level k of a o B is (-1)^{k+|a|} times level k of B o a, so the even
    levels cancel and each odd level doubles; only those are multiplied,
    already divided by h, so the top retained h order is exact.
    """
    if one_form.form_degrees() not in ([], [1]):
        raise ValidationError("ihbar_commutator expects a one-form")
    twice_i = Scalar(0, 2)
    pairs = [
        (u.scale(twice_i * c).hbar_shift(k - 1), v)
        for k, c, u, v in moyal_pairs(one_form, a, pt, policy.extended(extra_hbar=1))
        if k % 2
    ]
    return sum_of_products(a.dim, pairs, policy)


def fedosov_degree(a):
    """min {|beta| + 2k} over stored terms; +inf for the zero element."""
    return a.min_fedosov_degree()


def delta_op(a):
    """sum_i dx^i wedge d_{y_i} a."""
    terms = {}
    for (alpha, beta, k, forms), coeff in a.terms.items():
        for pos, e in enumerate(beta):
            if e == 0 or pos in forms:
                continue
            below = sum(1 for f in forms if f < pos)
            sign = -1 if below % 2 else 1
            new_beta = tuple(v - 1 if m == pos else v for m, v in enumerate(beta))
            key = (alpha, new_beta, k, tuple(sorted(forms + (pos,))))
            add_term(terms, key, coeff * (e if sign > 0 else -e))
    return MixedElement._raw(a.dim, terms)


def delta_inv(a):
    """The normalized homotopy inverse of delta_op.

    Acts on a component of fiber degree s and form degree t (s + t > 0) as
    (1/(s+t)) sum_i y^i iota(d/dx^i); kills the (0, 0) component.  Together
    with delta_op it satisfies  a = delta_op(delta_inv a) + delta_inv(
    delta_op a) + a_{00}  exactly.
    """
    terms = {}
    for (alpha, beta, k, forms), coeff in a.terms.items():
        s = sum(beta)
        t = len(forms)
        if s + t == 0:
            continue
        norm = Scalar(rational(1, s + t))
        for m, pos in enumerate(forms):
            sign = -1 if m % 2 else 1
            new_beta = tuple(v + 1 if q == pos else v for q, v in enumerate(beta))
            key = (alpha, new_beta, k, forms[:m] + forms[m + 1:])
            add = coeff * norm
            add_term(terms, key, add if sign > 0 else -add)
    return MixedElement._raw(a.dim, terms)


def exterior_d(a, policy):
    """Base exterior derivative  sum_j dx^j wedge d_{x_j} a."""
    pairs = [
        (MixedElement.form_var(a.dim, j), a.partial("base", j)) for j in range(1, a.dim + 1)
    ]
    return sum_of_products(a.dim, pairs, policy)


def poisson_bracket_base(f, g, pt, policy):
    """{f, g} = Pi^{ij} d_{x_i} f d_{x_j} g on base series."""
    pairs = [
        (f.partial("base", i + 1).scale(w), g.partial("base", j + 1)) for i, j, w in pt.pairs
    ]
    return sum_of_products(f.dim, pairs, policy)


def moyal_base(f, g, pt, policy):
    """Moyal-Weyl product directly on base series, bidifferential route.

    Independent of the fiber machinery: enumerates unordered contraction
    multi-indices over the nonzero Pi entries with multinomial weights.
    Serves as the flat-connection oracle for the Fedosov star product.
    """
    if not (f.is_base_series() and g.is_base_series()):
        raise ValidationError("moyal_base expects base series")
    pairs = pt.pairs
    result = MixedElement.zero(f.dim)
    half_mi = Scalar(rational(-1, 2)) * Scalar.i()
    min_k = min((k for _, _, k, _ in f.terms), default=0) + min(
        (k for _, _, k, _ in g.terms), default=0
    )
    max_k = min(policy.hbar_order - min_k, f.max_base_degree(), g.max_base_degree())

    for k in range(0, max_k + 1):
        for_order = MixedElement.zero(f.dim)

        def run(p_index, rem, weight, fac, left, right):
            nonlocal for_order
            if rem == 0:
                term = left.mul(right, policy).scale(weight / Scalar(fac))
                for_order = for_order + term
                return
            if p_index == len(pairs):
                return
            i, j, piw = pairs[p_index]
            run(p_index + 1, rem, weight, fac, left, right)
            l, r = left, right
            w = weight
            for m in range(1, rem + 1):
                l = l.partial("base", i + 1)
                r = r.partial("base", j + 1)
                if l.is_zero() or r.is_zero():
                    return
                w = w * piw
                run(p_index + 1, rem - m, w, fac * math.factorial(m), l, r)

        run(0, k, Scalar.one(), 1, f, g)
        if not for_order.is_zero():
            result = result + for_order.scale(half_mi ** k).hbar_shift(k, policy)
    return result.truncate(policy)
