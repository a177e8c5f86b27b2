"""Hochschild/cyclic chain operators on truncated Whitney algebras.

A :class:`FiniteAlgebra` is an exact structure-constant table over the
single-component truncated jet algebra, either commutative (plain truncated
multiplication tensored with an h window) or deformed by a star product.
Deformed tables are truncated by the total degree |alpha| + 2j <= total_cap,
which is a star-ideal for Darboux/Moyal products; associativity of every
built table is verified exhaustively, so the chain identities b^2 = 0,
B^2 = 0 and bB + Bb = 0 hold on the nose.

The chain-to-form comparison maps carry the 1/k! normalization on mu, which
makes  mu o B = d o mu  hold with constant 1 and  mu o eps = id.
"""

from __future__ import annotations

from itertools import permutations, product

from . import linalg
from .derham import WhitneyForm, brylinski_delta
from .elements import MixedElement, add_term
from .errors import GuardrailError, ValidationError
from .fedosov import star
from .scalars import Scalar, rational
from .whitney import monomials_up_to

MAX_ALGEBRA_DIM = 12
MAX_CHAIN_DEGREE = 3


class FiniteAlgebra:
    """Finite-dimensional truncated (possibly deformed) Whitney algebra."""

    def __init__(self, walg, hbar_max, fd=None, total_cap=None, x_cap=None):
        if walg.n_components != 1:
            raise ValidationError(
                "FiniteAlgebra needs a single intersection component; "
                "Hochschild data of a disjoint union is the sum over components"
            )
        policy = walg.policy
        dim = walg.subset.dim
        self.walg = walg
        self.fd = fd
        self.deformed = fd is not None
        self.hbar_max = hbar_max
        if self.deformed and total_cap is None:
            total_cap = policy.jet_order
        if self.deformed:
            if total_cap > policy.jet_order:
                raise ValidationError("total_cap must not exceed jet_order")
            if hbar_max > policy.hbar_order:
                raise ValidationError("hbar window exceeds the policy h order")
        self.total_cap = total_cap
        if total_cap is not None:
            self.x_cap = total_cap if x_cap is None else min(x_cap, total_cap)
        else:
            self.x_cap = policy.jet_order if x_cap is None else x_cap
        self.basis = algebra_basis(dim, hbar_max, self.x_cap, total_cap)
        self.index = {key: i for i, key in enumerate(self.basis)}
        self.dim = len(self.basis)
        self.unit = self.index[((0,) * dim, 0)]
        self._table = {}
        self._build_table()
        self._assert_associative()

    # ------------------------------------------------------------------

    def _keep(self, alpha, j):
        if j < 0 or j > self.hbar_max or sum(alpha) > self.x_cap:
            return None
        if self.total_cap is not None and sum(alpha) + 2 * j > self.total_cap:
            return None
        return self.index.get((alpha, j))

    def _build_table(self):
        dim = self.walg.subset.dim
        mono_products = {}
        for a_idx, (alpha, ja) in enumerate(self.basis):
            for b_idx, (beta, jb) in enumerate(self.basis):
                combo = mono_products.get((alpha, beta))
                if combo is None:
                    combo = self._monomial_product(alpha, beta, dim)
                    mono_products[(alpha, beta)] = combo
                entry = {}
                for (gamma, k), coeff in combo.items():
                    idx = self._keep(gamma, ja + jb + k)
                    if idx is not None:
                        add_term(entry, idx, coeff)
                if entry:
                    self._table[(a_idx, b_idx)] = entry

    def _monomial_product(self, alpha, beta, dim):
        """x^alpha * x^beta expanded as {(gamma, hbar power): Scalar}."""
        if self.deformed:
            f = MixedElement.monomial(dim, Scalar.one(), alpha=alpha)
            g = MixedElement.monomial(dim, Scalar.one(), alpha=beta)
            series = star(f, g, self.fd)
            out = {}
            for (gamma, _, k, _), coeff in series.terms.items():
                out[(gamma, k)] = coeff
            return out
        gamma = tuple(a + b for a, b in zip(alpha, beta))
        return {(gamma, 0): Scalar.one()}

    def product(self, a_idx, b_idx):
        """Structure constants of basis[a] * basis[b] as {index: Scalar}."""
        return self._table.get((a_idx, b_idx), {})

    def _assert_associative(self):
        for a in range(self.dim):
            for b in range(self.dim):
                ab = self.product(a, b)
                for c in range(self.dim):
                    left = {}
                    for m, w in ab.items():
                        for t, v in self.product(m, c).items():
                            add_term(left, t, w * v)
                    right = {}
                    for m, w in self.product(b, c).items():
                        for t, v in self.product(a, m).items():
                            add_term(right, t, w * v)
                    if left != right:
                        raise ValidationError(
                            "product table is not associative at the chosen caps"
                        )

    def element_index(self, alpha, j=0):
        idx = self.index.get((tuple(alpha), j))
        if idx is None:
            raise ValidationError("element outside the algebra basis")
        return idx

    def describe(self):
        return {
            "subset": self.walg.subset.name,
            "dim": self.dim,
            "deformed": self.deformed,
            "hbar_max": self.hbar_max,
            "x_cap": self.x_cap,
            "total_cap": self.total_cap,
        }

    def __repr__(self):
        kind = "deformed" if self.deformed else "commutative"
        return f"FiniteAlgebra({self.walg.subset.name}, {kind}, dim={self.dim})"


def algebra_basis(dim, hbar_max, x_cap, total_cap=None):
    """Sorted basis keys (alpha, j) of a FiniteAlgebra: |alpha| <= x_cap,
    j <= hbar_max and, when given, |alpha| + 2j <= total_cap."""
    basis = [
        (alpha, j)
        for j in range(hbar_max + 1)
        for alpha in monomials_up_to(dim, x_cap)
        if total_cap is None or sum(alpha) + 2 * j <= total_cap
    ]
    basis.sort(key=lambda key: (key[1], sum(key[0]), key[0]))
    return basis


class ChainVector:
    """Sparse linear combination of (q+1)-fold elementary tensors."""

    __slots__ = ("q", "terms", "normalized")

    def __init__(self, q, terms=None, normalized=True):
        object.__setattr__(self, "q", q)
        clean = {}
        for key, coeff in (terms or {}).items():
            if not coeff.is_zero():
                clean[tuple(key)] = coeff
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "normalized", normalized)

    def __setattr__(self, name, value):
        raise AttributeError("ChainVector is immutable")

    @staticmethod
    def zero(q, normalized=True):
        return ChainVector(q, {}, normalized)

    @staticmethod
    def elementary(indices, normalized=True):
        return ChainVector(len(indices) - 1, {tuple(indices): Scalar.one()}, normalized)

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if other.q != self.q:
            raise ValidationError("chain degrees disagree")
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            add_term(terms, key, coeff)
        return ChainVector(self.q, terms, self.normalized and other.normalized)

    def __sub__(self, other):
        return self + other.scale(Scalar(-1))

    def scale(self, scalar):
        return ChainVector(
            self.q, {k: c * scalar for k, c in self.terms.items()}, self.normalized
        )

    def hbar_weight_part(self, algebra, weight):
        """Sub-chain whose slots carry total h power ``weight``."""
        terms = {
            key: c
            for key, c in self.terms.items()
            if sum(algebra.basis[i][1] for i in key) == weight
        }
        return ChainVector(self.q, terms, self.normalized)

    def strip_single_hbar(self, algebra):
        """Replace the unique h^1 slot of each tensor by its h^0 twin."""
        terms = {}
        for key, coeff in self.terms.items():
            marked = [m for m, i in enumerate(key) if algebra.basis[i][1] == 1]
            if len(marked) != 1:
                raise ValidationError("chain is not of pure h weight one")
            m = marked[0]
            alpha, _ = algebra.basis[key[m]]
            twin = algebra.element_index(alpha, 0)
            add_term(terms, key[:m] + (twin,) + key[m + 1:], coeff)
        return ChainVector(self.q, terms, self.normalized)

    def __eq__(self, other):
        if not isinstance(other, ChainVector):
            return NotImplemented
        return self.q == other.q and self.terms == other.terms

    def __repr__(self):
        return f"ChainVector(q={self.q}, terms={len(self.terms)})"


def _accumulate(terms, key, coeff, algebra, normalized):
    """Add a chain term; the normalized complex drops degenerate tensors
    (the unit in a position >= 1)."""
    if not (normalized and algebra.unit in key[1:]):
        add_term(terms, key, coeff)


def hochschild_b(chain, algebra):
    """Alternating-sum Hochschild boundary using the product table."""
    q = chain.q
    if q < 1:
        raise ValidationError("hochschild_b needs chain degree >= 1")
    terms = {}
    for key, coeff in chain.terms.items():
        for i in range(q):
            sign = Scalar(-1 if i % 2 else 1)
            for idx, w in algebra.product(key[i], key[i + 1]).items():
                new_key = key[:i] + (idx,) + key[i + 2:]
                _accumulate(terms, new_key, coeff * sign * w, algebra, chain.normalized)
        sign = Scalar(-1 if q % 2 else 1)
        for idx, w in algebra.product(key[q], key[0]).items():
            new_key = (idx,) + key[1:q]
            _accumulate(terms, new_key, coeff * sign * w, algebra, chain.normalized)
    return ChainVector(q - 1, terms, chain.normalized)


def connes_B(chain, algebra):
    """Connes boundary on the normalized complex (unit insertion)."""
    if not chain.normalized:
        raise ValidationError("connes_B is defined on the normalized complex")
    q = chain.q
    terms = {}
    for key, coeff in chain.terms.items():
        for i in range(q + 1):
            sign = Scalar(-1 if (q * i) % 2 else 1)
            rotated = key[i:] + key[:i]
            new_key = (algebra.unit,) + rotated
            _accumulate(terms, new_key, coeff * sign, algebra, True)
    return ChainVector(q + 1, terms, True)


def mu(chain, algebra):
    """(1/q!) f0 df1 ^ ... ^ dfq at h = 0, as a Whitney form.

    Tensors with any slot carrying a positive h power evaluate to zero.
    The output cap is the algebra's own schedule x_cap - q: the quotient
    forgets products above x_cap, so the form side must as well for
    mu o b = 0 to be exact.
    """
    walg = algebra.walg
    dim = walg.subset.dim
    q = chain.q
    cap = algebra.x_cap - q
    if cap < 0:
        raise ValidationError("degree schedule exhausted for mu")
    fact = 1
    for v in range(2, q + 1):
        fact *= v
    norm = Scalar(rational(1, fact))
    data = {}
    for key, coeff in chain.terms.items():
        if any(algebra.basis[i][1] != 0 for i in key):
            continue
        alpha0 = algebra.basis[key[0]][0]
        base = MixedElement.monomial(dim, coeff * norm, alpha=alpha0)
        partial_forms = {(): base}
        for slot in key[1:]:
            alpha = algebra.basis[slot][0]
            next_forms = {}
            for forms, poly in partial_forms.items():
                for j in range(dim):
                    if alpha[j] == 0 or j in forms:
                        continue
                    dmono = tuple(v - 1 if m == j else v for m, v in enumerate(alpha))
                    factor = MixedElement.monomial(dim, Scalar(alpha[j]), alpha=dmono)
                    term = poly.mul(factor, walg.policy)
                    if term.is_zero():
                        continue
                    above = sum(1 for f in forms if f > j)
                    if above % 2:
                        term = -term
                    add_term(next_forms, tuple(sorted(forms + (j,))), term)
            partial_forms = next_forms
            if not partial_forms:
                break
        for forms, poly in partial_forms.items():
            add_term(data, forms, poly)
    return WhitneyForm(walg, q, cap, [data])


def antisymmetrize(form, algebra):
    """HKR section  eps(f0 dx^S) = sum_sigma sgn(sigma) f0 (x) x_{sigma(S)}."""
    walg = algebra.walg
    q = form.degree
    terms = {}
    for forms, poly in form.comps[0].items():
        coordinate_slots = [algebra.element_index(_unit_exponent(walg.subset.dim, s)) for s in forms]
        for (alpha, _, k, _), coeff in poly.terms.items():
            if k != 0:
                raise ValidationError("antisymmetrize expects h-free forms")
            slot0 = algebra.element_index(alpha, 0)
            for sigma in permutations(range(q)):
                sign = _perm_sign(sigma)
                key = (slot0,) + tuple(coordinate_slots[sigma[m]] for m in range(q))
                _accumulate(terms, key, coeff * Scalar(sign), algebra, True)
    return ChainVector(q, terms, True)


def _unit_exponent(dim, pos):
    return tuple(1 if m == pos else 0 for m in range(dim))


def _perm_sign(sigma):
    inversions = 0
    for i in range(len(sigma)):
        for j in range(i + 1, len(sigma)):
            if sigma[i] > sigma[j]:
                inversions += 1
    return -1 if inversions % 2 else 1


def form_proportionality(left, right):
    """kappa with left = kappa * right, None when right = 0 = left.

    Raises ValidationError when no single constant works.
    """
    if right.is_zero():
        if left.is_zero():
            return None
        raise ValidationError("no proportionality constant exists")
    kappa = None
    for data_l, data_r in zip(left.comps, right.comps):
        for forms, poly in data_r.items():
            for key, coeff in poly.terms.items():
                other = data_l.get(forms, MixedElement.zero(poly.dim)).terms.get(
                    key, Scalar.zero()
                )
                candidate = other / coeff
                if kappa is None:
                    kappa = candidate
                elif kappa != candidate:
                    raise ValidationError("no proportionality constant exists")
    if left != right.scale(kappa):
        raise ValidationError("no proportionality constant exists")
    return kappa


def e1_probe(form, algebra):
    """First-page differential probe on a decomposable form.

    Computes b_star(eps(form)) over the deformed table, asserts the h^0 part
    vanishes, applies mu to the h^1 coefficient and fits the constant kappa
    against the Brylinski boundary of ``form``.  Returns (mu_form, report).
    """
    if not algebra.deformed:
        raise ValidationError("e1_probe needs a deformed algebra")
    chain = antisymmetrize(form, algebra)
    boundary = hochschild_b(chain, algebra)
    h0 = boundary.hbar_weight_part(algebra, 0)
    if not h0.is_zero():
        raise ValidationError("h^0 part of the deformed boundary is nonzero")
    h1 = boundary.hbar_weight_part(algebra, 1).strip_single_hbar(algebra)
    image = mu(h1, algebra)
    delta_form = brylinski_delta(form, algebra.fd.pt)
    report = {"q": form.degree, "delta_zero": delta_form.is_zero()}
    if delta_form.is_zero():
        report["kappa"] = None
        report["matched"] = image.is_zero()
    else:
        kappa = form_proportionality(image, delta_form)
        report["kappa"] = str(kappa) if kappa is not None else None
        report["matched"] = True
    return image, report


def check_hochschild_size(algebra_dim, q_max):
    """Raise GuardrailError when hochschild_dims would be too large."""
    if algebra_dim > MAX_ALGEBRA_DIM:
        raise GuardrailError(f"algebra dimension {algebra_dim} exceeds {MAX_ALGEBRA_DIM}")
    if q_max > MAX_CHAIN_DEGREE:
        raise GuardrailError(f"q_max {q_max} exceeds {MAX_CHAIN_DEGREE}")


def hochschild_dims(algebra, q_max):
    """Brute-force normalized Hochschild homology dimensions 0..q_max.

    Exploration tool only: truncated-algebra homology is not the Laurent
    field homology of the untruncated deformed algebra (the caveat flag is
    part of the report).
    """
    check_hochschild_size(algebra.dim, q_max)
    non_unit = [i for i in range(algebra.dim) if i != algebra.unit]

    def chain_basis(q):
        return [
            (first,) + rest
            for first in range(algebra.dim)
            for rest in product(non_unit, repeat=q)
        ]

    ranks = {0: 0}
    dims = {}
    for q in range(q_max + 2):
        basis = chain_basis(q)
        dims[q] = len(basis)
        if q >= 1:
            target_index = {key: i for i, key in enumerate(chain_basis(q - 1))}
            rows = []
            for key in basis:
                image = hochschild_b(ChainVector.elementary(key), algebra)
                rows.append(
                    {target_index[t]: c for t, c in image.terms.items()}
                )
            ranks[q] = linalg.rank_sparse(rows, len(target_index))
    out = []
    table = []
    for q in range(q_max + 1):
        hh = dims[q] - ranks[q] - ranks[q + 1]
        out.append(hh)
        table.append(
            {"q": q, "dim_chain": dims[q], "rank_b": ranks[q + 1], "homology_dim": hh}
        )
    return {
        "algebra": algebra.describe(),
        "dims": out,
        "table": table,
        "chain_dims": [dims[q] for q in range(q_max + 2)],
        "caveat": "truncated-model homology; not the Laurent-series homology",
    }
