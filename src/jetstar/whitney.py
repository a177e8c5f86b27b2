"""Truncated Whitney-function algebras over unions of affine germs.

A :class:`SubsetModel` is a finite union of germs (rational base point plus a
set of coordinate directions).  At polynomial truncation order the jet of a
function along a germ is its rebased Taylor polynomial, and two germs whose
affine subspaces intersect are forced to carry the same Taylor data; the
model set therefore decomposes into intersection-connected components, each
carrying one ambient Taylor polynomial.  The flat ideal is graded by the
derivative order m:  p is m-flat when every derivative of order <= m
vanishes identically on every germ, equivalently when every monomial of the
rebased polynomial has normal degree > m.
"""

from __future__ import annotations

from . import linalg
from .elements import MixedElement, add_term
from .errors import DimensionMismatch, ValidationError
from .fedosov import star
from .parsing import json_field, read_json
from .scalars import Scalar, rational
from .weyl import poisson_bracket_base


class Germ:
    """Affine subspace  point + span{e_t : t in directions}  (0-based)."""

    __slots__ = ("point", "directions")

    def __init__(self, point, directions):
        directions = frozenset(directions)
        canonical = tuple(
            Scalar(0) if m in directions else (
                v if isinstance(v, Scalar) else Scalar(rational(v))
            )
            for m, v in enumerate(point)
        )
        object.__setattr__(self, "point", canonical)
        object.__setattr__(self, "directions", directions)

    def __setattr__(self, name, value):
        raise AttributeError("Germ is immutable")

    def normals(self, dim):
        return tuple(m for m in range(dim) if m not in self.directions)

    def __eq__(self, other):
        return (
            isinstance(other, Germ)
            and self.point == other.point
            and self.directions == other.directions
        )

    def __hash__(self):
        return hash((self.point, self.directions))

    def __repr__(self):
        dirs = ",".join(str(d + 1) for d in sorted(self.directions))
        pt = ",".join(str(v.re) for v in self.point)
        return f"Germ(point=({pt}), directions={{{dirs}}})"


class SubsetModel:
    """A closed model set X: a non-empty finite union of germs."""

    __slots__ = ("dim", "germs", "name")

    def __init__(self, dim, germs, name="custom"):
        if not germs:
            raise ValidationError("SubsetModel needs at least one germ")
        seen = []
        for germ in germs:
            if len(germ.point) != dim:
                raise DimensionMismatch("germ point has wrong length")
            if any(t < 0 or t >= dim for t in germ.directions):
                raise ValidationError("germ direction out of range")
            if germ in seen:
                raise ValidationError(f"duplicate germ {germ!r}")
            seen.append(germ)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "germs", tuple(seen))
        object.__setattr__(self, "name", name)

    def __setattr__(self, name, value):
        raise AttributeError("SubsetModel is immutable")

    def germs_intersect(self, g, h):
        shared_fixed = [
            m for m in range(self.dim)
            if m not in g.directions and m not in h.directions
        ]
        return all(g.point[m] == h.point[m] for m in shared_fixed)

    def components(self):
        """Intersection-connected germ components (lists of germ indices)."""
        n = len(self.germs)
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for i in range(n):
            for j in range(i + 1, n):
                if self.germs_intersect(self.germs[i], self.germs[j]):
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[max(ri, rj)] = min(ri, rj)
        groups = {}
        for i in range(n):
            groups.setdefault(find(i), []).append(i)
        return [groups[root] for root in sorted(groups)]

    def to_json(self):
        return {
            "dim": self.dim,
            "germs": [
                {
                    "point": [str(v.re) for v in germ.point],
                    "directions": [d + 1 for d in sorted(germ.directions)],
                }
                for germ in self.germs
            ],
        }

    def __eq__(self, other):
        if not isinstance(other, SubsetModel):
            return NotImplemented
        return self.dim == other.dim and set(self.germs) == set(other.germs)

    def __hash__(self):
        return hash((self.dim, frozenset(self.germs)))

    def __repr__(self):
        return f"SubsetModel({self.name}, dim={self.dim}, germs={len(self.germs)})"


BUILTIN_SUBSETS = ("point", "axis", "cross", "two-points", "plane-in-r4")


def builtin_subset(name):
    if name == "point":
        return SubsetModel(2, [Germ((0, 0), ())], name=name)
    if name == "axis":
        return SubsetModel(2, [Germ((0, 0), (0,))], name=name)
    if name == "cross":
        return SubsetModel(2, [Germ((0, 0), (0,)), Germ((0, 0), (1,))], name=name)
    if name == "two-points":
        return SubsetModel(2, [Germ((1, 0), ()), Germ((-1, 0), ())], name=name)
    if name == "plane-in-r4":
        return SubsetModel(4, [Germ((0, 0, 0, 0), (0, 1))], name=name)
    raise ValidationError(f"unknown subset {name!r}")


def load_subset_json(data):
    dim = json_field(data, "dim", int)
    germs = [
        Germ(
            json_field(item, "point", lambda point: tuple(rational(v) for v in point)),
            json_field(item, "directions", lambda dirs: tuple(int(d) - 1 for d in dirs)),
        )
        for item in json_field(data, "germs", list)
    ]
    return SubsetModel(dim, germs, name=data.get("name", "custom"))


def load_subset_file(path):
    return load_subset_json(read_json(path))


def monomials_up_to(dim, cap):
    """All exponent tuples of total degree <= cap, in (degree, lex) order."""
    out = []

    def fill(prefix, left, slots):
        if slots == 1:
            out.append(tuple(prefix + [left]))
            return
        for e in range(left + 1):
            fill(prefix + [e], left - e, slots - 1)

    for total in range(cap + 1):
        start = len(out)
        fill([], total, dim)
        out[start:] = sorted(out[start:])
    return out


def is_flat(p, subset, order):
    """True iff every derivative of order <= ``order`` of every h-coefficient
    of ``p`` vanishes identically on every germ of ``subset``."""
    if not p.is_base_series():
        raise ValidationError("flatness is defined for base series")
    if p.dim != subset.dim:
        raise DimensionMismatch("element and subset dimensions disagree")
    for germ in subset.germs:
        shifted = p.shift_base(germ.point)
        normals = germ.normals(subset.dim)
        for (alpha, _, _, _) in shifted.terms:
            if sum(alpha[m] for m in normals) <= order:
                return False
    return True


class JetEvaluator:
    """Exact linear map from polynomials to truncated germ-jet data.

    Rows are indexed by (germ, exponent gamma) with |gamma| <= deg_cap and
    normal degree |gamma_N| <= order; the entry of a polynomial is the
    gamma-coefficient of its rebase at the germ point.  The kernel on the
    degree-capped domain is exactly the order-graded flat ideal, and the
    reduced row echelon form of the matrix provides a deterministic
    pseudo-inverse section used for canonical representatives.
    """

    def __init__(self, subset, deg_cap, order):
        self.subset = subset
        self.deg_cap = deg_cap
        self.order = order
        dim = subset.dim
        self.domain = monomials_up_to(dim, deg_cap)
        self.rows = []
        for gi, germ in enumerate(subset.germs):
            normals = germ.normals(dim)
            for gamma in self.domain:
                if sum(gamma[m] for m in normals) <= order:
                    self.rows.append((gi, gamma))
        self._row_index = {key: i for i, key in enumerate(self.rows)}
        self._solved = None

    def evaluate_poly(self, p):
        """Jet-data vector of an h-free base polynomial (any degree)."""
        vec = [Scalar.zero()] * len(self.rows)
        for gi, germ in enumerate(self.subset.germs):
            shifted = p.shift_base(germ.point)
            for (alpha, _, _, _), coeff in shifted.terms.items():
                idx = self._row_index.get((gi, alpha))
                if idx is not None:
                    vec[idx] = vec[idx] + coeff
        return tuple(vec)

    def evaluate(self, p):
        """Jet data of a base series: tuple of (h power, vector)."""
        out = []
        for k in sorted(p.hbar_orders()):
            vec = self.evaluate_poly(p.hbar_coefficient(k))
            if any(not v.is_zero() for v in vec):
                out.append((k, vec))
        return tuple(out)

    def _solve_data(self):
        """Pivot columns, kernel basis and section columns, cached.

        One sparse elimination of [E | I] (E: jet rows by monomial columns)
        gives the reduced echelon form of E, hence its pivots and kernel,
        and in the identity block a left inverse P of E on its image:
        column r of P lists the pivot-monomial coordinates that jet row r
        contributes to the canonical representative.
        """
        if self._solved is None:
            dim = self.subset.dim
            ncols = len(self.domain)
            rows = [{ncols + r: Scalar.one()} for r in range(len(self.rows))]
            for c, mono in enumerate(self.domain):
                column = self.evaluate_poly(MixedElement.monomial(dim, Scalar.one(), alpha=mono))
                for r, value in enumerate(column):
                    if not value.is_zero():
                        rows[r][c] = value
            pivots, reduced = linalg.eliminate(rows, ncols)
            keys = [(mono, (0,) * dim, 0, ()) for mono in self.domain]
            kernel = tuple(
                MixedElement(dim, {keys[c]: vec[c] for c in sorted(vec)})
                for vec in linalg.null_space(pivots, reduced, ncols)
            )
            section = [[] for _ in self.rows]
            for c, row in zip(pivots, reduced):
                for col, value in row.items():
                    if col >= ncols:
                        section[col - ncols].append((keys[c], value))
            self._solved = (pivots, kernel, section)
        return self._solved

    def rank(self):
        return len(self._solve_data()[0])

    def kernel_basis(self):
        """Basis of the truncated flat ideal as a tuple of elements."""
        return self._solve_data()[1]

    def section_poly(self, vector):
        """Canonical polynomial (supported on pivot monomials) with the
        given jet data; raises if the vector is not in the image."""
        section = self._solve_data()[2]
        terms = {}
        for value, column in zip(vector, section):
            if not value.is_zero():
                for key, coeff in column:
                    add_term(terms, key, value * coeff)
        poly = MixedElement(self.subset.dim, terms)
        if tuple(self.evaluate_poly(poly)) != tuple(vector):
            raise ValidationError("jet vector is not in the evaluator image")
        return poly


class WhitneyAlgebra:
    """Whitney-function algebra of a subset model at a truncation policy."""

    def __init__(self, subset, policy):
        if subset.dim != policy.dim:
            raise DimensionMismatch("subset and policy dimensions disagree")
        self.subset = subset
        self.policy = policy
        self.components = subset.components()
        self._evaluators = {}

    @property
    def n_components(self):
        return len(self.components)

    def evaluator(self, deg_cap=None, order=None):
        deg_cap = self.policy.jet_order if deg_cap is None else deg_cap
        order = self.policy.jet_order if order is None else order
        key = (deg_cap, order)
        ev = self._evaluators.get(key)
        if ev is None:
            ev = JetEvaluator(self.subset, deg_cap, order)
            self._evaluators[key] = ev
        return ev

    # ------------------------------------------------------------------

    def flat_basis(self, order, deg_cap=None):
        return self.evaluator(deg_cap, order).kernel_basis()

    def project(self, p, order=None):
        """Whitney class of a base series (canonical representative)."""
        if not p.is_base_series():
            raise ValidationError("project expects a base series")
        if p.dim != self.subset.dim:
            raise DimensionMismatch("element and algebra dimensions disagree")
        ev = self.evaluator(order=order)
        normal_form = ev.evaluate(p)
        dim = self.subset.dim
        rep = MixedElement.zero(dim)
        for k, vec in normal_form:
            rep = rep + ev.section_poly(vec).hbar_shift(k)
        return WhitneyClass(self, rep.truncate(self.policy), normal_form, ev)

    def unit_class(self):
        return self.project(MixedElement.one(self.subset.dim))

    def mul(self, f_class, g_class):
        product = f_class.rep.mul(g_class.rep, self.policy)
        return self.project(product)

    def induced_star(self, f_class, g_class, fd):
        """Star product of Whitney classes through ambient representatives."""
        self._check_fd(fd)
        series = star(f_class.rep, g_class.rep, fd)
        return self.project(series)

    def whitney_poisson(self, f_class, g_class, pt):
        bracket = poisson_bracket_base(f_class.rep, g_class.rep, pt, self.policy)
        return self.project(bracket)

    def _check_fd(self, fd):
        if fd.policy.half_dim != self.policy.half_dim:
            raise DimensionMismatch("Fedosov data dimension disagrees with algebra")

    def __repr__(self):
        return f"WhitneyAlgebra({self.subset.name}, components={self.n_components})"


class WhitneyClass:
    """A truncated Whitney function: canonical rep + jet normal form."""

    __slots__ = ("algebra", "rep", "normal_form", "_evaluator")

    def __init__(self, algebra, rep, normal_form, evaluator):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "rep", rep)
        object.__setattr__(self, "normal_form", normal_form)
        object.__setattr__(self, "_evaluator", evaluator)

    def __setattr__(self, name, value):
        raise AttributeError("WhitneyClass is immutable")

    def __add__(self, other):
        self._check(other)
        return self.algebra.project(self.rep + other.rep)

    def __sub__(self, other):
        self._check(other)
        return self.algebra.project(self.rep - other.rep)

    def __neg__(self):
        return self.algebra.project(-self.rep)

    def scale(self, scalar):
        return self.algebra.project(self.rep.scale(scalar))

    def mul(self, other):
        self._check(other)
        return self.algebra.mul(self, other)

    def star(self, other, fd):
        self._check(other)
        return self.algebra.induced_star(self, other, fd)

    def poisson(self, other, pt):
        self._check(other)
        return self.algebra.whitney_poisson(self, other, pt)

    def is_zero(self):
        return not self.normal_form

    def _check(self, other):
        if not isinstance(other, WhitneyClass) or other.algebra.subset is not self.algebra.subset:
            raise ValidationError("Whitney classes live over different subsets")

    def __eq__(self, other):
        if not isinstance(other, WhitneyClass):
            return NotImplemented
        return (
            self.algebra.subset == other.algebra.subset
            and self.normal_form == other.normal_form
        )

    def __hash__(self):
        return hash(self.normal_form)

    def __repr__(self):
        return f"WhitneyClass({self.rep})"


def verify_ideal_stability(fd, walg, rng, trials, order, flat_deg_cap, other_deg_cap):
    """Check that every c_k maps (order-graded) flat elements to flat ones.

    Each trial draws a random order-``order`` flat polynomial p of degree
    <= flat_deg_cap and a random polynomial q of degree <= other_deg_cap,
    then asserts that c_k(p, q) and c_k(q, p) are (order - 2k)-flat for all
    k up to the policy's h order (the documented 2k-derivative loss).
    Returns a report dict; failures are entries, not exceptions.
    """
    policy = walg.policy
    basis = walg.flat_basis(order, flat_deg_cap)
    if not basis:
        raise ValidationError(
            "flat ideal is zero at the requested order; stability test is vacuous"
        )
    dim = walg.subset.dim
    failures = []
    checks = 0
    for trial in range(trials):
        p = MixedElement.zero(dim)
        for vec in basis:
            p = p + vec.scale(Scalar(rng.randint(-3, 3)))
        if p.is_zero():
            p = basis[0]
        q = random_base_poly(rng, dim, other_deg_cap)
        series_pq = star(p, q, fd)
        series_qp = star(q, p, fd)
        for k in range(policy.hbar_order + 1):
            reduced = order - 2 * k
            if reduced < 0:
                continue
            for tag, series in (("c_k(p,q)", series_pq), ("c_k(q,p)", series_qp)):
                checks += 1
                value = series.hbar_coefficient(k)
                if not is_flat(value, walg.subset, reduced):
                    failures.append(
                        {"trial": trial, "k": k, "side": tag, "order": reduced}
                    )
    return {
        "subset": walg.subset.name,
        "trials": trials,
        "checks": checks,
        "flat_order": order,
        "flat_ideal_dim": len(basis),
        "failures": failures,
        "passed": not failures,
    }


def random_base_poly(rng, dim, max_degree, max_terms=4):
    """Small random polynomial with integer coefficients in [-3, 3]."""
    element = MixedElement.zero(dim)
    monos = monomials_up_to(dim, max_degree)
    for _ in range(rng.randint(1, max_terms)):
        alpha = monos[rng.randrange(len(monos))]
        coeff = Scalar(rng.randint(-3, 3))
        element = element + MixedElement.monomial(dim, coeff, alpha=alpha)
    return element
