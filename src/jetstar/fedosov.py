"""Abelian Fedosov connections, quantization/symbol maps, star products.

The connection is  D = nabla + (i/h)[A, -]  with the graded commutator and
A = omega_{ij} y^i dx^j + r.  The generator term acts as -delta, so on the
normalized remainder r (Fedosov degree >= 3, delta_inv r = 0) flatness
D o D = 0 is equivalent to the fixed-point equation

    r = delta_inv( R + nabla r + (i/h) r o r ),

solved by iteration stratified by Fedosov degree.  Flat sections are built
the same way:  a = f + delta_inv( nabla a + (i/h)[r, a] ).  That map is
linear, so :func:`quantize` combines tabulated monomial sections, and
:func:`star` forms only the fiber-degree-0 part of q(f) o q(g).
"""

from __future__ import annotations

import json

from .elements import MixedElement, TruncationPolicy, add_term, sum_of_products
from .errors import ConvergenceError, ValidationError
from .scalars import Scalar, rational
from .weyl import (
    PoissonTensor,
    contraction_depth,
    delta_inv,
    exterior_d,
    ihbar_commutator,
    ihbar_square,
    moyal,  # noqa: F401  perfbench/spans.py wraps jetstar.fedosov.moyal
    moyal_pairs,
)


class ConnectionInput:
    """A symplectic connection given by totally symmetric Gamma_{ijk}(x).

    Entries are stored by sorted index triple (1-based in the JSON format,
    0-based internally); values are pure base polynomials.  The lowered
    totally symmetric form makes the connection torsion-free and symplectic
    in Darboux coordinates, which :func:`preserves_symplectic_form` verifies
    explicitly.
    """

    __slots__ = ("half_dim", "entries", "name")

    def __init__(self, half_dim, entries=None, name="custom"):
        object.__setattr__(self, "half_dim", half_dim)
        canonical = {}
        for triple, poly in (entries or {}).items():
            key = tuple(sorted(triple))
            if len(key) != 3 or not all(0 <= t < 2 * half_dim for t in key):
                raise ValidationError(f"bad Gamma index triple {triple}")
            if not poly.is_base_series() or poly.hbar_orders() not in ([], [0]):
                raise ValidationError("Gamma entries must be h-free base polynomials")
            if key in canonical and canonical[key] != poly:
                raise ValidationError(f"conflicting values for Gamma{key}")
            if not poly.is_zero():
                canonical[key] = poly
        object.__setattr__(self, "entries", canonical)
        object.__setattr__(self, "name", name)

    def __setattr__(self, name, value):
        raise AttributeError("ConnectionInput is immutable")

    @property
    def dim(self):
        return 2 * self.half_dim

    def gamma(self, i, j, k):
        """Gamma_{ijk} with 0-based indices; total symmetry built in."""
        poly = self.entries.get(tuple(sorted((i, j, k))))
        if poly is None:
            return MixedElement.zero(self.dim)
        return poly

    def is_flat_input(self):
        return not self.entries

    @staticmethod
    def flat(half_dim):
        return ConnectionInput(half_dim, {}, name="flat")

    @staticmethod
    def curved_linear_n2():
        """Built-in curved example: n = 2, Gamma_{111} = x2 (linear)."""
        dim = 4
        return ConnectionInput(
            2, {(0, 0, 0): MixedElement.base_var(dim, 2)}, name="curved-linear-n2"
        )

    def to_json(self):
        return {
            "half_dim": self.half_dim,
            "gamma": [
                {"indices": [t + 1 for t in key], "poly": str(poly)}
                for key, poly in sorted(self.entries.items())
            ],
        }

    def __repr__(self):
        return f"ConnectionInput({self.name}, n={self.half_dim}, entries={len(self.entries)})"


BUILTIN_CONNECTIONS = ("flat", "curved-linear-n2")


def builtin_connection(name, half_dim):
    if name == "flat":
        return ConnectionInput.flat(half_dim)
    if name == "curved-linear-n2":
        if half_dim != 2:
            raise ValidationError("connection 'curved-linear-n2' requires --dim 2")
        return ConnectionInput.curved_linear_n2()
    raise ValidationError(f"unknown connection {name!r}")


def load_connection_json(data):
    half_dim = int(data["half_dim"])
    from .parsing import parse_element

    wide = TruncationPolicy(half_dim, 1 << 20, 1 << 20, 1 << 20)
    entries = {}
    for item in data.get("gamma", []):
        indices = tuple(int(v) - 1 for v in item["indices"])
        poly = parse_element(item["poly"], wide)
        entries[indices] = poly
    conn = ConnectionInput(half_dim, entries, name=data.get("name", "custom"))
    if "pi" in data:
        pt = PoissonTensor.from_matrix_strings(half_dim, data["pi"])
    else:
        pt = PoissonTensor.darboux(half_dim)
    return conn, pt


def load_connection_file(path):
    with open(path, "r", encoding="utf-8") as handle:
        return load_connection_json(json.load(handle))


def gamma_hat(conn, policy):
    """(1/2) Gamma_{ijk} y^i y^j dx^k as a Weyl-bundle one-form."""
    dim = conn.dim
    result = MixedElement.zero(dim)
    half = Scalar(rational(1, 2))
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                poly = conn.gamma(i, j, k)
                if poly.is_zero():
                    continue
                mono = MixedElement.fiber_var(dim, i + 1).mul(
                    MixedElement.fiber_var(dim, j + 1), policy
                ).mul(MixedElement.form_var(dim, k + 1), policy)
                result = result + poly.mul(mono, policy).scale(half)
    return result


def preserves_symplectic_form(conn, pt, policy):
    """Check nabla omega = 0 symbolically for the induced Christoffels."""
    dim = conn.dim
    for k in range(dim):
        for i in range(dim):
            for j in range(i + 1, dim):
                total = MixedElement.zero(dim)
                for l in range(dim):
                    for a in range(dim):
                        if pt.pi[l][a].is_zero():
                            continue
                        # Gamma^l_{ki} omega_{lj} + Gamma^l_{kj} omega_{il}
                        g1 = conn.gamma(a, k, i)
                        if not g1.is_zero():
                            total = total + g1.scale(pt.pi[l][a] * pt.omega[l][j])
                        g2 = conn.gamma(a, k, j)
                        if not g2.is_zero():
                            total = total + g2.scale(pt.pi[l][a] * pt.omega[i][l])
                if not total.is_zero():
                    return False
    return True


def curvature(conn, pt, policy):
    """(1/4) R_{ijkl} y^i y^j dx^k wedge dx^l from the Christoffel formula.

    R_{ijkl} = d_k Gamma_{ilj} - d_l Gamma_{ikj}
               + Gamma_{ikp} Pi^{pq} Gamma_{qlj} - Gamma_{ilp} Pi^{pq} Gamma_{qkj}
    """
    dim = conn.dim
    result = MixedElement.zero(dim)
    quarter = Scalar(rational(1, 4))
    for i in range(dim):
        for j in range(dim):
            yiyj = MixedElement.fiber_var(dim, i + 1).mul(
                MixedElement.fiber_var(dim, j + 1), policy
            )
            for k in range(dim):
                for l in range(k + 1, dim):
                    coeff = _lowered_curvature(conn, pt, i, j, k, l, policy)
                    if coeff.is_zero():
                        continue
                    wedge = MixedElement.form_var(dim, k + 1).mul(
                        MixedElement.form_var(dim, l + 1), policy
                    )
                    # antisymmetry in (k, l): summing k < l twice
                    result = result + coeff.mul(yiyj, policy).mul(wedge, policy).scale(
                        quarter * Scalar(2)
                    )
    return result.truncate(policy)


def _lowered_curvature(conn, pt, i, j, k, l, policy):
    dim = conn.dim
    term = conn.gamma(i, l, j).partial("base", k + 1) - conn.gamma(i, k, j).partial(
        "base", l + 1
    )
    for p in range(dim):
        for q in range(dim):
            w = pt.pi[p][q]
            if w.is_zero():
                continue
            g_kp = conn.gamma(i, k, p)
            g_lj = conn.gamma(q, l, j)
            if not g_kp.is_zero() and not g_lj.is_zero():
                term = term + g_kp.mul(g_lj, policy).scale(w)
            g_lp = conn.gamma(i, l, p)
            g_kj = conn.gamma(q, k, j)
            if not g_lp.is_zero() and not g_kj.is_zero():
                term = term - g_lp.mul(g_kj, policy).scale(w)
    return term


def curvature_weyl_route(conn, pt, policy):
    """Independent curvature route: d GammaHat + (i/h) GammaHat o GammaHat."""
    ghat = gamma_hat(conn, policy)
    if ghat.is_zero():
        return MixedElement.zero(conn.dim)
    return (exterior_d(ghat, policy) + ihbar_square(ghat, pt, policy)).truncate(policy)


def nabla(a, conn, pt, policy):
    """Lifted symplectic connection  d_x a + (i/h)[GammaHat, a]."""
    ghat = gamma_hat(conn, policy)
    result = exterior_d(a, policy)
    if not ghat.is_zero():
        result = result + ihbar_commutator(ghat, a, pt, policy)
    return result


def generator_one_form(pt, policy):
    """omega_{ij} y^i dx^j; its (i/h)-commutator action equals -delta."""
    dim = pt.dim
    result = MixedElement.zero(dim)
    for i in range(dim):
        for j in range(dim):
            w = pt.omega[i][j]
            if w.is_zero():
                continue
            result = result + MixedElement.fiber_var(dim, i + 1).mul(
                MixedElement.form_var(dim, j + 1), policy
            ).scale(w)
    return result


class FedosovData:
    """Frozen output of :func:`build_A`; all queries are pure.

    ``_sections`` maps ``(alpha, k)`` to the flat section of x^alpha h^k for
    the monomials the policy keeps, filled by :func:`quantize` on first use.
    """

    __slots__ = (
        "conn",
        "pt",
        "policy",
        "generator",
        "r",
        "gamma_hat",
        "curvature_residual",
        "_sections",
    )

    def __init__(self, conn, pt, policy, generator, r, ghat, residual):
        object.__setattr__(self, "conn", conn)
        object.__setattr__(self, "pt", pt)
        object.__setattr__(self, "policy", policy)
        object.__setattr__(self, "generator", generator)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "gamma_hat", ghat)
        object.__setattr__(self, "curvature_residual", residual)
        object.__setattr__(self, "_sections", {})

    def __setattr__(self, name, value):
        raise AttributeError("FedosovData is immutable")

    @property
    def A(self):
        """The full connection one-form including the generator term."""
        return self.generator + self.r

    def is_abelian(self):
        """D o D vanishes at all Fedosov degrees the policy certifies.

        The top degree N_F is where delta's degree lowering loses one order,
        so flatness is certified for degrees < N_F (exactly 0 in the flat
        case).
        """
        return self.curvature_residual.min_fedosov_degree() >= self.policy.fedosov_order

    def covariant_derivative(self, a):
        """D a = nabla a + (i/h)[A, a] (graded commutator, A acting left)."""
        result = exterior_d(a, self.policy)
        one_form = self.gamma_hat + self.generator + self.r
        return result + ihbar_commutator(one_form, a, self.pt, self.policy)

    def __repr__(self):
        return (
            f"FedosovData(conn={self.conn.name}, n={self.policy.half_dim}, "
            f"N_F={self.policy.fedosov_order})"
        )


def build_A(conn, pt, policy):
    """Construct the abelian connection data for ``conn`` under ``policy``.

    The normalized remainder r solves r = delta_inv(R + nabla r + (i/h) r o r)
    with delta_inv r = 0; the iteration gains one Fedosov degree per round
    and must stabilize within fedosov_order + 2 rounds.  The returned data
    carries the recomputed-from-scratch D o D defect as its residual.
    """
    if policy.fedosov_order < 2:
        raise ValidationError("build_A needs fedosov_order >= 2")
    if conn.half_dim != pt.half_dim or conn.half_dim != policy.half_dim:
        raise ValidationError("connection, tensor and policy dimensions disagree")
    ghat = gamma_hat(conn, policy)
    riemann = curvature(conn, pt, policy)
    dim = conn.dim

    r = MixedElement.zero(dim)
    for _ in range(policy.fedosov_order + 2):
        source = riemann + nabla(r, conn, pt, policy)
        if not r.is_zero():
            source = source + ihbar_square(r, pt, policy)
        r_next = delta_inv(source).truncate(policy)
        if r_next == r:
            break
        r = r_next
    else:
        raise ConvergenceError("Fedosov remainder iteration did not stabilize")

    generator = generator_one_form(pt, policy)
    total = ghat + generator + r
    omega_full = exterior_d(total, policy) + ihbar_square(total, pt, policy)
    residual = omega_full - omega_full.fiber_zero_part()
    return FedosovData(conn, pt, policy, generator, r, ghat, residual)


def quantize(f, fd):
    """The flat section with symbol ``f`` (Fedosov-Taylor series).

    ``f`` must be a base series (form and fiber degree zero, h powers
    allowed).  In the flat Darboux case this is the full Taylor lift
    sum_alpha d^alpha f y^alpha / alpha!.

    The section map is linear, so the result is the combination of the
    sections of the monomials x^alpha h^k of ``f``, read from the table of
    ``fd`` and filled by :func:`_flat_section` on first use.
    """
    if not f.is_base_series():
        raise ValidationError("quantize expects a base series")
    terms = {}
    for (alpha, _, k, _), coeff in f.terms.items():
        section = fd._sections.get((alpha, k))
        if section is None:
            key = (alpha, (0,) * f.dim, k, ())
            section = _flat_section(MixedElement._raw(f.dim, {key: Scalar.one()}), fd)
            if fd.policy.keeps(key):  # so the table stays bounded by the policy
                fd._sections[(alpha, k)] = section
        for key, value in section.terms.items():
            add_term(terms, key, coeff * value)
    return MixedElement._raw(f.dim, terms)


def _flat_section(f, fd):
    """Solve  a = f + delta_inv(nabla a + (i/h)[r, a])  for a base series f.

    The right-hand side is linear, so each round only processes the newly
    added increment, one Fedosov degree higher; GammaHat and r act through
    one (i/h)[GammaHat + r, -].
    """
    policy = fd.policy
    twist = fd.gamma_hat + fd.r
    total = f
    delta = f
    # each round raises the Fedosov degree by one, from 2 * hbar_min up
    for _ in range(policy.fedosov_order - 2 * min(policy.hbar_min, 0) + 2):
        source = exterior_d(delta, policy)
        if not twist.is_zero():
            source = source + ihbar_commutator(twist, delta, fd.pt, policy)
        delta = delta_inv(source).truncate(policy)
        if delta.is_zero():
            break
        total = total + delta
    else:
        raise ConvergenceError("flat-section iteration did not stabilize")
    return total


def symbol(a):
    """Projection to fiber degree zero:  sigma(a) = sum_k a_{0,k} h^k."""
    if a.form_degrees() not in ([], [0]):
        raise ValidationError("symbol expects a form-degree-0 element")
    return a.fiber_zero_part()


def star(f, g, fd):
    """f * g = sigma(q(f) o q(g)) as a base series in h.

    Fiber degrees add, so a level-k pair (u, v) of the Moyal contraction
    reaches the symbol only through the fiber-degree-0 parts of u and v,
    which come from the fiber-degree-k parts of q(f) and q(g); no level past
    :func:`contraction_depth` reaches the h window.  The result equals
    ``symbol(moyal(quantize(f), quantize(g)))``.
    """
    a = quantize(f, fd)
    b = quantize(g, fd)
    top = contraction_depth(a, b, fd.policy)
    pairs = [
        (u.fiber_zero_part().scale(c).hbar_shift(k), v.fiber_zero_part())
        for k, c, u, v in moyal_pairs(
            a.fiber_degree_filter(top), b.fiber_degree_filter(top), fd.pt, fd.policy
        )
    ]
    return sum_of_products(f.dim, pairs, fd.policy)


def c_k(f, g, fd, k):
    """The h^k coefficient of f * g (a base polynomial)."""
    return star(f, g, fd).hbar_coefficient(k)
