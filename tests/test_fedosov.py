import math

import pytest

from jetstar.elements import MixedElement, TruncationPolicy
from jetstar.errors import ValidationError
from jetstar.fedosov import (
    ConnectionInput,
    build_A,
    builtin_connection,
    c_k,
    curvature,
    curvature_weyl_route,
    gamma_hat,
    load_connection_json,
    nabla,
    preserves_symplectic_form,
    _flat_section,
    quantize,
    star,
    symbol,
)
from jetstar.parsing import parse_element
from jetstar.scalars import Scalar, rational
from jetstar.weyl import PoissonTensor, ihbar_commutator, moyal, moyal_base
from jetstar.whitney import monomials_up_to, random_base_poly

from conftest import curved_n1_two_entries


@pytest.fixture
def pol():
    return TruncationPolicy(1, 8, 8, 3)


@pytest.fixture
def pt():
    return PoissonTensor.darboux(1)


@pytest.fixture
def fd_flat(pol, pt):
    return build_A(ConnectionInput.flat(1), pt, pol)


def E(text, policy):
    return parse_element(text, policy)


def taylor_lift(f, policy):
    """Independent oracle for the flat Darboux lift: sum d^a f y^a / a!."""
    dim = f.dim
    total = MixedElement.zero(dim)
    for alpha in monomials_up_to(dim, policy.jet_order):
        df = f
        denom = 1
        for j, e in enumerate(alpha):
            denom *= math.factorial(e)
            for _ in range(e):
                df = df.partial("base", j + 1)
            if df.is_zero():
                break
        if df.is_zero():
            continue
        mono = MixedElement.monomial(dim, Scalar(rational(1, denom)), beta=alpha)
        total = total + df.mul(mono, policy)
    return total.truncate(policy)


def curved_n1():
    return ConnectionInput(1, {(0, 0, 0): MixedElement.base_var(2, 2)}, name="curved-n1")


# (connection, policy) settings for the monomial section table
TABLE_CASES = {
    "benchmark-n1": (curved_n1_two_entries, TruncationPolicy(1, 6, 4, 1)),
    "curved-linear-n2": (ConnectionInput.curved_linear_n2, TruncationPolicy(2, 5, 4, 1)),
    "n1-hbar2": (curved_n1, TruncationPolicy(1, 5, 6, 2)),
    "laurent": (curved_n1, TruncationPolicy(1, 5, 4, 1, hbar_min=-1)),
}


def table_fd(name):
    conn, policy = TABLE_CASES[name]
    return build_A(conn(), PoissonTensor.darboux(policy.half_dim), policy)


def table_inputs(rng, policy, count):
    """Zero, constants, pure h powers, a monomial one degree past the jet
    order, and random base series with a term at every h power of the
    window."""
    dim = policy.dim
    inputs = [
        MixedElement.zero(dim),
        MixedElement.scalar(dim, Scalar(rational(-2, 3))),
        MixedElement.hbar(dim, policy.hbar_min).scale(Scalar(0, 1)),
        MixedElement.hbar(dim, policy.hbar_order),
        MixedElement.monomial(dim, Scalar(3), alpha=(policy.jet_order + 1,) + (0,) * (dim - 1)),
    ]
    for _ in range(count):
        f = random_base_poly(rng, dim, policy.jet_order, max_terms=2)
        for k in range(policy.hbar_min, policy.hbar_order + 1):
            if k:
                f = f + random_base_poly(rng, dim, 3, max_terms=1).hbar_shift(k)
        inputs.append(f)
    return inputs


def window_keys(policy):
    """The (alpha, k) of every monomial x^alpha h^k the policy keeps."""
    zero = (0,) * policy.dim
    return [
        (alpha, k)
        for alpha in monomials_up_to(policy.dim, policy.jet_order)
        for k in range(policy.hbar_min, policy.hbar_order + 1)
        if policy.keeps((alpha, zero, k, ()))
    ]


class TestConnectionInput:
    def test_symmetry_storage(self, pol):
        conn = ConnectionInput(
            1, {(0, 1, 0): MixedElement.one(2)}, name="t"
        )
        assert conn.gamma(0, 0, 1) == MixedElement.one(2)
        assert conn.gamma(1, 0, 0) == MixedElement.one(2)

    def test_rejects_fiber_entries(self):
        with pytest.raises(ValidationError):
            ConnectionInput(1, {(0, 0, 0): MixedElement.fiber_var(2, 1)})

    def test_builtins(self):
        assert builtin_connection("flat", 1).is_flat_input()
        curved = builtin_connection("curved-linear-n2", 2)
        assert not curved.is_flat_input()
        with pytest.raises(ValidationError):
            builtin_connection("curved-linear-n2", 1)
        with pytest.raises(ValidationError):
            builtin_connection("nope", 1)

    def test_json_roundtrip(self):
        conn = curved_n1()
        data = conn.to_json()
        loaded, pt = load_connection_json(data)
        assert loaded.entries == conn.entries
        assert pt.half_dim == 1

    def test_preserves_symplectic_form(self, pol, pt):
        assert preserves_symplectic_form(curved_n1(), pt, pol)
        assert preserves_symplectic_form(ConnectionInput.flat(1), pt, pol)


class TestNabla:
    def test_flat_reduces_to_exterior_derivative(self, pol, pt):
        conn = ConnectionInput.flat(1)
        a = E("x1*y1", pol)
        assert nabla(a, conn, pt, pol) == E("y1*dx1", pol)
        assert nabla(E("y1", pol), conn, pt, pol).is_zero()

    def test_constant_gamma_111_value_from_oracle(self, pol, pt):
        # Gamma_{111} = 1 in n = 1: the commutator oracle fixes the value.
        conn = ConnectionInput(1, {(0, 0, 0): MixedElement.one(2)})
        ghat = gamma_hat(conn, pol)
        assert ghat == E("(1/2)*y1^2*dx1", pol)
        a = E("y1", pol)
        oracle = ihbar_commutator(ghat, a, pt, pol)
        assert nabla(a, conn, pt, pol) == oracle
        assert oracle.is_zero()  # only the Pi^{11} contraction arises

    def test_gamma_112_twists(self, pol, pt):
        conn = ConnectionInput(1, {(0, 0, 1): MixedElement.one(2)})
        got = nabla(E("y1", pol), conn, pt, pol)
        assert got == E("-y1*dx1", pol)

    def test_leibniz_over_moyal(self, pol, pt, rng):
        conn = curved_n1()
        for _ in range(10):
            a = random_base_poly(rng, 2, 2)
            b = random_base_poly(rng, 2, 2)
            fa = quantize(a, build_A(conn, pt, pol))
            fb = quantize(b, build_A(conn, pt, pol))
            lhs = nabla(moyal(fa, fb, pt, pol), conn, pt, pol)
            rhs = moyal(nabla(fa, conn, pt, pol), fb, pt, pol) + moyal(
                fa, nabla(fb, conn, pt, pol), pt, pol
            )
            assert lhs == rhs


class TestCurvature:
    def test_flat_zero(self, pol, pt):
        assert curvature(ConnectionInput.flat(1), pt, pol).is_zero()

    def test_constant_gamma_111_flat(self, pol, pt):
        conn = ConnectionInput(1, {(0, 0, 0): MixedElement.one(2)})
        assert curvature(conn, pt, pol).is_zero()
        assert curvature_weyl_route(conn, pt, pol).is_zero()

    def test_linear_gamma_dx_collision_n1(self, pol, pt):
        # Gamma_{111} = x1 depends only on the wedge direction: R = 0.
        conn = ConnectionInput(1, {(0, 0, 0): MixedElement.base_var(2, 1)})
        assert curvature(conn, pt, pol).is_zero()

    def test_two_routes_agree_curved(self, pol, pt):
        conn = curved_n1()
        value = curvature(conn, pt, pol)
        assert not value.is_zero()
        assert value == curvature_weyl_route(conn, pt, pol)

    def test_two_routes_agree_n2(self):
        pol = TruncationPolicy(2, 8, 8, 3)
        pt = PoissonTensor.darboux(2)
        conn = ConnectionInput.curved_linear_n2()
        assert curvature(conn, pt, pol) == curvature_weyl_route(conn, pt, pol)


class TestBuildA:
    def test_flat_case(self, fd_flat, pol):
        assert fd_flat.r.is_zero()
        assert fd_flat.curvature_residual.is_zero()
        assert fd_flat.is_abelian()
        # A is the generator alone; its Fedosov degree is 1
        assert fd_flat.A.min_fedosov_degree() == 1

    def test_requires_order_two(self, pt):
        with pytest.raises(ValidationError):
            build_A(ConnectionInput.flat(1), pt, TruncationPolicy(1, 4, 1, 0))

    def test_curved_n1(self, pol, pt):
        fd = build_A(curved_n1(), pt, pol)
        assert not fd.r.is_zero()
        assert fd.r.min_fedosov_degree() >= 3
        assert fd.is_abelian()

    def test_curved_n2_spec_policy(self):
        pol = TruncationPolicy(2, 6, 6, 2)
        pt = PoissonTensor.darboux(2)
        fd = build_A(ConnectionInput.curved_linear_n2(), pt, pol)
        assert not fd.r.is_zero()
        assert fd.is_abelian()

    def test_normalization_delta_inv_r_zero(self, pol, pt):
        from jetstar.weyl import delta_inv

        fd = build_A(curved_n1(), pt, pol)
        assert delta_inv(fd.r).is_zero()


class TestQuantize:
    def test_taylor_examples(self, fd_flat, pol):
        assert quantize(E("x1", pol), fd_flat) == E("x1 + y1", pol)
        assert quantize(MixedElement.one(2), fd_flat) == MixedElement.one(2)
        assert quantize(E("x1^2", pol), fd_flat) == E("x1^2 + 2*x1*y1 + y1^2", pol)

    def test_taylor_oracle_random(self, fd_flat, pol, rng):
        for _ in range(20):
            f = random_base_poly(rng, 2, 4)
            assert quantize(f, fd_flat) == taylor_lift(f, pol)

    def test_symbol_inverse(self, fd_flat, rng):
        for _ in range(50):
            f = random_base_poly(rng, 2, 4)
            assert symbol(quantize(f, fd_flat)) == f

    def test_flat_sections_are_flat(self, fd_flat, pol, rng):
        for _ in range(10):
            f = random_base_poly(rng, 2, 4)
            da = fd_flat.covariant_derivative(quantize(f, fd_flat))
            assert da.min_fedosov_degree() >= pol.fedosov_order

    def test_curved_flat_sections(self, pol, pt, rng):
        fd = build_A(curved_n1(), pt, pol)
        for _ in range(10):
            f = random_base_poly(rng, 2, 3)
            section = quantize(f, fd)
            assert symbol(section) == f
            assert fd.covariant_derivative(section).min_fedosov_degree() >= pol.fedosov_order

    def test_rejects_fiber_input(self, fd_flat):
        with pytest.raises(ValidationError):
            quantize(MixedElement.fiber_var(2, 1), fd_flat)


class TestSymbol:
    def test_examples(self, pol):
        assert symbol(E("x1 + y1", pol)) == E("x1", pol)
        assert symbol(E("h*y1*y2", pol)).is_zero()

    def test_rejects_forms(self, pol):
        with pytest.raises(ValidationError):
            symbol(E("y1*dx1", pol))


class TestStar:
    def test_flat_examples(self, fd_flat, pol):
        assert star(E("x1", pol), E("x2", pol), fd_flat) == E("x1*x2 - (1/2)*i*h", pol)
        assert star(E("x1^2", pol), E("x2^2", pol), fd_flat) == E(
            "x1^2*x2^2 - 2*i*h*x1*x2 - (1/2)*h^2", pol
        )

    def test_unit_law(self, fd_flat, pol, rng):
        one = MixedElement.one(2)
        for _ in range(10):
            f = random_base_poly(rng, 2, 4)
            assert star(f, one, fd_flat) == f
            assert star(one, f, fd_flat) == f

    def test_flat_oracle(self, fd_flat, pol, pt, rng):
        for _ in range(30):
            f = random_base_poly(rng, 2, 4)
            g = random_base_poly(rng, 2, 4)
            assert star(f, g, fd_flat) == moyal_base(f, g, pt, pol)

    def test_c_k_extraction(self, fd_flat, pol):
        f = E("x1^2", pol)
        g = E("x2^2", pol)
        assert c_k(f, g, fd_flat, 0) == E("x1^2*x2^2", pol)
        assert c_k(f, g, fd_flat, 1) == E("-2*i*x1*x2", pol)
        assert c_k(f, g, fd_flat, 2) == E("-1/2", pol)

    def test_c1_antisymmetric_part_is_half_bracket(self, pol, pt, rng):
        from jetstar.weyl import poisson_bracket_base

        fd = build_A(curved_n1(), pt, pol)
        for _ in range(10):
            f = random_base_poly(rng, 2, 3)
            g = random_base_poly(rng, 2, 3)
            antisym = c_k(f, g, fd, 1) - c_k(g, f, fd, 1)
            assert antisym == poisson_bracket_base(f, g, pt, pol).scale(Scalar(0, -1))

    def test_associativity_curved(self, pol, pt, rng):
        fd = build_A(curved_n1(), pt, pol)
        for _ in range(8):
            f = random_base_poly(rng, 2, 3)
            g = random_base_poly(rng, 2, 3)
            h = random_base_poly(rng, 2, 3)
            assert star(star(f, g, fd), h, fd) == star(f, star(g, h, fd), fd)

    def test_bidifferential_order_bound(self, fd_flat, pol):
        monos = monomials_up_to(2, 3)
        for alpha in monos:
            for beta in monos:
                f = MixedElement.monomial(2, Scalar.one(), alpha=alpha)
                g = MixedElement.monomial(2, Scalar.one(), alpha=beta)
                for k in range(pol.hbar_order + 1):
                    value = c_k(f, g, fd_flat, k)
                    if value.is_zero():
                        continue
                    min_deg = min(sum(key[0]) for key in value.terms)
                    assert min_deg >= sum(alpha) + sum(beta) - 2 * k


@pytest.mark.parametrize("case", sorted(TABLE_CASES))
class TestMonomialTable:
    def test_quantize_equals_whole_recursion(self, case, rng):
        fd = table_fd(case)
        for f in table_inputs(rng, fd.policy, 6):
            section = quantize(f, fd)
            assert section == _flat_section(f, fd)
            assert symbol(section) == f

    def test_star_equals_symbol_of_moyal(self, case, rng):
        fd = table_fd(case)
        inputs = table_inputs(rng, fd.policy, 4)
        for f in inputs:
            for g in (inputs[1], inputs[-1], inputs[-2]):
                for left, right in ((f, g), (g, f)):
                    expected = symbol(
                        moyal(quantize(left, fd), quantize(right, fd), fd.pt, fd.policy)
                    )
                    assert star(left, right, fd) == expected

    def test_table_holds_window_monomials_only(self, case, rng):
        fd = table_fd(case)
        for f in table_inputs(rng, fd.policy, 6):
            quantize(f, fd)
        assert fd._sections
        assert set(fd._sections) <= set(window_keys(fd.policy))


def test_table_bounded_under_fresh_inputs(rng):
    fd = table_fd("benchmark-n1")
    policy = fd.policy
    bound = len(window_keys(policy))
    first = []
    for trial in range(200):
        f = random_base_poly(rng, 2, policy.jet_order)
        f = f + random_base_poly(rng, 2, 3, max_terms=2).hbar_shift(1)
        section = quantize(f, fd)
        assert len(fd._sections) <= bound
        if trial < 20:
            first.append((f, section))
    for f, section in first:
        assert quantize(f, fd) == section


# r, the D o D residual and a few monomial flat sections, recorded from the
# earlier commutator that formed both Moyal products B o a and a o B in full.
PINNED_FEDOSOV = {
    "benchmark-n1": (
        (
            "(-1/4)*y1*y2^2*dx1 + (1/8)*y1^2*y2*dx1 + (-1/10)*x2*y1^3*y2*dx1"
            " + (3/20)*x1*y1*y2^3*dx1 + (-3/20)*x1*y1^2*y2^2*dx1 + (-1/4)*x1*x2*y1^2*y2*dx1"
            " + (1/4)*x1^2*y2^3*dx1 + (3/10)*x1^2*x2*y1^2*y2^2*dx1 + (1/10)*x1^3*y2^4*dx1"
            " + (1/4)*y1^2*y2*dx2 + (-1/8)*y1^3*dx2 + (1/10)*x2*y1^4*dx2"
            " + (-3/20)*x1*y1^2*y2^2*dx2 + (3/20)*x1*y1^3*y2*dx2 + (1/4)*x1*x2*y1^3*dx2"
            " + (-1/4)*x1^2*y1*y2^2*dx2 + (-3/10)*x1^2*x2*y1^3*y2*dx2"
            " + (-1/10)*x1^3*y1*y2^3*dx2"
        ),
        (
            "(3/80)*y1^2*y2^2*dx1*dx2 + (1/16)*y1^3*y2*dx1*dx2 + (3/64)*y1^4*dx1*dx2"
            " + (-9/8)*x1*x2*y1^3*y2*dx1*dx2 + (-3/80)*x1*x2*y1^4*dx1*dx2"
            " + (-27/40)*x1^2*y1*y2^3*dx1*dx2 + (-9/16)*x1^2*y1^2*y2^2*dx1*dx2"
            " + (-9/80)*x1^2*x2^2*y1^4*dx1*dx2 + (9/40)*x1^3*x2*y1^2*y2^2*dx1*dx2"
            " + (-9/80)*x1^4*y2^4*dx1*dx2"
        ),
        {
            "x1": (
                "y1 + (-1/4)*y1^2*y2 + (-1/24)*y1^3 + (-1/10)*x2*y1^4 + x1 + (-1)*x1*y1*y2"
                " + (3/20)*x1*y1^2*y2^2 + (1/10)*x1*y1^3*y2 + (-1/4)*x1*x2*y1^3"
                " + (1/4)*x1^2*y1*y2^2 + (3/10)*x1^2*x2*y1^3*y2 + (1/10)*x1^3*y1*y2^3"
            ),
            "x1*x2": (
                "y1*y2 + (1/12)*y1^3*y2 + x2*y1 + (-1/4)*x2*y1^2*y2 + (11/24)*x2*y1^3"
                " + x1*y2 + (-1/4)*x1*y1*y2^2 + (1/8)*x1*y1^2*y2 + (-1/10)*x2^2*y1^4"
                " + x1*x2 + (-1)*x1*x2*y1*y2 + (1/2)*x1*x2*y1^2 + (3/20)*x1*x2*y1^2*y2^2"
                " + (-3/4)*x1*x2*y1^3*y2 + (1/2)*x1^2*y2^2 + (3/20)*x1^2*y1*y2^3"
                " + (-3/20)*x1^2*y1^2*y2^2 + (-1/4)*x1*x2^2*y1^3 + (1/4)*x1^2*x2*y1*y2^2"
                " + (-1/4)*x1^2*x2*y1^2*y2 + (1/4)*x1^3*y2^3 + (3/10)*x1^2*x2^2*y1^3*y2"
                " + (1/10)*x1^3*x2*y1*y2^3 + (3/10)*x1^3*x2*y1^2*y2^2 + (1/10)*x1^4*y2^4"
            ),
            "h*x2^2": "y2^2*h + (2)*x2*y2*h + x2^2*h + x2^2*y1^2*h + x1*x2*y2^2*h",
        },
    ),
    "curved-linear-n2": (
        "(1/8)*y1^2*y2*dx1 + (-1/8)*y1^3*dx2",
        "0",
        {
            "x2": "y2 + x2",
            "x1*x3": (
                "y1*y3 + (1/8)*y1^3*y2 + x3*y1 + (1/2)*x2*y1^3 + x1*y3 + (1/8)*x1*y1^2*y2"
                " + x1*x3 + (1/2)*x1*x2*y1^2"
            ),
            "h*x2^2": "y2^2*h + (2)*x2*y2*h + x2^2*h",
        },
    ),
    "laurent": (
        "(1/8)*y1^2*y2*dx1 + (-1/8)*y1^3*dx2",
        "(3/64)*y1^4*dx1*dx2",
        {
            "x1*x2": (
                "y1*y2 + (1/12)*y1^3*y2 + x2*y1 + (11/24)*x2*y1^3 + x1*y2"
                " + (1/8)*x1*y1^2*y2 + x1*x2 + (1/2)*x1*x2*y1^2"
            ),
            "h*x2^2": "y2^2*h + (2)*x2*y2*h + x2^2*h + x2^2*y1^2*h",
            "h^-1*x1": "y1*h^-1 + (-1/24)*y1^3*h^-1 + (1/320)*y1^5*h^-1 + x1*h^-1",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_FEDOSOV))
def test_fedosov_data_pinned(case):
    r, residual, sections = PINNED_FEDOSOV[case]
    fd = table_fd(case)
    assert str(fd.r) == r
    assert str(fd.curvature_residual) == residual
    for text, expected in sections.items():
        assert str(quantize(E(text, fd.policy), fd)) == expected
