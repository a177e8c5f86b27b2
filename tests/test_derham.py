import pytest

from jetstar.derham import (
    WhitneyForm,
    brylinski_delta,
    cohomology_dims,
    d,
    delta_via_star,
    duality_table,
    hodge_star,
    lambda_pi,
    poisson_homology_dims,
    random_form,
    volume_coefficient,
)
from jetstar.elements import MixedElement, TruncationPolicy
from jetstar.errors import ValidationError
from jetstar.parsing import parse_element
from jetstar.scalars import Scalar, rational
from jetstar.weyl import PoissonTensor
from jetstar.whitney import WhitneyAlgebra, builtin_subset


@pytest.fixture
def pol():
    return TruncationPolicy(1, 4, 2, 1)


@pytest.fixture
def pt():
    return PoissonTensor.darboux(1)


@pytest.fixture
def walg(pol):
    return WhitneyAlgebra(builtin_subset("point"), pol)


def E(text, pol):
    return parse_element(text, pol)


def form0(walg, poly, cap=None):
    cap = walg.policy.jet_order if cap is None else cap
    return WhitneyForm(walg, 0, cap, [{(): poly} for _ in range(walg.n_components)])


def form1(walg, coeffs, cap):
    return WhitneyForm(walg, 1, cap, [dict(coeffs) for _ in range(walg.n_components)])


class TestExteriorDerivative:
    def test_d_of_x1(self, walg, pol):
        got = d(form0(walg, E("x1", pol)))
        assert got == form1(walg, {(0,): MixedElement.one(2)}, pol.jet_order - 1)

    def test_d_squared_zero(self, walg, pol, rng):
        for _ in range(25):
            form = random_form(rng, walg, 0, pol.jet_order)
            assert d(d(form)).is_zero()

    def test_d_of_coefficient_one_form(self, walg, pol):
        omega = form1(walg, {(1,): E("x1", pol)}, pol.jet_order - 1)
        got = d(omega)
        expected = WhitneyForm(
            walg, 2, pol.jet_order - 2, [{(0, 1): MixedElement.one(2)}]
        )
        assert got == expected

    def test_schedule_exhausted(self, walg):
        form = form0(walg, MixedElement.one(2), cap=0)
        with pytest.raises(ValidationError):
            d(form)


class TestLambdaPairing:
    def test_degree_zero_is_product(self, walg, pol):
        f = form0(walg, E("x1", pol))
        g = form0(walg, E("x2", pol))
        got = lambda_pi(f, g, PoissonTensor.darboux(1))
        assert got.component(0, ()) == E("x1*x2", pol)

    def test_conjugate_one_forms(self, walg, pol, pt):
        a = form1(walg, {(0,): MixedElement.one(2)}, 2)
        b = form1(walg, {(1,): MixedElement.one(2)}, 2)
        assert lambda_pi(a, b, pt).component(0, ()) == MixedElement.one(2)
        assert lambda_pi(a, a, pt).is_zero()


class TestHodgeStar:
    def test_volume_orientation(self, pt):
        assert volume_coefficient(pt) == Scalar.one()

    def test_star_one(self, walg, pt):
        one = form0(walg, MixedElement.one(2), cap=2)
        got = hodge_star(one, pt)
        assert got == WhitneyForm(walg, 2, 2, [{(0, 1): MixedElement.one(2)}])

    def test_star_dx1(self, walg, pt):
        a = form1(walg, {(0,): MixedElement.one(2)}, 2)
        assert hodge_star(a, pt) == a

    def test_star_dx2(self, walg, pt):
        a = form1(walg, {(1,): MixedElement.one(2)}, 2)
        assert hodge_star(a, pt) == a

    def test_involution_random(self, walg, pol, pt, rng):
        for q in range(3):
            for _ in range(15):
                form = random_form(rng, walg, q, 2)
                assert hodge_star(hodge_star(form, pt), pt) == form

    def test_constants_cache_bounded(self, walg):
        from jetstar.derham import _star_constants

        one = form0(walg, MixedElement.one(2), cap=2)
        for _ in range(2):
            for c in range(1, 25):
                tensor = PoissonTensor(1, [[0, c], [-c, 0]])
                volume = MixedElement.scalar(2, Scalar(rational(1, c)))
                assert hodge_star(one, tensor) == WhitneyForm(walg, 2, 2, [{(0, 1): volume}])
                info = _star_constants.cache_info()
                assert info.currsize <= 8 and info.maxsize == 8

    def test_involution_n2_complete_wedge_basis(self):
        pol = TruncationPolicy(2, 4, 2, 1)
        pt = PoissonTensor.darboux(2)
        walg = WhitneyAlgebra(builtin_subset("plane-in-r4"), pol)
        from itertools import combinations

        for q in range(5):
            for forms in combinations(range(4), q):
                form = WhitneyForm(walg, q, 0, [{forms: MixedElement.one(4)}])
                assert hodge_star(hodge_star(form, pt), pt) == form


class TestBrylinskiDelta:
    def test_bracket_example(self, walg, pol, pt):
        omega = form1(walg, {(1,): E("x1", pol)}, 3)  # x1 dx2
        got = brylinski_delta(omega, pt)
        assert got == form0(walg, MixedElement.one(2), cap=2)

    def test_constant_one_form(self, walg, pt):
        omega = form1(walg, {(0,): MixedElement.one(2)}, 2)
        assert brylinski_delta(omega, pt).is_zero()

    def test_top_form_frozen_value(self, walg, pol, pt):
        omega = WhitneyForm(walg, 2, 2, [{(0, 1): E("x1*x2", pol)}])
        got = brylinski_delta(omega, pt)
        expected = form1(
            walg, {(0,): E("-x2", pol), (1,): E("-x1", pol)}, 1
        )
        assert got == expected
        assert delta_via_star(omega, pt) == expected

    def test_two_routes_random(self, pol, pt, rng):
        for name in ("point", "axis", "cross", "two-points"):
            walg = WhitneyAlgebra(builtin_subset(name), pol)
            for q in (1, 2):
                cap = pol.jet_order - (2 - q)
                for _ in range(10):
                    form = random_form(rng, walg, q, cap)
                    assert brylinski_delta(form, pt) == delta_via_star(form, pt)

    def test_two_routes_n2(self, rng):
        pol = TruncationPolicy(2, 4, 2, 1)
        pt = PoissonTensor.darboux(2)
        walg = WhitneyAlgebra(builtin_subset("plane-in-r4"), pol)
        for q in range(1, 5):
            cap = pol.jet_order - (4 - q)
            for _ in range(6):
                form = random_form(rng, walg, q, cap)
                assert brylinski_delta(form, pt) == delta_via_star(form, pt)

    def test_delta_squared_zero(self, walg, pol, pt, rng):
        for _ in range(20):
            form = random_form(rng, walg, 2, pol.jet_order)
            assert brylinski_delta(brylinski_delta(form, pt), pt).is_zero()

    def test_identities_for_general_poisson_tensor(self, rng):
        # scaled n = 1 and skewed n = 2 tensors, not of Darboux shape
        cases = [
            (PoissonTensor(1, [[0, 2], [-2, 0]]), builtin_subset("point"),
             TruncationPolicy(1, 4, 2, 1)),
            (PoissonTensor(
                2,
                [[0, 0, 1, 1], [0, 0, -1, 2], [-1, 1, 0, 0], [-1, -2, 0, 0]],
            ), builtin_subset("plane-in-r4"), TruncationPolicy(2, 4, 2, 1)),
        ]
        for tensor, subset, policy in cases:
            walg = WhitneyAlgebra(subset, policy)
            dim = subset.dim
            for q in range(dim + 1):
                for _ in range(6):
                    form = random_form(rng, walg, q, 0)
                    assert hodge_star(hodge_star(form, tensor), tensor) == form
            for q in range(1, dim + 1):
                cap = policy.jet_order - (dim - q)
                for _ in range(6):
                    form = random_form(rng, walg, q, cap)
                    assert brylinski_delta(form, tensor) == delta_via_star(form, tensor)


class TestDimensionCounts:
    def test_betti_catalogue(self, pol):
        assert cohomology_dims(builtin_subset("point"), pol) == [1, 0, 0]
        assert cohomology_dims(builtin_subset("axis"), pol) == [1, 0, 0]
        assert cohomology_dims(builtin_subset("cross"), pol) == [1, 0, 0]
        assert cohomology_dims(builtin_subset("two-points"), pol) == [2, 0, 0]
        pol4 = TruncationPolicy(2, 4, 2, 1)
        assert cohomology_dims(builtin_subset("plane-in-r4"), pol4) == [1, 0, 0, 0, 0]

    def test_betti_stability(self):
        for name in ("point", "cross", "two-points"):
            subset = builtin_subset(name)
            a = cohomology_dims(subset, TruncationPolicy(1, 4, 2, 1))
            b = cohomology_dims(subset, TruncationPolicy(1, 5, 2, 1))
            assert a == b

    def test_poisson_duality(self, pt, pol):
        for name in ("point", "axis", "cross", "two-points"):
            table = duality_table(builtin_subset(name), pt, pol)
            for _, left, right in table:
                assert left == right

    def test_poisson_duality_n2(self):
        pol4 = TruncationPolicy(2, 4, 2, 1)
        pt4 = PoissonTensor.darboux(2)
        table = duality_table(builtin_subset("plane-in-r4"), pt4, pol4)
        for _, left, right in table:
            assert left == right

    def test_jet_order_must_cover_degrees(self):
        with pytest.raises(ValidationError):
            cohomology_dims(builtin_subset("plane-in-r4"), TruncationPolicy(2, 3, 2, 1))

    def test_poisson_dims_concentrated_in_top(self, pt, pol):
        assert poisson_homology_dims(builtin_subset("two-points"), pt, pol) == [0, 0, 2]
