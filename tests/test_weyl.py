import math

import pytest

from jetstar.elements import MixedElement, TruncationPolicy
from jetstar.errors import ValidationError
from jetstar.parsing import parse_element
from jetstar.scalars import Scalar, rational
from jetstar.weyl import (
    PoissonTensor,
    delta_inv,
    delta_op,
    fedosov_degree,
    graded_commutator_one_form,
    ihbar_commutator,
    moyal,
    pi_hat,
    star_commutator,
)

from conftest import random_element


@pytest.fixture
def pol():
    return TruncationPolicy(1, 6, 6, 3)


@pytest.fixture
def pt():
    return PoissonTensor.darboux(1)


def E(text, policy):
    return parse_element(text, policy)


def moyal_oracle(a, b, pt, policy):
    """Textbook bidifferential expansion with multinomial weights.

    Independent of the library's ordered-contraction accumulation: sums over
    unordered multi-indices m on the nonzero Pi entries with prod 1/m_p!.
    """
    pairs = pt.pairs
    result = MixedElement.zero(a.dim)
    factor = Scalar(rational(-1, 2)) * Scalar.i()

    def assignments(remaining, budget):
        if not remaining:
            yield ()
            return
        for m in range(budget + 1):
            for rest in assignments(remaining[1:], budget - m):
                yield (m,) + rest

    kmax = min(a.max_fiber_degree(), b.max_fiber_degree(), policy.hbar_order)
    for k in range(kmax + 1):
        for ms in assignments(pairs, k):
            if sum(ms) != k:
                continue
            left, right = a, b
            weight = Scalar.one()
            denom = 1
            dead = False
            for (i, j, w), m in zip(pairs, ms):
                denom *= math.factorial(m)
                for _ in range(m):
                    left = left.partial("fiber", i + 1)
                    right = right.partial("fiber", j + 1)
                    weight = weight * w
                    if left.is_zero() or right.is_zero():
                        dead = True
                        break
                if dead:
                    break
            if dead:
                continue
            term = left.mul(right, policy).scale(weight / Scalar(denom))
            result = result + term.scale(factor ** k).hbar_shift(k, policy)
    return result.truncate(policy)


class TestPoissonTensor:
    def test_darboux_pairs(self):
        pt = PoissonTensor.darboux(2)
        assert pt.pi[0][2] == Scalar.one()
        assert pt.pi[2][0] == Scalar(-1)
        assert pt.pi[0][1] == Scalar.zero()

    def test_omega_is_inverse(self):
        pt = PoissonTensor.darboux(2)
        dim = 4
        for i in range(dim):
            for j in range(dim):
                total = Scalar.zero()
                for k in range(dim):
                    total = total + pt.pi[i][k] * pt.omega[k][j]
                assert total == (Scalar.one() if i == j else Scalar.zero())

    def test_rejects_non_antisymmetric(self):
        with pytest.raises(ValidationError):
            PoissonTensor(1, [[0, 1], [1, 0]])

    def test_rejects_singular(self):
        with pytest.raises(ValidationError):
            PoissonTensor(1, [[0, 0], [0, 0]])


class TestPiHat:
    def test_conjugate_pair(self, pt):
        out = pi_hat(MixedElement.fiber_var(2, 1), MixedElement.fiber_var(2, 2), pt)
        assert len(out) == 1
        weight, left, right = out[0]
        assert weight == Scalar.one()
        assert left == MixedElement.one(2)
        assert right == MixedElement.one(2)

    def test_same_variable_vanishes(self, pt):
        assert pi_hat(MixedElement.fiber_var(2, 1), MixedElement.fiber_var(2, 1), pt) == []

    def test_square_factor(self, pt, pol):
        y1sq = E("y1^2", pol)
        out = pi_hat(y1sq, MixedElement.fiber_var(2, 2), pt)
        assert len(out) == 1
        weight, left, right = out[0]
        assert weight == Scalar.one()
        assert left == MixedElement.fiber_var(2, 1).scale(Scalar(2))
        assert right == MixedElement.one(2)


class TestMoyal:
    def test_linear_pair(self, pt, pol):
        assert moyal(E("y1", pol), E("y2", pol), pt, pol) == E("y1*y2 - (1/2)*i*h", pol)

    def test_unit(self, pt, pol, rng):
        one = MixedElement.one(2)
        for _ in range(10):
            a = random_element(rng, pol, with_forms=False)
            assert moyal(one, a, pt, pol) == a
            assert moyal(a, one, pt, pol) == a

    def test_squares(self, pt, pol):
        got = moyal(E("y1^2", pol), E("y2^2", pol), pt, pol)
        assert got == E("y1^2*y2^2 - 2*i*h*y1*y2 - (1/2)*h^2", pol)

    def test_laurent_window(self, pt):
        pol = TruncationPolicy(1, 4, 4, 1, hbar_min=-1)
        got = moyal(E("h^-1*y1", pol), E("h^-1*y2", pol), pt, pol)
        assert got == E("(-1/2)*i*h^-1", pol)

    @pytest.mark.parametrize("hbar_min", [0, -1])
    def test_truncation_compatible(self, pt, rng, hbar_min):
        pol = TruncationPolicy(1, 4, 4, 1, hbar_min=hbar_min)
        wide = TruncationPolicy(1, 6, 6, 3, hbar_min=hbar_min - 1)
        for _ in range(20):
            a = random_element(rng, pol)
            b = random_element(rng, pol)
            assert moyal(a, b, pt, pol) == moyal(a, b, pt, wide).truncate(pol)

    def test_against_multinomial_oracle(self, pt, pol, rng):
        for _ in range(25):
            a = random_element(rng, pol, with_forms=False)
            b = random_element(rng, pol, with_forms=False)
            assert moyal(a, b, pt, pol) == moyal_oracle(a, b, pt, pol)

    def test_against_oracle_n2(self, rng):
        pol = TruncationPolicy(2, 6, 6, 3)
        pt = PoissonTensor.darboux(2)
        for _ in range(15):
            a = random_element(rng, pol, with_forms=False)
            b = random_element(rng, pol, with_forms=False)
            assert moyal(a, b, pt, pol) == moyal_oracle(a, b, pt, pol)

    def test_associativity(self, pt, pol, rng):
        for _ in range(20):
            a = random_element(rng, pol, with_forms=False)
            b = random_element(rng, pol, with_forms=False)
            c = random_element(rng, pol, with_forms=False)
            assert moyal(moyal(a, b, pt, pol), c, pt, pol) == moyal(
                a, moyal(b, c, pt, pol), pt, pol
            )

    def test_associativity_form_valued(self, pt, pol, rng):
        for _ in range(20):
            a = random_element(rng, pol, with_forms=True)
            b = random_element(rng, pol, with_forms=True)
            c = random_element(rng, pol, with_forms=True)
            assert moyal(moyal(a, b, pt, pol), c, pt, pol) == moyal(
                a, moyal(b, c, pt, pol), pt, pol
            )

    def test_h0_is_commutative_product(self, pt, pol, rng):
        for _ in range(15):
            a = random_element(rng, pol, with_forms=False, with_hbar=False)
            b = random_element(rng, pol, with_forms=False, with_hbar=False)
            assert moyal(a, b, pt, pol).hbar_coefficient(0) == a.mul(b, pol).hbar_coefficient(0)

    def test_filtration_multiplicative(self, pt, pol, rng):
        for _ in range(20):
            a = random_element(rng, pol, with_forms=False)
            b = random_element(rng, pol, with_forms=False)
            product = moyal(a, b, pt, pol)
            assert product.min_fedosov_degree() >= a.min_fedosov_degree() + b.min_fedosov_degree()


class TestCommutator:
    def test_canonical_pair(self, pt, pol):
        got = star_commutator(E("y1", pol), E("y2", pol), pt, pol)
        assert got == E("-i*h", pol)

    def test_self_commutator(self, pt, pol, rng):
        a = random_element(rng, pol, with_forms=False)
        assert star_commutator(a, a, pt, pol).is_zero()

    def test_squares(self, pt, pol):
        got = star_commutator(E("y1^2", pol), E("y2^2", pol), pt, pol)
        assert got == E("-4*i*h*y1*y2", pol)

    def test_commutation_sharpened(self, pt, pol, rng):
        for _ in range(20):
            a = random_element(rng, pol, with_forms=False, with_hbar=False)
            b = random_element(rng, pol, with_forms=False, with_hbar=False)
            bracket = MixedElement.zero(2)
            for i, j, w in pt.pairs:
                bracket = bracket + a.partial("fiber", i + 1).mul(
                    b.partial("fiber", j + 1), pol
                ).scale(w)
            residue = star_commutator(a, b, pt, pol) + bracket.scale(
                Scalar.i()
            ).hbar_shift(1, pol)
            assert all(k >= 3 for k in residue.hbar_orders())


class TestFedosovDegree:
    def test_examples(self, pol):
        assert fedosov_degree(E("y1*y2", pol)) == 2
        assert fedosov_degree(E("h*y1", pol)) == 3
        assert fedosov_degree(MixedElement.zero(2)) == math.inf


class TestDeltaOperators:
    def test_delta_op_example(self, pol):
        assert delta_op(E("y1^2", pol)) == E("2*y1*dx1", pol)

    def test_delta_inv_example(self, pol):
        assert delta_inv(E("dx1", pol)) == E("y1", pol)

    def test_delta_op_nilpotent(self, rng, pol):
        for _ in range(20):
            a = random_element(rng, pol)
            assert delta_op(delta_op(a)).is_zero()

    def test_delta_inv_nilpotent(self, rng, pol):
        for _ in range(20):
            a = random_element(rng, pol)
            assert delta_inv(delta_inv(a)).is_zero()

    def test_homotopy_identity(self, rng):
        pol = TruncationPolicy(2, 6, 6, 3)
        for _ in range(30):
            a = random_element(rng, pol)
            scalar_part = MixedElement(
                4,
                {k: c for k, c in a.terms.items() if sum(k[1]) == 0 and not k[3]},
            )
            assert delta_op(delta_inv(a)) + delta_inv(delta_op(a)) + scalar_part == a


class TestGeneratorAction:
    def test_ihbar_commutator_with_generator_is_minus_delta(self, rng, pt, pol):
        # the sign convention anchor: (i/h)[omega_{ij} y^i dx^j, a] = -delta a
        from jetstar.fedosov import generator_one_form

        lam = generator_one_form(pt, pol)
        for _ in range(20):
            a = random_element(rng, pol)
            assert ihbar_commutator(lam, a, pt, pol) == -delta_op(a)

    def test_graded_commutator_parity(self, pt, pol):
        lam_term = E("y1*dx1", pol)
        even = E("y2^2", pol)
        odd = E("y2*dx2", pol)
        assert graded_commutator_one_form(lam_term, even, pt, pol) == moyal(
            lam_term, even, pt, pol
        ) - moyal(even, lam_term, pt, pol)
        assert graded_commutator_one_form(lam_term, odd, pt, pol) == moyal(
            lam_term, odd, pt, pol
        ) + moyal(odd, lam_term, pt, pol)
