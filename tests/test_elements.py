import pytest

from jetstar.elements import MixedElement, TruncationPolicy
from jetstar.errors import DimensionMismatch, ValidationError
from jetstar.scalars import Scalar, rational

from conftest import random_element


def x(dim, j):
    return MixedElement.base_var(dim, j)


def y(dim, j):
    return MixedElement.fiber_var(dim, j)


def dx(dim, j):
    return MixedElement.form_var(dim, j)


class TestPolicy:
    def test_schedule(self):
        pol = TruncationPolicy(2, 5, 6, 2)
        assert pol.dim == 4
        assert pol.schedule_cap(0) == 5
        assert pol.schedule_cap(3) == 2

    def test_validation(self):
        with pytest.raises(ValidationError):
            TruncationPolicy(0, 2, 2, 1)
        with pytest.raises(ValidationError):
            TruncationPolicy(1, -1, 2, 1)
        with pytest.raises(ValidationError):
            TruncationPolicy(1, 2, 2, 1, hbar_min=2)

    def test_laurent_window(self):
        pol = TruncationPolicy(1, 2, 4, 1, hbar_min=-1)
        key = ((0, 0), (0, 0), -1, ())
        assert pol.keeps(key)
        assert not pol.keeps(((0, 0), (0, 0), -2, ()))


class TestArithmetic:
    def test_product_collects_and_signs(self, policy_n1):
        a = x(2, 1).mul(dx(2, 1), policy_n1)
        b = y(2, 1).mul(dx(2, 2), policy_n1)
        product = a.mul(b, policy_n1)
        assert product == MixedElement.monomial(
            2, Scalar.one(), alpha=(1, 0), beta=(1, 0), forms=(0, 1)
        )

    def test_wedge_square_is_zero(self, policy_n1):
        assert dx(2, 1).mul(dx(2, 1), policy_n1).is_zero()

    def test_wedge_antisymmetry(self, policy_n1):
        ab = dx(2, 1).mul(dx(2, 2), policy_n1)
        ba = dx(2, 2).mul(dx(2, 1), policy_n1)
        assert ba == -ab

    def test_hbar_truncation_contract(self):
        pol = TruncationPolicy(1, 4, 4, 1)
        one = MixedElement.one(2)
        h = MixedElement.hbar(2)
        left = one + h
        right = one - h
        assert left.mul(right, pol) == one  # h^2 truncated away

    def test_dimension_mismatch(self, policy_n1):
        with pytest.raises(DimensionMismatch):
            x(2, 1).mul(MixedElement.one(4), policy_n1)

    @pytest.mark.parametrize("hbar_min", [0, -1])
    def test_truncation_compatible(self, rng, hbar_min):
        pol = TruncationPolicy(1, 4, 4, 1, hbar_min=hbar_min)
        wide = TruncationPolicy(1, 6, 6, 3, hbar_min=hbar_min - 1)
        for _ in range(30):
            a = random_element(rng, pol)
            b = random_element(rng, pol)
            assert a.mul(b, pol) == a.mul(b, wide).truncate(pol)

    def test_ring_axioms_random(self, rng, policy_n1):
        for _ in range(40):
            a = random_element(rng, policy_n1)
            b = random_element(rng, policy_n1)
            c = random_element(rng, policy_n1)
            assert a.mul(b, policy_n1).mul(c, policy_n1) == a.mul(
                b.mul(c, policy_n1), policy_n1
            )
            assert (a + b).mul(c, policy_n1) == a.mul(c, policy_n1) + b.mul(c, policy_n1)

    def test_graded_commutativity(self, rng, policy_n2):
        for _ in range(40):
            a = random_element(rng, policy_n2, max_terms=1)
            b = random_element(rng, policy_n2, max_terms=1)
            if a.is_zero() or b.is_zero():
                continue
            pa = a.form_degrees()[0]
            pb = b.form_degrees()[0]
            ab = a.mul(b, policy_n2)
            ba = b.mul(a, policy_n2)
            assert ab == (ba if (pa * pb) % 2 == 0 else -ba)


class TestDerivations:
    def test_fiber_partial(self, policy_n1):
        p = y(2, 1).mul(y(2, 1), policy_n1).mul(y(2, 2), policy_n1)  # y1^2 y2
        assert p.partial("fiber", 1) == y(2, 1).mul(y(2, 2), policy_n1).scale(Scalar(2))

    def test_partial_kills_other_kind(self):
        assert y(2, 2).partial("base", 1).is_zero()
        assert x(2, 1).partial("fiber", 1).is_zero()

    def test_second_mixed_partial(self, policy_n1):
        p = y(2, 1).mul(y(2, 2), policy_n1)
        assert p.partial("fiber", 1).partial("fiber", 2) == MixedElement.one(2)

    def test_index_out_of_range(self):
        with pytest.raises(ValidationError):
            y(2, 1).partial("fiber", 3)

    def test_partials_commute(self, rng, policy_n2):
        for _ in range(30):
            a = random_element(rng, policy_n2)
            i = rng.randint(1, 4)
            j = rng.randint(1, 4)
            assert a.partial("fiber", i).partial("fiber", j) == a.partial(
                "fiber", j
            ).partial("fiber", i)
            assert a.partial("base", i).partial("base", j) == a.partial(
                "base", j
            ).partial("base", i)


class TestGrading:
    def test_grade_filter_examples(self, policy_n1):
        a = y(2, 1) + y(2, 1).mul(y(2, 2), policy_n1).hbar_shift(1, policy_n1)
        assert a.grade_filter(2, 1) == y(2, 1).mul(y(2, 2), policy_n1).hbar_shift(
            1, policy_n1
        )
        assert y(2, 1).grade_filter(0, 0).is_zero()

    def test_grade_filter_partition(self, rng, policy_n1):
        for _ in range(20):
            a = random_element(rng, policy_n1, max_terms=20)
            total = MixedElement.zero(2)
            for s in range(policy_n1.fedosov_order + 1):
                for k in range(policy_n1.hbar_min, policy_n1.hbar_order + 1):
                    total = total + a.grade_filter(s, k)
            assert total == a


class TestSubstitution:
    def test_shift_base(self, policy_n1):
        p = x(2, 1).mul(x(2, 1), policy_n1)  # x1^2
        shifted = p.shift_base((rational(1), rational(0)))
        expected = (
            x(2, 1).mul(x(2, 1), policy_n1)
            + x(2, 1).scale(Scalar(2))
            + MixedElement.one(2)
        )
        assert shifted == expected

    def test_substitute_base(self, policy_n1):
        p = x(2, 1).mul(x(2, 2), policy_n1) + x(2, 2)
        assert p.substitute_base(1, rational(2)) == x(2, 2).scale(Scalar(3))


class TestPrinting:
    def test_zero(self):
        assert str(MixedElement.zero(2)) == "0"

    def test_roundtrip_random(self, rng, policy_n2):
        from jetstar.parsing import parse_element

        for _ in range(40):
            a = random_element(rng, policy_n2, max_terms=6)
            assert parse_element(a.to_str(), policy_n2) == a

    def test_negative_hbar_printing(self):
        pol = TruncationPolicy(1, 2, 4, 1, hbar_min=-2)
        from jetstar.parsing import parse_element

        a = MixedElement.hbar(2, -2)
        assert a.to_str() == "h^-2"
        assert parse_element(a.to_str(), pol) == a
