import pytest

from jetstar import linalg
from jetstar.elements import MixedElement, TruncationPolicy
from jetstar.errors import ValidationError
from jetstar.fedosov import ConnectionInput, build_A, star
from jetstar.parsing import parse_element
from jetstar.scalars import Scalar
from jetstar.weyl import PoissonTensor, poisson_bracket_base
from jetstar.whitney import (
    Germ,
    SubsetModel,
    WhitneyAlgebra,
    builtin_subset,
    is_flat,
    load_subset_json,
    random_base_poly,
    verify_ideal_stability,
)


@pytest.fixture
def pol():
    return TruncationPolicy(1, 6, 4, 2)


@pytest.fixture
def pt():
    return PoissonTensor.darboux(1)


@pytest.fixture
def fd(pol, pt):
    return build_A(ConnectionInput.flat(1), pt, pol)


def E(text, policy):
    return parse_element(text, policy)


def flatness_oracle(p, subset, order):
    """Definitional route: every restricted derivative of order <= m is 0."""
    dim = subset.dim
    for germ in subset.germs:
        normals = germ.normals(dim)
        stack = [(p, 0)]
        seen = []
        while stack:
            value, used = stack.pop()
            seen.append(value)
            restricted = value
            for m in normals:
                restricted = restricted.substitute_base(m + 1, germ.point[m].re)
            if not restricted.is_zero():
                return False
            if used < order:
                for j in range(dim):
                    dv = value.partial("base", j + 1)
                    if not dv.is_zero():
                        stack.append((dv, used + 1))
    return True


class TestSubsetModel:
    def test_builtins_and_components(self):
        assert len(builtin_subset("point").components()) == 1
        assert len(builtin_subset("axis").components()) == 1
        assert len(builtin_subset("cross").components()) == 1
        assert len(builtin_subset("two-points").components()) == 2
        assert len(builtin_subset("plane-in-r4").components()) == 1

    def test_duplicate_rejected(self):
        with pytest.raises(ValidationError):
            SubsetModel(2, [Germ((0, 0), ()), Germ((0, 0), ())])

    def test_duplicate_modulo_directions(self):
        # points differing only along the germ's own directions coincide
        with pytest.raises(ValidationError):
            SubsetModel(2, [Germ((0, 0), (0,)), Germ((5, 0), (0,))])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            SubsetModel(2, [])

    def test_intersections(self):
        two = builtin_subset("two-points")
        g, h = two.germs
        assert not two.germs_intersect(g, h)
        cross = builtin_subset("cross")
        assert cross.germs_intersect(*cross.germs)
        parallel = SubsetModel(
            2, [Germ((0, 0), (0,)), Germ((0, 1), (0,))], name="parallel"
        )
        assert len(parallel.components()) == 2

    def test_json_roundtrip(self):
        subset = builtin_subset("two-points")
        again = load_subset_json(subset.to_json())
        assert again == subset


class TestFlatIdeal:
    def test_point_membership(self, pol):
        point = builtin_subset("point")
        assert not is_flat(E("x1", pol), point, pol.jet_order)
        # any nonzero poly of degree <= N fails at order N
        assert not is_flat(E("x1^2*x2", pol), point, pol.jet_order)
        assert is_flat(MixedElement.zero(2), point, pol.jet_order)

    def test_axis_examples(self, pol):
        axis = builtin_subset("axis")
        assert not is_flat(E("x2^2", pol), axis, 2)  # d^2/dx2^2 = 2 on the axis
        assert is_flat(E("x2^3", pol), axis, 2)
        assert is_flat(E("x1*x2^3", pol), axis, 2)
        assert not is_flat(E("x1", pol), axis, 0)

    def test_against_definitional_oracle(self, rng, pol):
        for name in ("axis", "cross", "two-points"):
            subset = builtin_subset(name)
            for _ in range(15):
                p = random_base_poly(rng, 2, 4)
                order = rng.randint(0, 2)
                assert is_flat(p, subset, order) == flatness_oracle(p, subset, order)

    def test_kernel_matches_membership(self, pol, rng):
        walg = WhitneyAlgebra(builtin_subset("axis"), pol)
        basis = walg.flat_basis(order=3)
        assert basis
        for vec in basis:
            assert is_flat(vec, walg.subset, 3)

    def test_rank_nullity(self):
        for name in ("axis", "cross", "two-points"):
            subset = builtin_subset(name)
            walg = WhitneyAlgebra(subset, TruncationPolicy(1, 6, 4, 1))
            ev = walg.evaluator(order=2)
            assert len(ev.domain) == ev.rank() + len(ev.kernel_basis())


class TestProject:
    def test_point_classes_are_polynomials(self, pol):
        walg = WhitneyAlgebra(builtin_subset("point"), pol)
        f = walg.project(E("x1", pol))
        assert f.rep == E("x1", pol)
        assert not f.is_zero()

    def test_two_point_jets(self, pol):
        subset = builtin_subset("two-points")
        walg = WhitneyAlgebra(subset, pol)
        f = walg.project(E("x1", pol))
        # normal form carries the rebased Taylor data at (1,0) and (-1,0)
        (k, vec), = f.normal_form
        assert k == 0
        ev = walg.evaluator()
        direct = ev.evaluate_poly(E("x1", pol))
        assert tuple(direct) == vec

    def test_multiplicative(self, pol, rng):
        for name in ("point", "axis", "two-points"):
            walg = WhitneyAlgebra(builtin_subset(name), pol)
            for _ in range(10):
                p = random_base_poly(rng, 2, 3)
                q = random_base_poly(rng, 2, 3)
                assert walg.project(p.mul(q, pol)) == walg.project(p).mul(walg.project(q))

    def test_section_is_canonical(self, pol, rng):
        walg = WhitneyAlgebra(builtin_subset("axis"), pol)
        for _ in range(10):
            p = random_base_poly(rng, 2, 4)
            f = walg.project(p)
            again = walg.project(f.rep)
            assert f == again and f.rep == again.rep


def dense_oracle(ev):
    """Kernel basis and section map of an evaluator by dense rref.

    The section solves through a left inverse of the pivot columns, read off
    the reduced echelon form of [E_piv | I].
    """
    dim = ev.subset.dim
    cols = [ev.evaluate_poly(MixedElement.monomial(dim, Scalar.one(), alpha=mono))
            for mono in ev.domain]
    matrix = [[col[r] for col in cols] for r in range(len(ev.rows))]
    pivots = linalg.rref([list(row) for row in matrix], len(ev.domain))
    n_rows, n_piv = len(ev.rows), len(pivots)
    augmented = [
        [matrix[r][c] for c in pivots]
        + [Scalar.one() if j == r else Scalar.zero() for j in range(n_rows)]
        for r in range(n_rows)
    ]
    linalg.rref(augmented, n_piv + n_rows)
    left_inverse = [row[n_piv:] for row in augmented[:n_piv]]

    def element(coeffs, monos):
        terms = {(mono, (0,) * dim, 0, ()): c for mono, c in zip(monos, coeffs)}
        return MixedElement(dim, terms)

    kernel = [element(vec, ev.domain)
              for vec in linalg.kernel_basis(matrix, len(ev.domain))]

    def section(vector):
        solution = [sum((a * b for a, b in zip(row, vector)), Scalar.zero())
                    for row in left_inverse]
        return element(solution, [ev.domain[c] for c in pivots])

    return kernel, section


class TestSparseAgainstDense:
    @pytest.mark.parametrize("name, policy, orders", [
        ("cross", TruncationPolicy(1, 6, 4, 2), (1, 3, 6)),
        ("two-points", TruncationPolicy(1, 6, 4, 2), (0, 2, 6)),
        ("plane-in-r4", TruncationPolicy(2, 4, 4, 1), (1, 4)),
    ])
    def test_section_and_flat_basis(self, name, policy, orders, rng):
        walg = WhitneyAlgebra(builtin_subset(name), policy)
        dim = walg.subset.dim
        for order in orders:
            ev = walg.evaluator(order=order)
            kernel, section = dense_oracle(ev)
            assert list(walg.flat_basis(order)) == kernel
            assert len(ev.domain) == ev.rank() + len(kernel)
            for _ in range(6):
                vector = ev.evaluate_poly(random_base_poly(rng, dim, policy.jet_order))
                assert ev.section_poly(vector) == section(vector)
            outside = list(ev.evaluate_poly(MixedElement.zero(dim)))
            outside[-1] = Scalar.one()
            if any(v != w for v, w in zip(ev.evaluate_poly(section(outside)), outside)):
                with pytest.raises(ValidationError):
                    ev.section_poly(tuple(outside))

    def test_kernel_cache_is_immutable(self, pol):
        walg = WhitneyAlgebra(builtin_subset("axis"), pol)
        basis = walg.flat_basis(3)
        with pytest.raises((TypeError, AttributeError)):
            basis.append(basis[0])
        assert walg.flat_basis(3) is basis


class TestInducedStar:
    def test_flat_example(self, pol, fd):
        walg = WhitneyAlgebra(builtin_subset("point"), pol)
        f = walg.project(E("x1", pol))
        g = walg.project(E("x2", pol))
        got = f.star(g, fd)
        assert got.rep == E("x1*x2 - (1/2)*i*h", pol)

    def test_unit(self, pol, fd, rng):
        walg = WhitneyAlgebra(builtin_subset("cross"), pol)
        one = walg.unit_class()
        for _ in range(10):
            f = walg.project(random_base_poly(rng, 2, 3))
            assert one.star(f, fd) == f
            assert f.star(one, fd) == f

    def test_representative_independence(self, rng):
        policy = TruncationPolicy(1, 8, 6, 2)
        pt = PoissonTensor.darboux(1)
        fd = build_A(ConnectionInput.flat(1), pt, policy)
        walg = WhitneyAlgebra(builtin_subset("axis"), policy)
        basis = walg.flat_basis(4, 6)
        for _ in range(10):
            flat = basis[rng.randrange(len(basis))]
            p = random_base_poly(rng, 2, 2)
            q = random_base_poly(rng, 2, 2)
            s1 = star(p + flat, q, fd)
            s2 = star(p, q, fd)
            for k in range(policy.hbar_order + 1):
                reduced = 4 - 2 * k
                if reduced < 0:
                    continue
                assert is_flat((s1 - s2).hbar_coefficient(k), walg.subset, reduced)

    def test_degenerate_full_space(self, rng):
        policy = TruncationPolicy(1, 4, 4, 1)
        pt = PoissonTensor.darboux(1)
        fd = build_A(ConnectionInput.flat(1), pt, policy)
        full = SubsetModel(2, [Germ((0, 0), (0, 1))], name="full")
        walg = WhitneyAlgebra(full, policy)
        for _ in range(10):
            p = random_base_poly(rng, 2, 2)
            q = random_base_poly(rng, 2, 2)
            assert walg.project(p).star(walg.project(q), fd).rep == star(
                p, q, fd
            ).truncate(policy)


class TestWhitneyPoisson:
    def test_canonical_bracket(self, pol, pt):
        walg = WhitneyAlgebra(builtin_subset("point"), pol)
        f = walg.project(E("x1", pol))
        g = walg.project(E("x2", pol))
        assert f.poisson(g, pt) == walg.unit_class()

    def test_antisymmetry(self, pol, pt, rng):
        walg = WhitneyAlgebra(builtin_subset("axis"), pol)
        for _ in range(10):
            f = walg.project(random_base_poly(rng, 2, 3))
            assert f.poisson(f, pt).is_zero()

    def test_jacobi(self, pol, pt, rng):
        walg = WhitneyAlgebra(builtin_subset("cross"), pol)
        for _ in range(10):
            f = random_base_poly(rng, 2, 2)
            g = random_base_poly(rng, 2, 2)
            h = random_base_poly(rng, 2, 1)

            def pb(a, b):
                return poisson_bracket_base(a, b, pt, pol)

            total = pb(pb(f, g), h) + pb(pb(h, f), g) + pb(pb(g, h), f)
            assert walg.project(total).is_zero()


class TestIdealStability:
    def test_axis_report(self, rng):
        policy = TruncationPolicy(1, 8, 6, 2)
        pt = PoissonTensor.darboux(1)
        fd = build_A(ConnectionInput.flat(1), pt, policy)
        walg = WhitneyAlgebra(builtin_subset("axis"), policy)
        report = verify_ideal_stability(fd, walg, rng, 20, 4, 6, 2)
        assert report["passed"]
        assert report["checks"] > 0
        assert report["flat_ideal_dim"] > 0

    def test_vacuous_config_rejected(self, rng, fd, pol):
        walg = WhitneyAlgebra(builtin_subset("point"), pol)
        with pytest.raises(ValidationError):
            # at full order the point ideal is zero on capped polynomials
            verify_ideal_stability(fd, walg, rng, 5, pol.jet_order, pol.jet_order, 2)

    def test_unit_second_argument(self, rng):
        # c_k(p, 1) = 0 for k >= 1, trivially flat; c_0(p, 1) = p
        policy = TruncationPolicy(1, 8, 6, 2)
        pt = PoissonTensor.darboux(1)
        fd = build_A(ConnectionInput.flat(1), pt, policy)
        walg = WhitneyAlgebra(builtin_subset("axis"), policy)
        flat = walg.flat_basis(4, 6)[0]
        series = star(flat, MixedElement.one(2), fd)
        assert series == flat
        assert is_flat(series.hbar_coefficient(0), walg.subset, 4)


class TestMonotonicity:
    def test_refinement_shrinks_ideal(self):
        pol = TruncationPolicy(1, 6, 4, 1)
        axis = WhitneyAlgebra(builtin_subset("axis"), pol).evaluator(order=2)
        cross = WhitneyAlgebra(builtin_subset("cross"), pol).evaluator(order=2)
        assert cross.rank() >= axis.rank()
        assert len(cross.kernel_basis()) <= len(axis.kernel_basis())
        assert len(cross.rows) >= len(axis.rows)
