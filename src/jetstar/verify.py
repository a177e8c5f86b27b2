"""Named invariant checks behind ``jetstar verify``.

Every check is seeded deterministically from (seed, check name), so a fixed
configuration reproduces byte-identical reports.  Checks return a
:class:`CheckResult`; failures are recorded, never raised.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

from . import derham, homology
from .elements import MixedElement, TruncationPolicy, sum_of_products
from .errors import JetstarError, ValidationError
from .fedosov import (
    ConnectionInput,
    build_A,
    c_k,
    curvature,
    curvature_weyl_route,
    quantize,
    star,
    symbol,
)
from .parsing import parse_element
from .scalars import Scalar, rational
from .weyl import (
    PoissonTensor,
    delta_inv,
    delta_op,
    moyal,
    moyal_base,
    pi_hat,
    poisson_bracket_base,
    star_commutator,
)
from .whitney import (
    SubsetModel,
    Germ,
    WhitneyAlgebra,
    builtin_subset,
    is_flat,
    monomials_up_to,
    random_base_poly,
    verify_ideal_stability,
)

@dataclass
class CheckResult:
    suite: str
    name: str
    trials: int
    passed: bool
    detail: str = ""

    def to_json(self):
        return {
            "suite": self.suite,
            "name": self.name,
            "trials": self.trials,
            "passed": self.passed,
            "detail": self.detail,
        }


def _rng(seed, label):
    return random.Random(f"{seed}:{label}")


def _scalar_pool(rng):
    choices = [Scalar(v) for v in (-2, -1, 1, 2, 3)]
    choices.append(Scalar(rational(1, 2)))
    choices.append(Scalar(0, 1))
    return choices[rng.randrange(len(choices))]


def random_weyl_element(rng, policy, max_terms=5, with_forms=False, with_hbar=True,
                        fiber_only=False):
    dim = policy.dim
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        if fiber_only:
            alpha = (0,) * dim
        else:
            alpha = tuple(rng.randint(0, 1) for _ in range(dim))
        beta = tuple(rng.randint(0, 2) for _ in range(dim))
        k = rng.randint(0, 1) if with_hbar else 0
        if with_forms and rng.random() < 0.5:
            size = rng.randint(1, min(2, dim))
            forms = tuple(sorted(rng.sample(range(dim), size)))
        else:
            forms = ()
        key = (alpha, beta, k, forms)
        if not policy.keeps(key):
            continue
        terms[key] = _scalar_pool(rng)
    return MixedElement(policy.dim, terms) if terms else MixedElement.zero(dim)


def _check(results, seed, trials, suite, label, name, fn, count=None):
    """Run ``fn`` on ``count`` (default ``trials``) trials and record the result.

    The trials share one rng seeded from (seed, suite, label, name); a
    ``label`` (the subset name, or None) also tags the reported check name.
    """
    tag = suite if label is None else f"{suite}:{label}"
    rng = _rng(seed, f"{tag}:{name}")
    count = trials if count is None else count
    failed = sum(0 if fn(rng) else 1 for _ in range(count))
    results.append(
        CheckResult(
            suite, name if label is None else f"{name}[{label}]", count, failed == 0,
            f"{failed}/{count} trials failed" if failed else "",
        )
    )


def _fiber_poisson(a, b, pt, policy):
    """Pi^{ij} (d_{y_i} a)(d_{y_j} b): the k = 1 level of the Moyal sum."""
    pairs = [(u.scale(w), v) for w, u, v in pi_hat(a, b, pt)]
    return sum_of_products(a.dim, pairs, policy)


def _scalar_form_part(a):
    return MixedElement(
        a.dim,
        {k: c for k, c in a.terms.items() if sum(k[1]) == 0 and not k[3]},
    )


# ----------------------------------------------------------------------
# weyl suite (includes the core-algebra ring invariants)


def suite_weyl(seed, trials, conn, pt):
    policy = TruncationPolicy(conn.half_dim, 6, 6, 3)
    results = []

    check = partial(_check, results, seed, trials, "weyl", None)

    def mul_associative(rng):
        a = random_weyl_element(rng, policy)
        b = random_weyl_element(rng, policy, with_forms=True)
        c = random_weyl_element(rng, policy)
        return a.mul(b, policy).mul(c, policy) == a.mul(b.mul(c, policy), policy)

    def mul_distributive(rng):
        a = random_weyl_element(rng, policy)
        b = random_weyl_element(rng, policy)
        c = random_weyl_element(rng, policy, with_forms=True)
        return (a + b).mul(c, policy) == a.mul(c, policy) + b.mul(c, policy)

    def mul_graded_commutative(rng):
        a = random_weyl_element(rng, policy, max_terms=1, with_forms=True)
        b = random_weyl_element(rng, policy, max_terms=1, with_forms=True)
        ab = a.mul(b, policy)
        ba = b.mul(a, policy)
        deg_a = a.form_degrees()
        deg_b = b.form_degrees()
        if not deg_a or not deg_b:
            return ab == ba
        sign = (-1) ** (deg_a[0] * deg_b[0])
        return ab == (ba if sign > 0 else -ba)

    def partials_commute(rng):
        a = random_weyl_element(rng, policy, with_forms=True)
        i = rng.randint(1, policy.dim)
        j = rng.randint(1, policy.dim)
        return a.partial("fiber", i).partial("fiber", j) == a.partial("fiber", j).partial(
            "fiber", i
        )

    def grade_partition(rng):
        a = random_weyl_element(rng, policy, max_terms=20, with_forms=True)
        total = MixedElement.zero(a.dim)
        for s in range(policy.fedosov_order + 1):
            for k in range(policy.hbar_min, policy.hbar_order + 1):
                total = total + a.grade_filter(s, k)
        return total == a

    def parser_roundtrip(rng):
        a = random_weyl_element(rng, policy, max_terms=6, with_forms=True)
        return parse_element(a.to_str(), policy) == a

    def moyal_associative(rng):
        a = random_weyl_element(rng, policy)
        b = random_weyl_element(rng, policy)
        c = random_weyl_element(rng, policy)
        left = moyal(moyal(a, b, pt, policy), c, pt, policy)
        right = moyal(a, moyal(b, c, pt, policy), pt, policy)
        return left == right

    def moyal_h0_is_mul(rng):
        a = random_weyl_element(rng, policy, with_hbar=False)
        b = random_weyl_element(rng, policy, with_hbar=False)
        return moyal(a, b, pt, policy).hbar_coefficient(0) == a.mul(b, policy).hbar_coefficient(0)

    def commutation_sharpened(rng):
        a = random_weyl_element(rng, policy, with_hbar=False, fiber_only=True)
        b = random_weyl_element(rng, policy, with_hbar=False, fiber_only=True)
        residue = star_commutator(a, b, pt, policy) + _fiber_poisson(
            a, b, pt, policy
        ).scale(Scalar.i()).hbar_shift(1, policy)
        return all(k >= 3 for k in residue.hbar_orders())

    def filtration(rng):
        a = random_weyl_element(rng, policy)
        b = random_weyl_element(rng, policy)
        product = moyal(a, b, pt, policy)
        return product.min_fedosov_degree() >= a.min_fedosov_degree() + b.min_fedosov_degree()

    def hodge_homotopy(rng):
        a = random_weyl_element(rng, policy, with_forms=True)
        reconstructed = delta_op(delta_inv(a)) + delta_inv(delta_op(a)) + _scalar_form_part(a)
        return reconstructed == a

    def delta_inv_nilpotent(rng):
        a = random_weyl_element(rng, policy, with_forms=True)
        return delta_inv(delta_inv(a)).is_zero()

    def delta_op_nilpotent(rng):
        a = random_weyl_element(rng, policy, with_forms=True)
        return delta_op(delta_op(a)).is_zero()

    check("mul_associative", mul_associative)
    check("mul_distributive", mul_distributive)
    check("mul_graded_commutative", mul_graded_commutative)
    check("partials_commute", partials_commute)
    check("grade_filter_partition", grade_partition)
    check("parser_roundtrip", parser_roundtrip)
    check("moyal_associative", moyal_associative)
    check("moyal_h0_is_mul", moyal_h0_is_mul)
    check("commutation_sharpened_fiber", commutation_sharpened)
    check("fedosov_filtration", filtration)
    check("hodge_homotopy_decomposition", hodge_homotopy)
    check("delta_inv_nilpotent", delta_inv_nilpotent)
    check("delta_op_nilpotent", delta_op_nilpotent)
    return results


# ----------------------------------------------------------------------
# fedosov suite


def _curved_connection(half_dim):
    """Linear curved test connection Gamma_{111} = x2 (any n)."""
    dim = 2 * half_dim
    return ConnectionInput(half_dim, {(0, 0, 0): MixedElement.base_var(dim, 2)}, name="curved-linear")


def suite_fedosov(seed, trials, conn, pt):
    policy = TruncationPolicy(conn.half_dim, 8, 8, 3)
    results = []
    fd = build_A(conn, pt, policy)
    dim = policy.dim

    check = partial(_check, results, seed, trials, "fedosov", None)

    def rand_poly(rng, deg=3):
        return random_base_poly(rng, dim, deg)

    def dd_zero(rng):
        if conn.is_flat_input():
            return fd.curvature_residual.is_zero()
        return fd.is_abelian()

    def curvature_routes(rng):
        return curvature(conn, pt, policy) == curvature_weyl_route(conn, pt, policy)

    def sigma_q(rng):
        f = rand_poly(rng)
        return symbol(quantize(f, fd)) == f

    def q_sigma(rng):
        f = rand_poly(rng)
        section = quantize(f, fd)
        return quantize(symbol(section), fd) == section

    def flat_section(rng):
        f = rand_poly(rng)
        da = fd.covariant_derivative(quantize(f, fd))
        return da.min_fedosov_degree() >= policy.fedosov_order

    def unit_law(rng):
        f = rand_poly(rng)
        one = MixedElement.one(dim)
        return star(f, one, fd) == f and star(one, f, fd) == f

    def c0_product(rng):
        f = rand_poly(rng)
        g = rand_poly(rng)
        return c_k(f, g, fd, 0) == f.mul(g, policy).hbar_coefficient(0)

    def star_assoc(rng):
        f = rand_poly(rng, 2)
        g = rand_poly(rng, 2)
        h = rand_poly(rng, 2)
        return star(star(f, g, fd), h, fd) == star(f, star(g, h, fd), fd)

    def commutation_relation(rng):
        f = rand_poly(rng)
        g = rand_poly(rng)
        residue = star(f, g, fd) - star(g, f, fd) + poisson_bracket_base(
            f, g, pt, policy
        ).scale(Scalar.i()).hbar_shift(1, policy)
        bound = 3 if conn.is_flat_input() else 2
        return all(k >= bound for k in residue.hbar_orders())

    def flat_oracle(rng):
        f = rand_poly(rng)
        g = rand_poly(rng)
        return star(f, g, fd) == moyal_base(f, g, pt, policy)

    def hbar_linear(rng):
        f = rand_poly(rng)
        g = rand_poly(rng)
        lhs = star(f.hbar_shift(1, policy), g, fd)
        rhs = star(f, g, fd).hbar_shift(1, policy)
        return lhs == rhs

    def ck_order_bound(rng):
        monos = monomials_up_to(dim, 3)
        alpha = monos[rng.randrange(len(monos))]
        beta = monos[rng.randrange(len(monos))]
        f = MixedElement.monomial(dim, Scalar.one(), alpha=alpha)
        g = MixedElement.monomial(dim, Scalar.one(), alpha=beta)
        for k in range(policy.hbar_order + 1):
            value = c_k(f, g, fd, k)
            if value.is_zero():
                continue
            min_deg = min(sum(key[0]) for key in value.terms)
            if min_deg < sum(alpha) + sum(beta) - 2 * k:
                return False
        return True

    check("dd_zero", dd_zero, count=1)
    check("curvature_two_routes", curvature_routes, count=1)
    check("sigma_q_identity", sigma_q)
    check("q_sigma_identity", q_sigma)
    check("flat_sections_are_flat", flat_section)
    check("star_unit_law", unit_law)
    check("c0_is_pointwise_product", c0_product)
    check("star_associative_mod_hbar", star_assoc)
    check("commutation_relation", commutation_relation)
    check("hbar_bilinearity", hbar_linear)
    check("ck_bidifferential_order", ck_order_bound)
    if conn.is_flat_input():
        check("flat_star_equals_base_moyal", flat_oracle)
    return results


# ----------------------------------------------------------------------
# whitney suite

WHITNEY_CONFIGS = {
    "point": {"jet": 6, "hbar": 2, "flat_order": 2, "flat_deg": 4, "other_deg": 2},
    "axis": {"jet": 8, "hbar": 2, "flat_order": 4, "flat_deg": 6, "other_deg": 2},
    "cross": {"jet": 8, "hbar": 1, "flat_order": 2, "flat_deg": 6, "other_deg": 2},
    "two-points": {"jet": 8, "hbar": 1, "flat_order": 2, "flat_deg": 6, "other_deg": 2},
    "plane-in-r4": {"jet": 5, "hbar": 1, "flat_order": 2, "flat_deg": 4, "other_deg": 1},
}


def _whitney_env(name):
    subset = builtin_subset(name)
    cfg = WHITNEY_CONFIGS[name]
    n = subset.dim // 2
    policy = TruncationPolicy(n, cfg["jet"], 2 * cfg["hbar"] + 2, cfg["hbar"])
    pt = PoissonTensor.darboux(n)
    fd = build_A(ConnectionInput.flat(n), pt, policy)
    return subset, cfg, policy, pt, fd


def suite_whitney(seed, trials, subsets):
    results = []

    for name in subsets:
        subset, cfg, policy, pt, fd = _whitney_env(name)
        walg = WhitneyAlgebra(subset, policy)
        dim = subset.dim
        check = partial(_check, results, seed, trials, "whitney", name)

        def exact_sequence(rng):
            ev = walg.evaluator(order=cfg["flat_order"])
            kernel = len(ev.kernel_basis())
            return kernel > 0 and len(ev.domain) == kernel + ev.rank()

        def projection_multiplicative(rng):
            p = random_base_poly(rng, dim, cfg["jet"] // 2)
            q = random_base_poly(rng, dim, cfg["jet"] // 2)
            return walg.project(p.mul(q, policy)) == walg.project(p).mul(walg.project(q))

        def star_unit(rng):
            f = walg.project(random_base_poly(rng, dim, 2))
            one = walg.unit_class()
            return f.star(one, fd) == f and one.star(f, fd) == f

        def star_assoc(rng):
            f = walg.project(random_base_poly(rng, dim, 2))
            g = walg.project(random_base_poly(rng, dim, 2))
            h = walg.project(random_base_poly(rng, dim, 2))
            return f.star(g, fd).star(h, fd) == f.star(g.star(h, fd), fd)

        def representative_independence(rng):
            basis = walg.flat_basis(cfg["flat_order"], cfg["flat_deg"])
            flat = basis[rng.randrange(len(basis))].scale(Scalar(rng.randint(1, 3)))
            p = random_base_poly(rng, dim, cfg["other_deg"])
            q = random_base_poly(rng, dim, cfg["other_deg"])
            s1 = star(p + flat, q, fd)
            s2 = star(p, q, fd)
            for k in range(policy.hbar_order + 1):
                reduced = cfg["flat_order"] - 2 * k
                if reduced < 0:
                    continue
                diff = (s1 - s2).hbar_coefficient(k)
                if not is_flat(diff, subset, reduced):
                    return False
            return True

        def quotient_commutation(rng):
            f = random_base_poly(rng, dim, 2)
            g = random_base_poly(rng, dim, 2)
            residue = star(f, g, fd) - star(g, f, fd) + poisson_bracket_base(
                f, g, pt, policy
            ).scale(Scalar.i()).hbar_shift(1, policy)
            for k in (0, 1):
                if not walg.project(residue.hbar_coefficient(k)).is_zero():
                    return False
            return True

        def poisson_leibniz(rng):
            f = random_base_poly(rng, dim, 2)
            g = random_base_poly(rng, dim, 1)
            h = random_base_poly(rng, dim, 1)
            lhs = poisson_bracket_base(f, g.mul(h, policy), pt, policy)
            rhs = poisson_bracket_base(f, g, pt, policy).mul(h, policy) + g.mul(
                poisson_bracket_base(f, h, pt, policy), policy
            )
            return walg.project(lhs) == walg.project(rhs)

        def poisson_jacobi(rng):
            f = random_base_poly(rng, dim, 2)
            g = random_base_poly(rng, dim, 2)
            h = random_base_poly(rng, dim, 1)

            def pb(x, y):
                return poisson_bracket_base(x, y, pt, policy)

            total = pb(pb(f, g), h) + pb(pb(h, f), g) + pb(pb(g, h), f)
            return walg.project(total).is_zero()

        def ideal_stability(rng):
            report = verify_ideal_stability(
                fd, walg, rng, max(trials, 5), cfg["flat_order"],
                cfg["flat_deg"], cfg["other_deg"],
            )
            return report["passed"]

        check("exact_sequence_rank_nullity", exact_sequence, count=1)
        check("projection_multiplicative", projection_multiplicative)
        check("induced_star_unit", star_unit)
        check("induced_star_associative", star_assoc)
        check("representative_independence", representative_independence)
        check("quotient_commutation", quotient_commutation)
        check("whitney_poisson_leibniz", poisson_leibniz)
        check("whitney_poisson_jacobi", poisson_jacobi)
        check("ideal_stability", ideal_stability, count=1)

    # monotonicity and the degenerate full-space case are subset-independent
    rng = _rng(seed, "whitney:monotonicity")
    axis_ev = WhitneyAlgebra(builtin_subset("axis"), TruncationPolicy(1, 6, 4, 1)).evaluator(order=2)
    cross_ev = WhitneyAlgebra(builtin_subset("cross"), TruncationPolicy(1, 6, 4, 1)).evaluator(order=2)
    mono_ok = (
        cross_ev.rank() >= axis_ev.rank()
        and len(cross_ev.kernel_basis()) <= len(axis_ev.kernel_basis())
    )
    results.append(CheckResult("whitney", "monotonicity_refinement", 1, mono_ok))

    policy_full = TruncationPolicy(1, 4, 4, 1)
    full = SubsetModel(2, [Germ((0, 0), (0, 1))], name="full")
    walg_full = WhitneyAlgebra(full, policy_full)
    pt1 = PoissonTensor.darboux(1)
    fd1 = build_A(ConnectionInput.flat(1), pt1, policy_full)
    rng = _rng(seed, "whitney:degenerate")
    ok = True
    for _ in range(trials):
        p = random_base_poly(rng, 2, 2)
        q = random_base_poly(rng, 2, 2)
        ambient = star(p, q, fd1)
        induced = walg_full.project(p).star(walg_full.project(q), fd1)
        ok = ok and induced.rep == ambient.truncate(policy_full)
    results.append(CheckResult("whitney", "degenerate_full_space", trials, ok))
    return results


# ----------------------------------------------------------------------
# derham suite

DERHAM_EXPECTED = {
    "point": [1, 0, 0],
    "axis": [1, 0, 0],
    "cross": [1, 0, 0],
    "two-points": [2, 0, 0],
    "plane-in-r4": [1, 0, 0, 0, 0],
}


def suite_derham(seed, trials, subsets):
    results = []

    for name in subsets:
        subset = builtin_subset(name)
        n = subset.dim // 2
        policy = TruncationPolicy(n, 4, 2, 1)
        pt = PoissonTensor.darboux(n)
        walg = WhitneyAlgebra(subset, policy)
        dim = subset.dim
        check = partial(_check, results, seed, trials, "derham", name)

        def d_squared(rng):
            q = rng.randint(0, dim - 2)
            form = derham.random_form(rng, walg, q, policy.jet_order - q)
            return derham.d(derham.d(form)).is_zero()

        def star_involution(rng):
            for q in range(dim + 1):
                cap = policy.jet_order - max(q, dim - q)
                from itertools import combinations

                for forms in combinations(range(dim), q):
                    for alpha in monomials_up_to(dim, cap):
                        poly = MixedElement.monomial(dim, Scalar.one(), alpha=alpha)
                        form = derham.WhitneyForm(
                            walg, q, cap, [{forms: poly} for _ in range(walg.n_components)]
                        )
                        if derham.hodge_star(derham.hodge_star(form, pt), pt) != form:
                            return False
            return True

        def delta_routes(rng):
            q = rng.randint(1, dim)
            cap = policy.jet_order - (dim - q)
            form = derham.random_form(rng, walg, q, cap)
            return derham.brylinski_delta(form, pt) == derham.delta_via_star(form, pt)

        def delta_squared(rng):
            q = rng.randint(2, dim)
            cap = policy.jet_order - (dim - q)
            form = derham.random_form(rng, walg, q, cap)
            return derham.brylinski_delta(derham.brylinski_delta(form, pt), pt).is_zero()

        def betti(rng):
            return derham.cohomology_dims(subset, policy) == DERHAM_EXPECTED[name]

        def betti_stable(rng):
            bumped = TruncationPolicy(n, policy.jet_order + 1, 2, 1)
            return derham.cohomology_dims(subset, bumped) == DERHAM_EXPECTED[name]

        def duality(rng):
            return all(
                left == right for _, left, right in derham.duality_table(subset, pt, policy)
            )

        check("d_squared_zero", d_squared)
        check("star_involution", star_involution, count=1)
        check("delta_two_routes", delta_routes)
        check("delta_squared_zero", delta_squared)
        check("betti_numbers", betti, count=1)
        check("betti_stability", betti_stable, count=1)
        check("poisson_duality_table", duality, count=1)

    return results


# ----------------------------------------------------------------------
# homology suite


def _homology_env(name):
    subset = builtin_subset(name)
    n = subset.dim // 2
    policy = TruncationPolicy(n, 8, 4, 1)
    pt = PoissonTensor.darboux(n)
    walg = WhitneyAlgebra(subset, policy)
    fd = build_A(ConnectionInput.flat(n), pt, policy)
    commutative = homology.FiniteAlgebra(walg, hbar_max=1, x_cap=2)
    deformed = homology.FiniteAlgebra(walg, hbar_max=1, fd=fd, total_cap=3)
    return walg, pt, fd, commutative, deformed


def random_chain(rng, algebra, q, max_terms=3):
    non_unit = [i for i in range(algebra.dim) if i != algebra.unit]
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        key = (rng.randrange(algebra.dim),) + tuple(
            non_unit[rng.randrange(len(non_unit))] for _ in range(q)
        )
        terms[key] = _scalar_pool(rng)
    return homology.ChainVector(q, terms, normalized=True)


def suite_homology(seed, trials, subsets):
    results = []

    for name in subsets:
        walg, pt, fd, comm, defo = _homology_env(name)
        check = partial(_check, results, seed, trials, "homology", name)

        def b_squared(rng):
            algebra = comm if rng.random() < 0.5 else defo
            q = rng.randint(2, 3)
            chain = random_chain(rng, algebra, q)
            return homology.hochschild_b(homology.hochschild_b(chain, algebra), algebra).is_zero()

        def big_b_squared(rng):
            algebra = comm if rng.random() < 0.5 else defo
            q = rng.randint(0, 2)
            chain = random_chain(rng, algebra, q)
            return homology.connes_B(homology.connes_B(chain, algebra), algebra).is_zero()

        def bB_plus_Bb(rng):
            algebra = comm if rng.random() < 0.5 else defo
            q = rng.randint(1, 2)
            chain = random_chain(rng, algebra, q)
            left = homology.hochschild_b(homology.connes_B(chain, algebra), algebra)
            right = homology.connes_B(homology.hochschild_b(chain, algebra), algebra)
            return (left + right).is_zero()

        def mu_b_zero(rng):
            q = rng.randint(1, 3)
            chain = random_chain(rng, comm, q)
            return homology.mu(homology.hochschild_b(chain, comm), comm).is_zero()

        def mu_B_equals_d_mu(rng):
            algebra = comm if rng.random() < 0.5 else defo
            dim = algebra.walg.subset.dim
            q = rng.randint(0, min(dim - 1, algebra.x_cap - 1))
            chain = random_chain(rng, algebra, q)
            left = homology.mu(homology.connes_B(chain, algebra), algebra)
            right = derham.d(homology.mu(chain, algebra))
            return left == right

        def mu_eps_identity(rng):
            q = rng.randint(1, min(2, walg.subset.dim))
            cap = comm.x_cap - q
            form = derham.random_form(rng, walg, q, cap)
            return homology.mu(homology.antisymmetrize(form, comm), comm) == form

        def e1_kappa1(rng):
            dim = walg.subset.dim
            p = random_base_poly(rng, dim, defo.x_cap - 1)
            j = rng.randrange(dim)
            form = derham.WhitneyForm(
                walg, 1, defo.x_cap - 1, [{(j,): p}]
            )
            _, report = homology.e1_probe(form, defo)
            if report["delta_zero"]:
                return report["matched"]
            return report["kappa"] == str(Scalar(0, -1))

        def e1_kappa2_stable(rng):
            dim = walg.subset.dim
            p = random_base_poly(rng, dim, defo.x_cap - 2)
            form = derham.WhitneyForm(walg, 2, defo.x_cap - 2, [{(0, 1): p}])
            _, report = homology.e1_probe(form, defo)
            if report["delta_zero"]:
                return report["matched"]
            return report["kappa"] == str(Scalar(0, -1))

        def duality_witness(rng):
            policy = walg.policy
            subset = walg.subset
            table = derham.duality_table(subset, pt, TruncationPolicy(
                policy.half_dim, 4, 2, 1))
            return all(left == right for _, left, right in table)

        check("b_squared_zero", b_squared)
        check("connes_B_squared_zero", big_b_squared)
        check("bB_plus_Bb_zero", bB_plus_Bb)
        check("mu_b_zero_undeformed", mu_b_zero)
        check("mu_B_equals_d_mu", mu_B_equals_d_mu)
        check("mu_eps_identity", mu_eps_identity)
        check("e1_kappa1_is_minus_i", e1_kappa1)
        check("e1_kappa2_stable", e1_kappa2_stable)
        check("duality_witness", duality_witness, count=1)

    rng = _rng(seed, "homology:dims")
    walg_pt, pt1, fd1, comm1, defo1 = _homology_env("point")
    scalars_only = homology.FiniteAlgebra(walg_pt, hbar_max=0, x_cap=0)
    report0 = homology.hochschild_dims(scalars_only, 2)
    ok0 = report0["dims"] == [1, 0, 0]
    point_policy = TruncationPolicy(1, 1, 2, 1)
    walg_small = WhitneyAlgebra(builtin_subset("point"), point_policy)
    undeformed_small = homology.FiniteAlgebra(walg_small, hbar_max=0, x_cap=1)
    report1 = homology.hochschild_dims(undeformed_small, 1)
    ok1 = report1["dims"][0] == 3
    fd_small = build_A(ConnectionInput.flat(1), pt1, TruncationPolicy(1, 2, 4, 1))
    walg_small2 = WhitneyAlgebra(builtin_subset("point"), TruncationPolicy(1, 2, 4, 1))
    undeformed_window = homology.FiniteAlgebra(walg_small2, hbar_max=1, total_cap=2)
    deformed_window = homology.FiniteAlgebra(walg_small2, hbar_max=1, fd=fd_small, total_cap=2)
    hh0_un = homology.hochschild_dims(undeformed_window, 0)["dims"][0]
    hh0_def = homology.hochschild_dims(deformed_window, 0)["dims"][0]
    ok2 = hh0_def < hh0_un
    results.append(CheckResult("homology", "hochschild_dims_ground_field", 1, ok0))
    results.append(CheckResult("homology", "hochschild_dims_point_jet1", 1, ok1))
    results.append(CheckResult("homology", "hochschild_dims_deformed_smaller", 1, ok2))
    return results


# ----------------------------------------------------------------------
# registry: name -> (runner, the built-in subsets it models); a runner
# without subsets checks the connection and Poisson tensor instead

SUITES = {
    "weyl": (suite_weyl, None),
    "fedosov": (suite_fedosov, None),
    "whitney": (suite_whitney, tuple(WHITNEY_CONFIGS)),
    "derham": (suite_derham, tuple(DERHAM_EXPECTED)),
    "homology": (suite_homology, ("point", "axis")),
}


def run_suites(suite, *, seed, trials, connection, poisson, subset=None):
    """Run one named suite (or 'all'); returns a list of CheckResults.

    ``subset`` (None: every subset a suite models) must be modelled by each
    selected suite that takes subsets, and some selected suite must take it.
    """
    if suite != "all" and suite not in SUITES:
        raise JetstarError(f"unknown suite {suite!r}")
    names = list(SUITES) if suite == "all" else [suite]
    if subset is not None:
        modelled = [(name, SUITES[name][1]) for name in names if SUITES[name][1]]
        if not modelled:
            raise ValidationError(f"suite {suite} checks no subset")
        for name, models in modelled:
            if subset not in models:
                raise ValidationError(
                    f"suite {name} models only {', '.join(models)}, not {subset!r}"
                )
    results = []
    for name in names:
        runner, models = SUITES[name]
        if models is None:
            results.extend(runner(seed, trials, connection, poisson))
        else:
            results.extend(runner(seed, trials, [subset] if subset else list(models)))
    return results
