from itertools import product

import pytest

from jetstar import linalg
from jetstar.derham import WhitneyForm, brylinski_delta, d as wderham_d, random_form
from jetstar.elements import MixedElement, TruncationPolicy, add_term
from jetstar.errors import GuardrailError, ValidationError
from jetstar.fedosov import ConnectionInput, build_A, star
from jetstar.homology import (
    ChainVector,
    FiniteAlgebra,
    antisymmetrize,
    connes_B,
    e1_probe,
    form_proportionality,
    hochschild_b,
    hochschild_dims,
    mu,
)
from jetstar.parsing import parse_element
from jetstar.scalars import Scalar
from jetstar.verify import random_chain
from jetstar.weyl import PoissonTensor
from jetstar.whitney import WhitneyAlgebra, builtin_subset


@pytest.fixture
def env():
    policy = TruncationPolicy(1, 8, 4, 1)
    pt = PoissonTensor.darboux(1)
    walg = WhitneyAlgebra(builtin_subset("point"), policy)
    fd = build_A(ConnectionInput.flat(1), pt, policy)
    comm = FiniteAlgebra(walg, hbar_max=1, x_cap=3)
    defo = FiniteAlgebra(walg, hbar_max=1, fd=fd, total_cap=3)
    return walg, pt, fd, comm, defo


def E(text):
    return parse_element(text, TruncationPolicy(1, 8, 4, 1))


class TestFiniteAlgebra:
    def test_single_component_required(self):
        policy = TruncationPolicy(1, 4, 2, 1)
        walg = WhitneyAlgebra(builtin_subset("two-points"), policy)
        with pytest.raises(ValidationError):
            FiniteAlgebra(walg, hbar_max=0, x_cap=1)

    def test_commutative_dimension(self, env):
        walg, *_ = env
        algebra = FiniteAlgebra(walg, hbar_max=0, x_cap=1)
        assert algebra.dim == 3  # 1, x1, x2

    def test_unit_entry(self, env):
        _, _, _, comm, defo = env
        for algebra in (comm, defo):
            for idx in range(algebra.dim):
                assert algebra.product(algebra.unit, idx) == {idx: Scalar.one()}
                assert algebra.product(idx, algebra.unit) == {idx: Scalar.one()}

    def test_deformed_table_matches_star(self, env):
        from jetstar.scalars import rational

        walg, pt, fd, _, defo = env
        ix1 = defo.element_index((1, 0))
        ix2 = defo.element_index((0, 1))
        table = defo.product(ix1, ix2)
        assert table[defo.element_index((1, 1))] == Scalar.one()
        # the h entry is exactly c_1(x1, x2) = -i/2
        assert table[defo.index[((0, 0), 1)]] == Scalar(0, rational(-1, 2))

    def test_deformed_total_cap_exceeds_policy_rejected(self, env):
        walg, _, fd, _, _ = env
        with pytest.raises(ValidationError):
            FiniteAlgebra(walg, hbar_max=1, fd=fd, total_cap=walg.policy.jet_order + 1)


class TestChainOperators:
    def test_b_commutative_pair(self, env):
        _, _, _, comm, _ = env
        ix1 = comm.element_index((1, 0))
        ix2 = comm.element_index((0, 1))
        chain = ChainVector.elementary((ix1, ix2))
        assert hochschild_b(chain, comm).is_zero()

    def test_b_deformed_pair_is_star_commutator(self, env):
        _, _, fd, _, defo = env
        ix1 = defo.element_index((1, 0))
        ix2 = defo.element_index((0, 1))
        chain = ChainVector.elementary((ix1, ix2))
        boundary = hochschild_b(chain, defo)
        commutator = star(E("x1"), E("x2"), fd) - star(E("x2"), E("x1"), fd)
        h_index = defo.index[((0, 0), 1)]
        assert boundary.terms == {(h_index,): commutator.terms[((0, 0), (0, 0), 1, ())]}

    def test_b_squared_zero(self, env, rng):
        _, _, _, comm, defo = env
        for algebra in (comm, defo):
            for q in (2, 3):
                for _ in range(15):
                    chain = random_chain(rng, algebra, q)
                    assert hochschild_b(hochschild_b(chain, algebra), algebra).is_zero()

    def test_b_degree_precondition(self, env):
        _, _, _, comm, _ = env
        with pytest.raises(ValidationError):
            hochschild_b(ChainVector.elementary((0,)), comm)

    def test_connes_B_on_zero_chain(self, env):
        _, _, _, comm, _ = env
        ix1 = comm.element_index((1, 0))
        got = connes_B(ChainVector.elementary((ix1,)), comm)
        assert got.terms == {(comm.unit, ix1): Scalar.one()}

    def test_connes_B_squared_zero(self, env, rng):
        _, _, _, comm, defo = env
        for algebra in (comm, defo):
            for q in (0, 1, 2):
                for _ in range(15):
                    chain = random_chain(rng, algebra, q)
                    assert connes_B(connes_B(chain, algebra), algebra).is_zero()

    def test_bB_plus_Bb_zero(self, env, rng):
        _, _, _, comm, defo = env
        for algebra in (comm, defo):
            for q in (1, 2):
                for _ in range(15):
                    chain = random_chain(rng, algebra, q)
                    total = hochschild_b(connes_B(chain, algebra), algebra) + connes_B(
                        hochschild_b(chain, algebra), algebra
                    )
                    assert total.is_zero()

    def test_connes_B_requires_normalized(self, env):
        _, _, _, comm, _ = env
        chain = ChainVector(0, {(0,): Scalar.one()}, normalized=False)
        with pytest.raises(ValidationError):
            connes_B(chain, comm)


class TestMuAndAntisymmetrize:
    def test_mu_zero_chain(self, env):
        walg, _, _, comm, _ = env
        ix = comm.element_index((2, 0))
        got = mu(ChainVector.elementary((ix,)), comm)
        assert got.component(0, ()) == E("x1^2")

    def test_mu_kills_hbar_slots(self, env):
        _, _, _, comm, _ = env
        ix = comm.index[((1, 0), 1)]
        assert mu(ChainVector.elementary((ix,)), comm).is_zero()

    def test_mu_B_is_d_mu_on_zero_chains(self, env):
        walg, _, _, comm, _ = env
        ix = comm.element_index((2, 1))
        chain = ChainVector.elementary((ix,))
        assert mu(connes_B(chain, comm), comm) == wderham_d(mu(chain, comm))

    def test_mu_b_zero_undeformed(self, env, rng):
        _, _, _, comm, _ = env
        for q in (1, 2, 3):
            for _ in range(15):
                chain = random_chain(rng, comm, q)
                assert mu(hochschild_b(chain, comm), comm).is_zero()

    def test_mu_b_zero_triple_example(self, env):
        _, _, _, comm, _ = env
        f = comm.element_index((1, 0))
        g = comm.element_index((0, 1))
        h = comm.element_index((1, 1))
        chain = ChainVector.elementary((f, g, h))
        assert mu(hochschild_b(chain, comm), comm).is_zero()

    def test_antisymmetrize_examples(self, env):
        walg, _, _, comm, _ = env
        p = E("x1")
        omega = WhitneyForm(walg, 1, 2, [{(1,): p}])
        chain = antisymmetrize(omega, comm)
        ix1 = comm.element_index((1, 0))
        ix2 = comm.element_index((0, 1))
        assert chain.terms == {(ix1, ix2): Scalar.one()}
        omega2 = WhitneyForm(walg, 2, 1, [{(0, 1): p}])
        chain2 = antisymmetrize(omega2, comm)
        assert chain2.terms == {
            (ix1, ix1, ix2): Scalar.one(),
            (ix1, ix2, ix1): Scalar(-1),
        }

    def test_mu_eps_identity(self, env, rng):
        walg, _, _, comm, _ = env
        for q in (1, 2):
            for _ in range(15):
                form = random_form(rng, walg, q, comm.x_cap - q)
                assert mu(antisymmetrize(form, comm), comm) == form


class TestE1Probe:
    def test_kappa1_value(self, env):
        walg, _, _, _, defo = env
        omega = WhitneyForm(walg, 1, 2, [{(1,): E("x1")}])
        image, report = e1_probe(omega, defo)
        assert report["kappa"] == "-i"
        assert report["matched"]
        delta = brylinski_delta(omega, defo.fd.pt)
        assert image == delta.scale(Scalar(0, -1))

    def test_closed_form_probes_to_zero(self, env):
        walg, _, _, _, defo = env
        omega = WhitneyForm(walg, 1, 2, [{(0,): MixedElement.one(2)}])
        image, report = e1_probe(omega, defo)
        assert report["delta_zero"] and report["matched"]
        assert image.is_zero()

    def test_kappa2_stable(self, env, rng):
        walg, _, _, _, defo = env
        seen = set()
        hits = 0
        for _ in range(25):
            from jetstar.whitney import random_base_poly

            p = random_base_poly(rng, 2, defo.x_cap - 2)
            omega = WhitneyForm(walg, 2, defo.x_cap - 2, [{(0, 1): p}])
            _, report = e1_probe(omega, defo)
            assert report["matched"]
            if not report["delta_zero"]:
                seen.add(report["kappa"])
                hits += 1
        assert hits >= 10 and len(seen) == 1

    def test_needs_deformed_algebra(self, env):
        walg, _, _, comm, _ = env
        omega = WhitneyForm(walg, 1, 2, [{(1,): E("x1")}])
        with pytest.raises(ValidationError):
            e1_probe(omega, comm)


class TestFormProportionality:
    def test_constant_found(self, env, rng):
        walg, *_ = env
        form = random_form(rng, walg, 1, 2)
        assert form_proportionality(form.scale(Scalar(0, 3)), form) == Scalar(0, 3)

    def test_zero_cases(self, env, rng):
        walg, *_ = env
        zero = WhitneyForm(walg, 1, 2)
        assert form_proportionality(zero, zero) is None
        form = random_form(rng, walg, 1, 2)
        with pytest.raises(ValidationError):
            form_proportionality(form, zero)


class TestHochschildDims:
    def test_ground_field(self, env):
        walg, *_ = env
        scalars = FiniteAlgebra(walg, hbar_max=0, x_cap=0)
        assert hochschild_dims(scalars, 2)["dims"] == [1, 0, 0]

    def test_point_jet1(self):
        policy = TruncationPolicy(1, 1, 2, 1)
        walg = WhitneyAlgebra(builtin_subset("point"), policy)
        algebra = FiniteAlgebra(walg, hbar_max=0, x_cap=1)
        report = hochschild_dims(algebra, 1)
        assert report["dims"][0] == 3
        assert "caveat" in report

    def test_deformed_hh0_strictly_smaller(self):
        policy = TruncationPolicy(1, 2, 4, 1)
        pt = PoissonTensor.darboux(1)
        walg = WhitneyAlgebra(builtin_subset("point"), policy)
        fd = build_A(ConnectionInput.flat(1), pt, policy)
        undeformed = FiniteAlgebra(walg, hbar_max=1, total_cap=2)
        deformed = FiniteAlgebra(walg, hbar_max=1, fd=fd, total_cap=2)
        assert undeformed.dim == deformed.dim
        hh0_un = hochschild_dims(undeformed, 0)["dims"][0]
        hh0_def = hochschild_dims(deformed, 0)["dims"][0]
        assert hh0_def < hh0_un

    def test_guardrails(self, env):
        walg, _, _, comm, _ = env
        with pytest.raises(GuardrailError):
            hochschild_dims(comm, 4)
        policy = TruncationPolicy(1, 8, 4, 1)
        big = FiniteAlgebra(walg, hbar_max=0, x_cap=4)
        assert big.dim > 12
        with pytest.raises(GuardrailError):
            hochschild_dims(big, 1)


# ----------------------------------------------------------------------
# hochschild_dims against an independent chain-level route


def hochschild_b_oracle(chain, algebra):
    """b on a normalized chain, face by face through the product table."""
    q = chain.q
    terms = {}

    def accumulate(key, coeff):
        if algebra.unit not in key[1:]:
            add_term(terms, key, coeff)

    for key, coeff in chain.terms.items():
        for i in range(q):
            sign = Scalar(-1 if i % 2 else 1)
            for idx, w in algebra.product(key[i], key[i + 1]).items():
                accumulate(key[:i] + (idx,) + key[i + 2:], coeff * sign * w)
        sign = Scalar(-1 if q % 2 else 1)
        for idx, w in algebra.product(key[q], key[0]).items():
            accumulate((idx,) + key[1:q], coeff * sign * w)
    return ChainVector(q - 1, terms)


def connes_B_oracle(chain, algebra):
    """B: signed unit insertions in front of each cyclic rotation."""
    q = chain.q
    terms = {}
    for key, coeff in chain.terms.items():
        for i in range(q + 1):
            tensor = (algebra.unit,) + key[i:] + key[:i]
            if algebra.unit not in tensor[1:]:
                add_term(terms, tensor, coeff * Scalar(-1 if (q * i) % 2 else 1))
    return ChainVector(q + 1, terms)


def hochschild_dims_oracle(algebra, q_max):
    """(dims, ranks of b out of degrees 1..q_max+1): ChainVector rows of
    :func:`hochschild_b_oracle` and the dense :func:`linalg.rank`."""
    non_unit = [i for i in range(algebra.dim) if i != algebra.unit]
    bases = [
        [(first,) + rest for first in range(algebra.dim) for rest in product(non_unit, repeat=q)]
        for q in range(q_max + 2)
    ]
    ranks = [0]
    for q in range(1, q_max + 2):
        index = {key: i for i, key in enumerate(bases[q - 1])}
        rows = []
        for key in bases[q]:
            row = [Scalar.zero()] * len(index)
            for target, coeff in hochschild_b_oracle(ChainVector.elementary(key), algebra).terms.items():
                row[index[target]] = coeff
            rows.append(row)
        ranks.append(linalg.rank(rows, len(index)))
    dims = [len(bases[q]) - ranks[q] - ranks[q + 1] for q in range(q_max + 1)]
    return dims, ranks[1:]


def small_algebras(name):
    """Commutative and deformed tables on ``name`` with total_cap 2."""
    policy = TruncationPolicy(1, 2, 4, 1)
    walg = WhitneyAlgebra(builtin_subset(name), policy)
    fd = build_A(ConnectionInput.flat(1), PoissonTensor.darboux(1), policy)
    return {
        "commutative": FiniteAlgebra(walg, hbar_max=0, x_cap=2),
        "commutative-h": FiniteAlgebra(walg, hbar_max=1, total_cap=2),
        "deformed": FiniteAlgebra(walg, hbar_max=1, fd=fd, total_cap=2),
    }


class TestHochschildRows:
    @pytest.mark.parametrize("name", ["point", "axis"])
    @pytest.mark.parametrize("kind", ["commutative", "commutative-h", "deformed"])
    def test_dims_and_ranks_match_oracle(self, name, kind):
        algebra = small_algebras(name)[kind]
        # the dense oracle takes 2-11 s at q_max 2, so that degree is
        # checked on the smallest table only
        q_max = 2 if (name, kind) == ("point", "commutative") else 1
        report = hochschild_dims(algebra, q_max)
        dims, ranks = hochschild_dims_oracle(algebra, q_max)
        assert report["dims"] == dims
        assert [row["rank_b"] for row in report["table"]] == ranks

    def test_deformed_point_algebra(self):
        algebra = small_algebras("point")["deformed"]
        assert algebra.dim == 7
        report = hochschild_dims(algebra, 2)
        assert report["dims"] == [6, 9, 18]
        assert [row["rank_b"] for row in report["table"]] == [1, 32, 202]

    def test_b_and_B_match_oracles_on_random_chains(self, env, rng):
        *_, comm, defo = env
        for algebra in (comm, defo):
            for q in (1, 2, 3):
                for _ in range(5):
                    chain = random_chain(rng, algebra, q)
                    assert hochschild_b(chain, algebra) == hochschild_b_oracle(chain, algebra)
                    assert connes_B(chain, algebra) == connes_B_oracle(chain, algebra)
            # the unit in a slot >= 1 gives degenerate faces, which both drop
            for key in [(1, algebra.unit, 2), (3, 2, algebra.unit, 1)]:
                chain = ChainVector.elementary(key)
                assert hochschild_b(chain, algebra) == hochschild_b_oracle(chain, algebra)
