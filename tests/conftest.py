import random

import pytest

from jetstar.elements import MixedElement, TruncationPolicy
from jetstar.fedosov import ConnectionInput
from jetstar.scalars import Scalar, rational


@pytest.fixture
def rng():
    return random.Random(20240811)


@pytest.fixture
def policy_n1():
    return TruncationPolicy(1, 6, 6, 3)


@pytest.fixture
def policy_n2():
    return TruncationPolicy(2, 6, 6, 3)


def curved_n1_two_entries():
    """Gamma_111 = x2, Gamma_122 = x1: the connection perfbench's fedosov-star uses."""
    return ConnectionInput(
        1,
        {(0, 0, 0): MixedElement.base_var(2, 2), (0, 1, 1): MixedElement.base_var(2, 1)},
        name="gamma111-x2-gamma122-x1",
    )


def random_scalar(rng):
    pool = [Scalar(v) for v in (-3, -2, -1, 1, 2, 3)]
    pool.append(Scalar(rational(1, 2)))
    pool.append(Scalar(rational(-2, 3)))
    pool.append(Scalar(0, 1))
    pool.append(Scalar(1, -1))
    return pool[rng.randrange(len(pool))]


def random_element(rng, policy, max_terms=5, with_forms=True, with_hbar=True):
    dim = policy.dim
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        alpha = tuple(rng.randint(0, 2) for _ in range(dim))
        beta = tuple(rng.randint(0, 2) for _ in range(dim))
        k = rng.randint(policy.hbar_min, 1) if with_hbar else 0
        if with_forms and rng.random() < 0.5:
            size = rng.randint(1, min(2, dim))
            forms = tuple(sorted(rng.sample(range(dim), size)))
        else:
            forms = ()
        key = (alpha, beta, k, forms)
        if policy.keeps(key):
            terms[key] = random_scalar(rng)
    return MixedElement(dim, terms) if terms else MixedElement.zero(dim)
