"""Seeded input generator for the jetstar benchmark.

This module never imports jetstar: it only produces operation requests
(plain JSON-able dicts, polynomials rendered as text in jetstar's grammar),
so the program under test receives nothing but generated inputs.

``stream(workload, seed)`` is an endless iterator of requests.  The same
(workload, seed) always yields the same requests.

Two random sources are used.  The ``design`` source has a fixed seed and
picks the shape of every operation, which sets its cost: the monomials of
each polynomial, the jet of each homology table, and each chain's degree,
table family (commutative or deformed) and tensor slots.  The ``data``
source is seeded by ``--seed`` and picks the values: every coefficient,
which n = 1 subset each table is asked for, and whether a chain lives on
the point or the axis table (one-component subsets of the plane give the
same table).  So every seed gets the same mix of cheap and expensive
operations and runs with different seeds stay comparable, while no two
seeds send the same inputs.
"""

from __future__ import annotations

import random
from itertools import count

WORKLOADS = ("fedosov-star", "quotient-star", "homology-tables")

# Curved connection of the fedosov-star workload (load_connection_json format).
FEDOSOV_CONNECTION = {
    "name": "gamma111-x2-gamma122-x1",
    "half_dim": 1,
    "gamma": [
        {"indices": [1, 1, 1], "poly": "x2"},
        {"indices": [1, 2, 2], "poly": "x1"},
    ],
}
FEDOSOV_POLICY = {"jet_order": 6, "fedosov_order": 4, "hbar_order": 1}

QUOTIENT_SUBSETS = ("cross", "two-points", "plane-in-r4")
SUBSET_DIMS = {"point": 2, "axis": 2, "cross": 2, "two-points": 2, "plane-in-r4": 4}

N1_SUBSETS = ("point", "axis", "cross", "two-points")
N1_TABLE_JETS = range(6, 13)
PLANE_TABLE_JETS = (4, 5)

# Chain algebras of homology-tables: "comm" is the commutative table with
# x_cap 2 and h window 1; "def" is the star-deformed table with total cap
# |alpha| + 2j <= 3.  Slots are basis keys (alpha1, alpha2, j).
CHAIN_IDENTITIES = ("b2", "B2", "bB", "muB", "e1")
CHAIN_Q_RANGE = {"b2": (2, 3), "B2": (0, 2), "bB": (1, 2), "muB": (0, 1)}
CHAINS_PER_ROUND = 4
HOCHSCHILD_EVERY = 8  # rounds
SCALARS = (("-2", "0"), ("-1", "0"), ("1", "0"), ("2", "0"), ("3", "0"),
           ("1/2", "0"), ("0", "1"))

QUOTIENT_STABILITY_EVERY = 5  # one stability check per 4 products, per subset


def monomials(nvars, degree):
    """Exponent tuples of exactly ``degree`` in ``nvars`` variables, sorted."""
    if nvars == 1:
        return [(degree,)]
    out = []
    for first in range(degree + 1):
        out.extend((first,) + rest for rest in monomials(nvars - 1, degree - first))
    return sorted(out)


def render_poly(terms):
    """Text of {exponent tuple: integer coefficient} in jetstar's grammar."""
    parts = []
    for alpha, coeff in sorted(terms.items()):
        factors = [
            f"x{pos + 1}" + (f"^{e}" if e != 1 else "")
            for pos, e in enumerate(alpha)
            if e
        ]
        text = f"({coeff})" if coeff < 0 else str(coeff)
        parts.append("*".join([text] + factors))
    return " + ".join(parts)


def _support(rng, nvars, max_degree, max_terms):
    """Distinct monomials of degree <= max_degree, between 1 and max_terms."""
    pool = [alpha for d in range(max_degree + 1) for alpha in monomials(nvars, d)]
    return rng.sample(pool, rng.randint(1, max_terms))


def _poly(data, support):
    return render_poly({alpha: data.choice((-3, -2, -1, 1, 2, 3)) for alpha in support})




def _rngs(workload, seed):
    return (
        random.Random(f"jetstar-bench:{workload}:design"),
        random.Random(f"jetstar-bench:{workload}:seed:{seed}"),
    )


def _fedosov_stream(seed):
    design, data = _rngs("fedosov-star", seed)
    while True:
        f = _poly(data, _support(design, 2, 3, 4))
        g = _poly(data, _support(design, 2, 3, 4))
        yield {"kind": "star", "f": f, "g": g}


def _quotient_stream(seed):
    design, data = _rngs("quotient-star", seed)
    for rnd in count():
        for subset in QUOTIENT_SUBSETS:
            if rnd % QUOTIENT_STABILITY_EVERY == QUOTIENT_STABILITY_EVERY - 1:
                yield {"kind": "stability", "subset": subset,
                       "rng_seed": data.randrange(1 << 31)}
            else:
                nvars = SUBSET_DIMS[subset]
                yield {"kind": "product", "subset": subset,
                       "f": _poly(data, _support(design, nvars, 3, 4)),
                       "g": _poly(data, _support(design, nvars, 3, 4))}


def _chain_basis(family):
    """Basis keys of the chain algebra family, the unit first."""
    keys = []
    for j in (0, 1):
        for deg in range(4):
            for alpha in monomials(2, deg):
                if family == "comm" and deg <= 2:
                    keys.append(alpha + (j,))
                elif family == "def" and deg + 2 * j <= 3:
                    keys.append(alpha + (j,))
    return keys


def _chain_request(design, data, identity):
    if identity == "e1":
        return {"kind": "chain", "identity": "e1",
                "algebra": data.choice(("point", "axis")) + "-def",
                "direction": design.randrange(2),
                "poly": _poly(data, _support(design, 2, 2, 4))}
    family = design.choice(("comm", "def"))
    basis = _chain_basis(family)
    non_unit = basis[1:]
    q = design.randint(*CHAIN_Q_RANGE[identity])
    terms = {}
    for _ in range(design.randint(1, 3)):
        key = (design.choice(basis),) + tuple(design.choice(non_unit) for _ in range(q))
        terms[key] = data.choice(SCALARS)
    return {"kind": "chain", "identity": identity,
            "algebra": data.choice(("point", "axis")) + "-" + family,
            "q": q,
            "terms": [[[list(slot) for slot in key], list(coeff)]
                      for key, coeff in sorted(terms.items())]}


def _table_block(design, data):
    """All 30 table requests once, in a design-fixed jet order; the seed
    assigns the n = 1 subsets to the slots of each jet."""
    slots = [("n1", jet) for jet in N1_TABLE_JETS for _ in N1_SUBSETS]
    slots += [("plane-in-r4", jet) for jet in PLANE_TABLE_JETS]
    design.shuffle(slots)
    pending = {jet: data.sample(N1_SUBSETS, len(N1_SUBSETS)) for jet in N1_TABLE_JETS}
    for kind, jet in slots:
        subset = pending[jet].pop() if kind == "n1" else kind
        yield {"kind": "table", "subset": subset, "jet": jet}


def _homology_stream(seed):
    design, data = _rngs("homology-tables", seed)
    chains = count()
    rounds = count(1)
    while True:
        for table in _table_block(design, data):
            yield table
            for _ in range(CHAINS_PER_ROUND):
                identity = CHAIN_IDENTITIES[next(chains) % len(CHAIN_IDENTITIES)]
                yield _chain_request(design, data, identity)
            if next(rounds) % HOCHSCHILD_EVERY == 0:
                yield {"kind": "hochschild"}


_STREAMS = {
    "fedosov-star": _fedosov_stream,
    "quotient-star": _quotient_stream,
    "homology-tables": _homology_stream,
}


def stream(workload, seed):
    """Endless, deterministic request stream of ``workload`` for ``seed``."""
    return _STREAMS[workload](seed)
