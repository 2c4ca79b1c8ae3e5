"""Seeded mutations of sound basis documents: each verdict of verify_sjb
must equal a brute-force oracle built from up_apply and pairwise inner."""

import copy
import random
from collections import defaultdict
from itertools import combinations

import pytest

from qjordan import (
    CycInt,
    LatticeVector,
    construct_sjb,
    enumerate_rank,
    inner,
    singular_value_sq,
    sjb_from_json,
    sjb_to_json,
    up_apply,
    verify_sjb,
)

CHECKS = ("chain-condition", "orthogonality", "singular-values")


def oracle(basis):
    """Pass/fail of each check in CHECKS, one vector or pair at a time."""
    zero = LatticeVector.zero(basis.q, basis.n)
    chain_ok = all(
        up_apply(v) == (chain.vectors[u + 1] if u + 1 < len(chain.vectors) else zero)
        for chain in basis.chains
        for u, v in enumerate(chain.vectors)
    )
    by_rank = defaultdict(list)
    for _, rank, v in basis.iter_vectors():
        by_rank[rank].append(v)
    orth_ok = all(
        inner(a, b).is_zero for vs in by_rank.values() for a, b in combinations(vs, 2)
    )
    q, n = basis.q, basis.n
    norm_ok = all(
        inner(c.vectors[u + 1 - c.start_rank], c.vectors[u + 1 - c.start_rank])
        == singular_value_sq(q, n, c.start_rank, u)
        * inner(c.vectors[u - c.start_rank], c.vectors[u - c.start_rank])
        for c in basis.chains
        for u in range(c.start_rank, min(c.end_rank, n - c.start_rank))
    )
    return {"chain-condition": chain_ok, "orthogonality": orth_ok, "singular-values": norm_ok}


def terms_of(doc):
    return [
        term
        for chain in doc["chains"]
        for vec in chain["vectors"]
        for term in vec["terms"]
    ]


def mutate_coefficient(rng, doc, q, n):
    coeff = rng.choice(terms_of(doc))["coeff"]
    if rng.random() < 0.5:
        coeff["m"] += rng.choice([-2, -1, 1, 2])
    else:
        coeff["j"] = (coeff["j"] + rng.randrange(1, q)) % q


def mutate_column(rng, doc, q, n):
    spans = [t["subspace"]["cols"] for t in terms_of(doc) if t["subspace"]["cols"]]
    col = rng.choice(rng.choice(spans))
    i = rng.randrange(len(col))
    col[i] = (col[i] + rng.randrange(1, q)) % q


def swap_chains(rng, doc, q, n):
    chains = doc["chains"]
    i, j = rng.sample(range(len(chains)), 2)
    chains[i], chains[j] = chains[j], chains[i]


def rebuild_chain(rng, doc, q, n):
    """Replace a chain by U-powers of its start vector, perturbed."""
    entry = rng.choice(doc["chains"])
    k = entry["start_rank"]
    start = LatticeVector.from_json(entry["vectors"][0])
    kind = rng.choice(["root", "double", "basis", "other"])
    if kind == "root":  # another valid basis
        start = start * CycInt.omega(q, rng.randrange(1, q))
    elif kind == "double":
        start = start * 2
    elif kind == "basis":
        start = start + LatticeVector.basis(rng.choice(enumerate_rank(n, k, q)))
    else:
        other = rng.choice(
            [c for c in doc["chains"] if c["start_rank"] <= k < c["start_rank"] + len(c["vectors"])]
        )
        start = start + LatticeVector.from_json(other["vectors"][k - other["start_rank"]])
    vectors = [start]
    for _ in range(len(entry["vectors"]) - 1):
        vectors.append(up_apply(vectors[-1]))
    entry["vectors"] = [v.to_json() for v in vectors]


MUTATIONS = (mutate_coefficient, mutate_column, swap_chains, rebuild_chain)


@pytest.mark.parametrize("q, n", [(2, 3), (3, 2), (5, 2)])
def test_verdicts_agree_with_a_brute_force_oracle(q, n):
    sound = sjb_to_json(construct_sjb(n, q))
    seen = defaultdict(set)
    judged = 0
    for seed in range(60):
        rng = random.Random(seed)
        doc = copy.deepcopy(sound)
        for _ in range(rng.choice([1, 1, 2])):
            rng.choice(MUTATIONS)(rng, doc, q, n)
        try:
            basis = sjb_from_json(doc)
        except ValueError:
            continue  # a column edit made the columns dependent or a duplicate
        judged += 1
        report = {c.name: c.passed for c in verify_sjb(basis).checks}
        expect = oracle(basis)
        for name in CHECKS:
            assert report[name] == expect[name], (seed, name)
            seen[name].add(expect[name])
    assert judged >= 40
    # every check was seen both to pass and to fail
    assert all(seen[name] == {True, False} for name in CHECKS), dict(seen)
