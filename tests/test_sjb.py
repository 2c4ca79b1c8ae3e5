"""Construction and verification of the symmetric Jordan bases."""

import copy
import gc
import hashlib
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qjordan import (
    SJB,
    JordanChain,
    LatticeVector,
    Subspace,
    construct_sjb,
    enumerate_rank,
    galois_number,
    inner,
    q_binomial,
    q_int,
    singular_value_sq,
    sjb_from_json,
    sjb_to_json,
    theta,
    up_apply,
    verify_sjb,
)
from qjordan import haction, sjb
from qjordan.cli import main

from cycrank import cyc_matrix_rank
from modp import modp_rank

MODULUS = 2_013_265_921  # prime; 2, 3 and 5 all divide MODULUS - 1


def root_of_unity(p):
    zeta = pow(31, (MODULUS - 1) // p, MODULUS)
    assert pow(zeta, p, MODULUS) == 1 and zeta != 1
    return zeta


def reduce_mod(coeff, modulus, zeta):
    """Image of a Z[w] element under Z[w] -> Z/modulus sending w to zeta
    (of order p)."""
    return sum(a * pow(zeta, j, modulus) for j, a in enumerate(coeff.coeffs)) % modulus


def rank_slice(basis, m):
    """The basis vectors of rank m, in chain order."""
    return [c.vector_at_rank(m) for c in basis.chains if c.start_rank <= m <= c.end_rank]


def slice_spans_mod(basis, m):
    """Spanning certificate: full rank after specializing w to a root of
    unity in a prime field (specialization can only drop rank, so full
    modular rank proves full rank over the cyclotomic field)."""
    verts = enumerate_rank(basis.n, m, basis.q)
    index = {s: i for i, s in enumerate(verts)}
    vectors = rank_slice(basis, m)
    if len(vectors) != len(verts):
        return False
    zeta = root_of_unity(basis.q)
    mat = np.zeros((len(vectors), len(verts)), dtype=np.int64)
    for r, vec in enumerate(vectors):
        for sub, coeff in vec.items():
            mat[r, index[sub]] = reduce_mod(coeff, MODULUS, zeta)
    return modp_rank(mat, MODULUS) == len(verts)


def slice_spans_exact(basis, m):
    """Spanning by exact rank over the cyclotomic field (Bareiss)."""
    verts = enumerate_rank(basis.n, m, basis.q)
    vectors = rank_slice(basis, m)
    if len(vectors) != len(verts):
        return False
    rows = [[vec.coeff(s) for s in verts] for vec in vectors]
    return cyc_matrix_rank(rows) == len(verts)


def test_base_cases():
    j0 = construct_sjb(0, 2)
    assert len(j0.chains) == 1 and j0.chains[0].start_rank == 0
    assert j0.vector_count == 1

    j1 = construct_sjb(1, 3)
    (chain,) = j1.chains
    assert chain.start_rank == 0
    assert chain.vectors[0] == LatticeVector.basis(Subspace.zero(3, 1))
    assert chain.vectors[1] == LatticeVector.basis(Subspace.full(3, 1))


def test_frozen_level_two_basis():
    basis = construct_sjb(2, 2)
    e1 = Subspace.span(2, 2, [(1, 0)])
    e2 = Subspace.span(2, 2, [(0, 1)])
    e12 = Subspace.span(2, 2, [(1, 1)])
    zero = Subspace.zero(2, 2)
    full = Subspace.full(2, 2)

    long_chain = basis.chains_starting_at(0)
    assert len(long_chain) == 1
    x0, x1, x2 = long_chain[0].vectors
    assert x0 == LatticeVector.basis(zero)
    assert x1 == LatticeVector(2, 2, {e1: 1, e2: 1, e12: 1})
    assert x2 == LatticeVector(2, 2, {full: 3})

    singles = basis.chains_starting_at(1)
    assert len(singles) == 2
    vectors = [c.vectors[0] for c in singles]
    assert LatticeVector(2, 2, {e1: -2, e2: 1, e12: 1}) in vectors
    assert LatticeVector(2, 2, {e2: 1, e12: -1}) in vectors


def test_chain_count_profile():
    basis = construct_sjb(3, 2)
    assert len(basis.chains_starting_at(0)) == 1
    assert len(basis.chains_starting_at(1)) == 6
    for q, n in [(2, 4), (3, 3), (5, 2)]:
        basis = construct_sjb(n, q)
        for k in range(n // 2 + 1):
            assert len(basis.chains_starting_at(k)) == q_binomial(n, k, q) - q_binomial(
                n, k - 1, q
            )


def test_singular_value_sq():
    assert singular_value_sq(2, 2, 0, 0) == 3
    assert singular_value_sq(2, 2, 0, 1) == 3
    assert singular_value_sq(2, 3, 1, 1) == 2
    assert singular_value_sq(3, 2, 0, 0) == 4
    for bad in [(2, 2, 1, 1), (2, 2, 0, 2), (2, 4, 2, 1), (2, 3, -1, 0)]:
        with pytest.raises(ValueError):
            singular_value_sq(*bad)


def test_verify_passes_small():
    for q, n in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)]:
        report = verify_sjb(construct_sjb(n, q))
        assert report.ok, f"({q},{n}): {report.summary()}"


def test_ratio_table_q3_level2():
    basis = construct_sjb(2, 3)
    report = verify_sjb(basis)
    assert report.ok
    (chain,) = basis.chains_starting_at(0)
    norms = [inner(v, v).to_int() for v in chain.vectors]
    assert norms[1] == 4 * norms[0]
    assert norms[2] == 4 * norms[1]


def test_auxiliary_up_and_bar_identities():
    """The three identities the chain splice is built on, on real data:
    U(xbar_u) = q xbar_(u+1); |xbar_u|^2 = q^(n-u) |x_u|^2;
    U(x_u) = x_(u+1) + xbar_u."""
    for q, n in [(2, 2), (2, 3), (3, 2)]:
        basis = construct_sjb(n, q)
        for chain in basis.chains:
            k = chain.start_rank
            xs = list(chain.vectors)
            bars = [theta(v) for v in xs]
            for u_idx, u in enumerate(range(k, n - k + 1)):
                bar, x = bars[u_idx], xs[u_idx]
                assert inner(bar, bar).to_int() == q ** (n - u) * inner(x, x).to_int()
                up_bar = up_apply(bars[u_idx])
                if u < n - k:
                    assert up_bar == bars[u_idx + 1] * q
                else:
                    assert up_bar.is_zero
                up_x = up_apply(xs[u_idx].embed(n + 1))
                nxt = (
                    xs[u_idx + 1].embed(n + 1)
                    if u < n - k
                    else LatticeVector.zero(q, n + 1)
                )
                assert up_x == nxt + bars[u_idx]


def test_splice_supports_disjoint_and_yz_orthogonal():
    for q, n in [(2, 2), (2, 3), (3, 2)]:
        basis = construct_sjb(n, q)
        for chain in basis.chains:
            k = chain.start_rank
            if 2 * k == n:
                continue
            xs = [v.embed(n + 1) for v in chain.vectors]
            bars = [theta(v) for v in chain.vectors]
            zero = LatticeVector.zero(q, n + 1)
            x_at = lambda l: xs[l - k] if l <= n - k else zero
            bar_at = lambda l: bars[l - k] if l >= k else zero
            for l in range(k, n + 2 - k):
                assert not set(x_at(l).support()) & set(bar_at(l - 1).support())
            for l in range(k + 1, n - k + 1):
                y_l = x_at(l) + q_int(l - k, q) * bar_at(l - 1)
                z_l = -(q**n) * x_at(l) + q ** (l + k - 1) * q_int(
                    n - l - k + 1, q
                ) * bar_at(l - 1)
                assert inner(y_l, z_l).is_zero


def test_rank_slices_span_exact_small():
    for q, n in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]:
        basis = construct_sjb(n, q)
        for m in range(n + 1):
            assert slice_spans_exact(basis, m), f"(q={q}, n={n}, m={m})"


def test_rank_slices_span_certificate_large(basis_for):
    for q, n in [(2, 5), (3, 4)]:
        basis = basis_for(q, n)
        for m in range(n + 1):
            assert slice_spans_mod(basis, m), f"(q={q}, n={n}, m={m})"


def test_vector_count_is_galois_number():
    for q, n in [(2, 4), (3, 3), (5, 2)]:
        assert construct_sjb(n, q).vector_count == galois_number(n, q)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        construct_sjb(2, 4)
    with pytest.raises(ValueError):
        construct_sjb(2, 6)
    with pytest.raises(ValueError):
        construct_sjb(-1, 2)
    # a prime field order far past the cap is refused before any work
    start = time.perf_counter()
    with pytest.raises(ValueError, match="below 128"):
        construct_sjb(1, 2**61 - 1)
    assert time.perf_counter() - start < 1
    with pytest.raises(ValueError):
        verify_sjb(construct_sjb(1, 2), mode="loose")
    with pytest.raises(ValueError):
        verify_sjb(construct_sjb(1, 2), mode="spot")


def test_json_roundtrip_and_determinism():
    basis = construct_sjb(3, 2)
    payload = sjb_to_json(basis)
    text = json.dumps(payload)
    again = json.dumps(sjb_to_json(construct_sjb(3, 2)))
    assert text == again
    loaded = sjb_from_json(json.loads(text))
    assert loaded.q == basis.q and loaded.n == basis.n
    assert len(loaded.chains) == len(basis.chains)
    for a, b in zip(loaded.chains, basis.chains):
        assert a.start_rank == b.start_rank
        assert a.vectors == b.vectors
    assert verify_sjb(loaded).ok


REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


@pytest.mark.parametrize("q, n", [(2, 3), (3, 2), (2, 4), (5, 3)])
def test_basis_bytes_match_the_recorded_digests(q, n):
    """The bytes of ``qjordan construct --out`` at (q, n) hash to the SHA-256
    digest recorded in the benchmark's reference file (keyed "q,n")."""
    expect = json.loads(REFERENCE.read_text(encoding="utf-8"))["digests"][f"{q},{n}"]
    text = json.dumps(sjb_to_json(construct_sjb(n, q)), separators=(",", ":")) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == expect


# counts the canonicalizations one parse makes, in a fresh interpreter: the
# document's table of parsed columns sends each distinct subspace through
# Subspace.from_json once
COUNT_CANONICALIZATIONS = """
import json, sys
import qjordan.gflinalg as gflinalg
from qjordan import sjb_from_json

calls = 0
batch = gflinalg.subspaces_from_matrix_batch

def counted(q, mats):
    global calls
    calls += 1
    return batch(q, mats)

gflinalg.subspaces_from_matrix_batch = counted
with open(sys.argv[1], encoding="utf-8") as fh:
    basis = sjb_from_json(json.load(fh))
print(calls, sum(len(vec) for _, _, vec in basis.iter_vectors()))
"""


def test_parsing_canonicalizes_each_distinct_subspace_once(tmp_path, basis_for):
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(sjb_to_json(basis_for(3, 4))), encoding="utf-8")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", COUNT_CANONICALIZATIONS, str(path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    calls, terms = map(int, out.stdout.split())
    # 6,618 stored terms name only the 212 subspaces of F_3^4
    assert terms == 6618
    assert 0 < calls <= galois_number(4, 3) == 212


def test_noncanonical_columns_parse_to_the_same_basis():
    basis = construct_sjb(3, 3)
    payload = sjb_to_json(basis)
    for chain in payload["chains"]:
        for vector in chain["vectors"]:
            for term in vector["terms"]:
                cols = term["subspace"]["cols"]
                # twice each column, then the columns reversed: the same span
                cols[:] = [[2 * x % 3 for x in col] for col in reversed(cols)]
    loaded = sjb_from_json(payload)
    assert [c.vectors for c in loaded.chains] == [c.vectors for c in basis.chains]
    # a bool entry is never read as the int it equals, canonical or not
    line = payload["chains"][0]["vectors"][1]["terms"][0]["subspace"]
    line["cols"] = [[True, 0, 0]]
    with pytest.raises(ValueError) as exc:
        sjb_from_json(payload)
    assert str(exc.value) == "column 0 must hold integers, got [True, 0, 0]"


def term_paths(payload):
    """(chain, vector, term) of every serialized term, in document order."""
    for ci, chain in enumerate(payload["chains"]):
        for vi, vector in enumerate(chain["vectors"]):
            for ti in range(len(vector["terms"])):
                yield ci, vi, ti


def term_at(payload, path):
    ci, vi, ti = path
    return payload["chains"][ci]["vectors"][vi]["terms"][ti]


def containers(node):
    """Every dict and list of a payload tree, the root included."""
    yield node
    for child in node.values() if isinstance(node, dict) else node:
        if isinstance(child, (dict, list)):
            yield from containers(child)


def test_payloads_stay_fresh_under_the_writer_table():
    basis = construct_sjb(3, 3)
    payload = sjb_to_json(basis)
    # the terms of the subspace written most often
    by_subspace = {}
    for path in term_paths(payload):
        key = json.dumps(term_at(payload, path)["subspace"])
        by_subspace.setdefault(key, []).append(path)
    paths = max(by_subspace.values(), key=len)
    assert len(paths) > 2
    cols = term_at(payload, paths[0])["subspace"]["cols"]
    cols[0][0] = 7
    cols.append([0, 0, 1])
    # only that term changed: no other term shares its lists
    expect = sjb_to_json(basis)
    term_at(expect, paths[0])["subspace"]["cols"] = [list(col) for col in cols]
    assert payload == expect
    # no container is shared within a payload or between two of them
    again = sjb_to_json(basis)
    ids = [id(node) for node in containers(payload)]
    ids_again = [id(node) for node in containers(again)]
    assert len(set(ids)) == len(ids) and len(set(ids_again)) == len(ids_again)
    assert not set(ids) & set(ids_again)
    for chain, entry in zip(basis.chains, again["chains"]):
        assert entry["vectors"] == [v.to_json() for v in chain.vectors]


def first_repeat(payload, field, accept):
    """The paths of the first two terms, in document order, whose ``field``
    is the same accepted value."""
    seen = {}
    for path in term_paths(payload):
        value = term_at(payload, path)[field]
        if accept(value):
            key = json.dumps(value)
            if key in seen:
                return seen[key], path
            seen[key] = path
    raise AssertionError(f"no repeated {field}")


def _bool_pivot(cols):
    cols[0][cols[0].index(1)] = True


def _float_entry(cols):
    cols[0][-1] = float(cols[0][-1])


def _entry_past_q(cols):
    cols[0][-1] += 3  # the same residue, so the rank stays 2


def _dependent_columns(cols):
    cols[1] = list(cols[0])


def _bool_m(coeff):
    coeff["m"] = True


def _bool_j(coeff):
    coeff["j"] = False


READER_TAMPERS = {
    "bool pivot": ("subspace", "cols", _bool_pivot, "column 0 must hold integers"),
    "float entry": ("subspace", "cols", _float_entry, "column 0 must hold integers"),
    "entry past q": ("subspace", "cols", _entry_past_q, "column entries must lie in 0..2"),
    "dependent columns": (
        "subspace", "cols", _dependent_columns,
        "the 2 columns span a subspace of dimension 1",
    ),
    "bool m": ("coeff", None, _bool_m, "coefficient m must be an integer, got True"),
    "bool j": ("coeff", None, _bool_j, "coefficient j must be an integer, got False"),
}


@pytest.mark.parametrize("tamper_name", sorted(READER_TAMPERS))
def test_reader_table_skips_no_check(tamper_name, tmp_path, capsys):
    """A fault in the second occurrence of a subspace or coefficient already
    parsed is refused exactly as in the first: the per-document table is
    consulted only after every check."""
    field, part, change, message = READER_TAMPERS[tamper_name]
    payload = sjb_to_json(construct_sjb(3, 3))
    if field == "subspace":
        paths = first_repeat(payload, field, lambda sub: sub["k"] == 2)
    else:
        paths = first_repeat(payload, field, lambda coeff: coeff.get("m") == 1)
    path = tmp_path / "basis.json"
    errors, lines = [], []
    for at in paths:
        doc = copy.deepcopy(payload)
        value = term_at(doc, at)[field]
        change(value[part] if part else value)
        with pytest.raises(ValueError) as exc:
            sjb_from_json(doc)
        errors.append(str(exc.value))
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out = main(["verify", str(path)]), capsys.readouterr()
        assert code == 2 and out.out == ""
        lines.append(out.err)
    assert errors[0] == errors[1] and errors[0].startswith(message)
    assert lines[0] == lines[1] and lines[0].count("\n") == 1
    assert lines[0].startswith("error: ") and message in lines[0]


@pytest.mark.parametrize("enabled", [True, False])
def test_the_collector_state_comes_back(enabled, monkeypatch):
    """Writing and parsing pause the cyclic collector and then restore the
    caller's setting, also when a malformed document raises."""
    basis = construct_sjb(2, 3)
    seen = []
    to_json = Subspace.to_json

    def recorded(sub):
        seen.append(gc.isenabled())
        return to_json(sub)

    monkeypatch.setattr(Subspace, "to_json", recorded)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        payload = sjb_to_json(basis)
        assert gc.isenabled() is enabled
        assert seen and not any(seen)
        assert [c.vectors for c in sjb_from_json(payload).chains] == [
            c.vectors for c in basis.chains
        ]
        assert gc.isenabled() is enabled
        term_at(payload, (1, 0, 0))["coeff"] = {"m": 1.5, "j": 0}
        with pytest.raises(ValueError, match=r"^coefficient m must be an integer, got 1\.5$"):
            sjb_from_json(payload)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_construction_pauses_the_collector_and_restores_it(enabled, monkeypatch):
    seen = []
    next_level = sjb._next_level

    def recorded(level_n, level_n1):
        seen.append(gc.isenabled())
        return next_level(level_n, level_n1)

    def failing(level_n, level_n1):
        raise RuntimeError("stop")

    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        monkeypatch.setattr(sjb, "_next_level", recorded)
        assert construct_sjb(3, 2).vector_count == galois_number(3, 2)
        assert seen == [False] * 3 and gc.isenabled() is enabled
        monkeypatch.setattr(sjb, "_next_level", failing)
        with pytest.raises(RuntimeError, match="^stop$"):
            construct_sjb(3, 2)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("q, n", [(2, 5), (3, 3), (5, 2)])
def test_construction_takes_each_character_projection_once_per_level(q, n, monkeypatch):
    asked = Counter()
    p_chi = haction.p_chi

    def counted(chi, x):
        asked[chi, x] += 1  # x.n names the level
        return p_chi(chi, x)

    monkeypatch.setattr(haction, "p_chi", counted)
    assert construct_sjb(n, q).vector_count == galois_number(n, q)
    assert asked and max(asked.values()) == 1
    assert {x.n for _, x in asked} == set(range(2, n + 1))


def tamper(payload, chain_idx=0, vector_idx=0, term_idx=0):
    """Bump one serialized coefficient by 1."""
    out = copy.deepcopy(payload)
    term = out["chains"][chain_idx]["vectors"][vector_idx]["terms"][term_idx]
    coeff = term["coeff"]
    if "m" in coeff:
        coeff["m"] += 1
    else:
        coeff["coeffs"][0] += 1
    return out


def test_single_coefficient_tamper_is_caught():
    basis = construct_sjb(3, 2)
    payload = sjb_to_json(basis)
    named = {
        "chain-condition",
        "orthogonality",
        "singular-values",
        "monomial-coefficients",
        "chain-shape",
    }
    for chain_idx, vector_idx in [(0, 1), (0, 2), (1, 0), (3, 1)]:
        bad = sjb_from_json(tamper(payload, chain_idx, vector_idx))
        report = verify_sjb(bad)
        assert not report.ok
        failing = {c.name for c in report.failures()}
        assert failing & named, f"unexpected failure set {failing}"
        assert any(c.detail for c in report.failures())


def pairwise_orthogonality_failures(basis):
    """Details of every non-orthogonal same-rank pair, in the order of a scan
    over all pairs."""
    vectors = list(basis.iter_vectors())
    return [
        f"vectors of chains {ci} and {cj} at rank {ri} are not orthogonal"
        for i, (ci, ri, vi) in enumerate(vectors)
        for cj, rj, vj in vectors[i + 1 :]
        if ri == rj and not inner(vi, vj).is_zero
    ]


def test_orthogonality_names_the_first_pair():
    payload = sjb_to_json(construct_sjb(3, 3))
    chains = payload["chains"]
    starts = [c["start_rank"] for c in chains]
    late = [ci for ci, k in enumerate(starts) if k == 1][-2:]
    # one rank-1 vector becomes a single term of chain 0's rank-1 vector, so
    # it meets every rank-1 vector through that subspace; one rank-2 vector
    # becomes a copy of chain 0's, so rank 2 fails as well
    chains[late[1]]["vectors"][0]["terms"] = chains[0]["vectors"][1]["terms"][:1]
    chains[late[0]]["vectors"][1] = copy.deepcopy(chains[0]["vectors"][2])
    basis = sjb_from_json(payload)
    report = verify_sjb(basis)
    (check,) = [c for c in report.checks if c.name == "orthogonality"]
    failures = pairwise_orthogonality_failures(basis)
    assert len(failures) > 2
    assert not check.passed and check.detail == failures[0]


def test_non_monomial_coefficient_fails_checks_instead_of_crashing():
    payload = sjb_to_json(construct_sjb(3, 5))
    payload["chains"][3]["vectors"][0]["terms"][0]["coeff"] = {"coeffs": [1, 1, 0, 0]}
    report = verify_sjb(sjb_from_json(payload))
    failing = {c.name for c in report.failures()}
    assert {"monomial-coefficients", "singular-values"} <= failing


def chain_condition_failures(basis):
    """(chain, rank, detail) of every chain-condition failure, in the order
    of a scan over the chains and, within each, up the ranks, one up_apply a
    vector."""
    out = []
    zero = LatticeVector.zero(basis.q, basis.n)
    for ci, chain in enumerate(basis.chains):
        k = chain.start_rank
        for u, vec in enumerate(chain.vectors):
            nxt = chain.vectors[u + 1] if u + 1 < len(chain.vectors) else zero
            if up_apply(vec) != nxt:
                out.append((ci, k + u, f"chain {ci} (start {k}): U(x_{k + u}) != x_{k + u + 1}"))
    return out


def test_chain_condition_names_the_first_hit():
    payload = sjb_to_json(construct_sjb(4, 2))
    chains = payload["chains"]
    starts = [c["start_rank"] for c in chains]
    early = starts.index(1)
    late = len(starts) - 1 - starts[::-1].index(1)
    # a foreign-rank term in the rank-3 vector of an early chain, and a bumped
    # rank-1 coefficient in a late chain: the first hit is not the lowest rank
    foreign = copy.deepcopy(chains[0]["vectors"][2]["terms"][0])
    chains[early]["vectors"][2]["terms"].append(foreign)
    chains[late]["vectors"][0]["terms"][0]["coeff"]["m"] += 1
    basis = sjb_from_json(payload)
    report = verify_sjb(basis)
    (check,) = [c for c in report.checks if c.name == "chain-condition"]
    failures = chain_condition_failures(basis)
    assert len({ci for ci, _, _ in failures}) > 1
    assert len({rank for _, rank, _ in failures}) > 1
    assert min(failures, key=lambda f: (f[1], f[0])) != failures[0]
    assert not check.passed and check.detail == failures[0][2]


def test_chain_condition_past_the_int64_bound():
    payload = sjb_to_json(construct_sjb(3, 2))
    chain = payload["chains"][0]["vectors"]
    for vec in chain:
        for term in vec["terms"]:
            term["coeff"]["m"] *= 2**61
    # 21 * 2^61 at the top of the chain does not fit in int64
    assert max(t["coeff"]["m"] for v in chain for t in v["terms"]) >= 2**63
    report = verify_sjb(sjb_from_json(payload))
    assert report.ok, report.summary()
    chain[3]["terms"][0]["coeff"]["m"] += 1
    report = verify_sjb(sjb_from_json(payload))
    (check,) = [c for c in report.checks if c.name == "chain-condition"]
    assert not check.passed and check.detail == "chain 0 (start 0): U(x_2) != x_3"


@pytest.mark.parametrize("foreign", ["ambient", "field", "successor"])
def test_sjb_refuses_a_vector_of_another_space(foreign):
    basis = construct_sjb(4, 2)
    chains = list(basis.chains)
    ci = 5
    chain = chains[ci]
    if foreign == "ambient":
        vectors = tuple(v.embed(5) for v in chain.vectors)
    elif foreign == "field":
        other = construct_sjb(4, 3).chains_starting_at(chain.start_rank)[0]
        vectors = other.vectors
    else:  # only the rank-2 vector
        vectors = (chain.vectors[0], chain.vectors[1].embed(5), *chain.vectors[2:])
    chains[ci] = JordanChain(chain.start_rank, vectors)
    k = chain.start_rank
    rank = k + 1 if foreign == "successor" else k
    q, n = (3, 4) if foreign == "field" else (2, 5)
    with pytest.raises(ValueError) as info:
        SJB(basis.q, basis.n, tuple(chains))
    assert str(info.value) == f"chain {ci}, rank {rank}: vector of B_{q}({n}), not of B_2(4)"


def test_jordan_chain_refuses_a_negative_start_rank():
    with pytest.raises(ValueError, match=r"^start_rank must be >= 0, got -1$"):
        JordanChain(-1, ())
    doc = sjb_to_json(construct_sjb(2, 2))
    doc["chains"][0]["start_rank"] = -1
    with pytest.raises(ValueError, match=r"^start_rank must be >= 0, got -1$"):
        sjb_from_json(doc)


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**6), 10**6)
    | st.integers(-(2**70), 2**70)
    | st.floats()
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(
        st.sampled_from(["q", "n", "k", "chains", "start_rank", "vectors", "terms",
                         "subspace", "coeff", "cols", "m", "j", "coeffs"])
        | st.text(max_size=3),
        children,
        max_size=5,
    ),
    max_leaves=16,
)


def parses_or_raises_value_error(doc):
    try:
        basis = sjb_from_json(doc)
    except ValueError:
        return
    assert isinstance(basis, SJB)


def json_paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from json_paths(child, prefix + (key,))


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_sjb_from_json_survives_arbitrary_json(doc):
    parses_or_raises_value_error(doc)


SOUND_23 = sjb_to_json(construct_sjb(3, 2))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sjb_from_json_survives_mutations(data):
    doc = copy.deepcopy(SOUND_23)
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(json_paths(doc))
        if not paths:
            break
        path = data.draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(JSON_VALUES)
    parses_or_raises_value_error(doc)
