"""Acceptance suite: one test per criterion, one printed line per criterion.

Everything here is exact integer arithmetic; there are no tolerances to
tune.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import copy
import json
import time

from qjordan import (
    Character,
    Subspace,
    check_theorem_gg,
    check_theorem_jg,
    construct_sjb,
    eigentable,
    find_hyperplane,
    grassmann_graph,
    inner,
    johnson_graph,
    johnson_rooted_tree_formula,
    laplacian_matrix,
    laplacian_spectrum,
    matrix_tree_oracle,
    p_chi,
    q_binomial,
    rooted_tree_count,
    sjb_from_json,
    sjb_to_json,
    verify_decomposition,
    verify_sjb,
)
from qjordan.cli import main as cli_main
from qjordan.haction import characters

from charpoly import charpoly_matches
from fq import character_multiplicity, group_vectors, perm_character


def report_line(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status}  {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def test_criterion_1_construct_and_verify(basis_for):
    cases = [(2, n) for n in range(1, 6)] + [(3, n) for n in range(1, 5)] + [
        (5, n) for n in range(1, 4)
    ]
    failures = []
    elapsed_25 = None
    for q, n in cases:
        start = time.monotonic()
        basis = construct_sjb(n, q)
        report = verify_sjb(basis, mode="full")
        took = time.monotonic() - start
        if (q, n) == (2, 5):
            elapsed_25 = took
        if not report.ok:
            failures.append(f"({q},{n}): {report.summary()}")

    start = time.monotonic()
    big = construct_sjb(6, 2)
    full = verify_sjb(big, mode="full")
    elapsed_26 = time.monotonic() - start
    if not full.ok:
        failures.append(f"(2,6) full: {full.summary()}")
    if elapsed_25 >= 60:
        failures.append(f"(2,5) took {elapsed_25:.1f}s >= 60s")
    if elapsed_26 >= 300:
        failures.append(f"(2,6) took {elapsed_26:.1f}s >= 300s")
    report_line(
        "criterion 1: construct+verify grid incl. timing",
        not failures,
        "; ".join(failures) or f"(2,5) {elapsed_25:.1f}s, (2,6)+full {elapsed_26:.1f}s",
    )


def test_criterion_2_decomposition():
    failures = []
    for q, n_max in [(2, 4), (3, 3)]:
        for n in range(1, n_max + 1):
            report = verify_decomposition(n, q)
            if not report.ok:
                failures.append(f"(q={q}, n={n}): {report.summary()}")
    report_line("criterion 2: lattice decomposition grid", not failures, "; ".join(failures))


def test_criterion_3_worked_example():
    chi = Character(3, (1, 2))
    x1 = Subspace.span(3, 2, [(1, 0)])
    x2 = Subspace.span(3, 2, [(0, 1)])
    x3 = Subspace.span(3, 2, [(1, 1)])
    x4 = Subspace.span(3, 2, [(2, 1)])
    survivor = p_chi(chi, x3.hat())
    ok = (
        p_chi(chi, x1.hat()).is_zero
        and p_chi(chi, x2.hat()).is_zero
        and p_chi(chi, x4.hat()).is_zero
        and not survivor.is_zero
        and inner(survivor, survivor).to_int() == 27
        and find_hyperplane(chi) == x3
    )
    report_line("criterion 3: q=3 worked example", ok)


def test_criterion_4_permutation_character():
    failures = []
    for q in (2, 3):
        for n in range(1, 4):
            identity = (0,) * n
            for k in range(1, n + 2):
                expect_id = q ** (n - k + 1) * q_binomial(n, k - 1, q)
                if perm_character(n, k, identity, q) != expect_id:
                    failures.append(f"psi_{k}(I) wrong at (q={q}, n={n})")
                expect_moved = q ** (n - k + 1) * q_binomial(n - 1, k - 2, q)
                for a in group_vectors(n, q):
                    if any(a) and perm_character(n, k, a, q) != expect_moved:
                        failures.append(f"psi_{k}({a}) wrong at (q={q}, n={n})")
                        break
                trivial = Character(q, identity)
                if character_multiplicity(trivial, n, k) != q_binomial(n, k - 1, q):
                    failures.append(f"trivial multiplicity wrong at (q={q}, n={n}, k={k})")
                for chi in characters(n, q):
                    if character_multiplicity(chi, n, k) != q_binomial(n - 1, k - 1, q):
                        failures.append(
                            f"multiplicity of c={chi.c} wrong at (q={q}, n={n}, k={k})"
                        )
                        break
    report_line("criterion 4: fixed-point counts and multiplicities", not failures, "; ".join(failures))


def test_criterion_5_common_eigenbasis(basis_for):
    failures = []
    for q, n, m in [(2, 4, 1), (2, 4, 2), (2, 5, 2), (3, 4, 2)]:
        try:
            rows = eigentable(n, m, basis_for(q, n))
        except Exception as exc:  # EigenStructureError and friends
            failures.append(f"(q={q},n={n},m={m}): {exc}")
            continue
        if len(rows) != m + 1:
            failures.append(f"(q={q},n={n},m={m}): {len(rows)} rows")
        if len({r.eigenvalues for r in rows}) != len(rows):
            failures.append(f"(q={q},n={n},m={m}): duplicate rows")
        if [r.start_rank for r in rows] != list(range(m + 1)):
            failures.append(f"(q={q},n={n},m={m}): start ranks {[r.start_rank for r in rows]}")
    report_line("criterion 5: common eigenbasis of the scheme", not failures, "; ".join(failures))


def test_criterion_6_tree_counts():
    failures = []
    expected = {
        (2, 3, 1): 7**6,
        (2, 4, 1): 15**14,
        (2, 4, 2): 15**14 * 21**20,
    }
    for q, n, m in [(2, 3, 1), (2, 4, 1), (2, 4, 2), (3, 3, 1)]:
        formula = rooted_tree_count(n, m, q)
        oracle = matrix_tree_oracle(*grassmann_graph(q, n, m))
        if formula != oracle:
            failures.append(f"C_{q}({n},{m}): {formula} != {oracle}")
        if (q, n, m) in expected and formula != expected[(q, n, m)]:
            failures.append(f"C_{q}({n},{m}): {formula} != pinned value")
    j_formula = johnson_rooted_tree_formula(5, 2)
    j_oracle = matrix_tree_oracle(*johnson_graph(5, 2))
    if j_formula != j_oracle:
        failures.append(f"Johnson C(5,2): {j_formula} != {j_oracle}")
    verts, edges = grassmann_graph(2, 4, 2)
    if not charpoly_matches(laplacian_matrix(verts, edges), laplacian_spectrum(4, 2, 2)):
        failures.append("Laplacian charpoly mismatch at (2,4,2)")
    report_line("criterion 6: spanning-tree counts vs matrix-tree", not failures, "; ".join(failures))


def test_criterion_7_cardinality_identities():
    failures = []
    for q, n, m in [(2, 4, 1), (2, 4, 2), (3, 3, 1)]:
        if not check_theorem_gg(n, m, q):
            failures.append(f"gg fails at (q={q},n={n},m={m})")
    for n, m in [(4, 1), (5, 2)]:
        if not check_theorem_jg(n, m):
            failures.append(f"jg fails at (n={n},m={m})")
    for n in (4, 5):
        rooted = matrix_tree_oracle(*johnson_graph(n, 1))
        if n * rooted != n**n:
            failures.append(f"n*|T({n},1)| != {n}^{n}")
    report_line("criterion 7: tree cardinality identities", not failures, "; ".join(failures))


def test_criterion_8_negative_controls(tmp_path, capsys, basis_for):
    failures = []
    payload = sjb_to_json(basis_for(2, 3))
    named = {
        "chain-condition",
        "orthogonality",
        "singular-values",
        "monomial-coefficients",
        "chain-shape",
        "total-count",
        "chain-counts",
    }
    for chain_idx, vec_idx in [(0, 0), (0, 2), (2, 0), (5, 1)]:
        bad = copy.deepcopy(payload)
        term = bad["chains"][chain_idx]["vectors"][vec_idx]["terms"][0]
        term["coeff"]["m"] += 1
        report = verify_sjb(sjb_from_json(bad))
        if report.ok:
            failures.append(f"tamper at chain {chain_idx} vector {vec_idx} not caught")
            continue
        failing = {c.name for c in report.failures()}
        if not failing & named:
            failures.append(f"tamper caught but checks unnamed: {failing}")
        if not any(c.detail for c in report.failures()):
            failures.append("failure carries no naming detail")

    good_path = tmp_path / "basis.json"
    code = cli_main(
        ["construct", "--q", "2", "--n", "3", "--out", str(good_path), "--verify", "none"]
    )
    if code != 0:
        failures.append(f"construct exited {code}")
    tampered = json.loads(good_path.read_text())
    tampered["chains"][0]["vectors"][1]["terms"][0]["coeff"]["m"] += 1
    bad_path = tmp_path / "tampered.json"
    bad_path.write_text(json.dumps(tampered))
    code = cli_main(["verify", str(bad_path)])
    capsys.readouterr()  # swallow the CLI's own report output
    if code != 1:
        failures.append(f"verify on tampered basis exited {code}, wanted 1")
    code = cli_main(["verify", str(good_path)])
    capsys.readouterr()
    if code != 0:
        failures.append(f"verify on sound basis exited {code}, wanted 0")
    report_line("criterion 8: negative controls", not failures, "; ".join(failures))
