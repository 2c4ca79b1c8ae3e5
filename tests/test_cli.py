"""End-to-end CLI behavior: outputs, exit codes, determinism."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qjordan import (
    LatticeVector,
    Subspace,
    construct_sjb,
    rooted_tree_count,
    sjb_from_json,
    sjb_to_json,
    verify_sjb,
)
from qjordan import cli, haction, scheme
from qjordan.cli import main
from qjordan.gflinalg import MAX_AMBIENT_SIZE
from qjordan.qcombinatorics import int_str, q_binomial


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_full_verify(capsys):
    code, out, err = run_cli(
        capsys, "construct", "--q", "2", "--n", "3", "--verify", "full"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["q"] == 2 and payload["n"] == 3
    assert sum(len(c["vectors"]) for c in payload["chains"]) == 16
    assert "all" in err and "passed" in err


def test_construct_rejects_nonprime_q(capsys):
    code, out, err = run_cli(capsys, "construct", "--q", "4", "--n", "2")
    assert code == 2
    assert "prime" in err
    assert out == ""


def test_usage_error_on_bad_m(capsys):
    cases = {
        ("scheme", "--q", "2", "--n", "4", "--m", "3"): "m must satisfy",
        # the Johnson identity compares ranks m and m-1, so m = 0 has none
        ("johnson", "--n", "4", "--m", "0"): "johnson needs m >= 1",
    }
    for argv, message in cases.items():
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.count("\n") == 1 and err.startswith("error: ") and message in err, argv


def test_unknown_arguments_exit_2(capsys):
    for extra in (["--frobnicate"], ["--threads", "2"], ["--verify", "spot"]):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "--q", "2", "--n", "3", *extra])
        assert exc.value.code == 2, extra


def test_retired_environment_knobs_are_ignored(capsys, monkeypatch):
    monkeypatch.setenv("QJORDAN_THREADS", "abc")
    monkeypatch.setenv("QJORDAN_BACKEND", "sbcl")
    code, out, _ = run_cli(capsys, "identities", "--q", "2", "--n", "3")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_construct_deterministic_output(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run_cli(
            capsys,
            "construct", "--q", "3", "--n", "2",
            "--out", str(path), "--verify", "none",
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_roundtrip_and_tamper(tmp_path, capsys):
    path = tmp_path / "basis.json"
    code, _, _ = run_cli(
        capsys, "construct", "--q", "2", "--n", "3", "--out", str(path)
    )
    assert code == 0

    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert json.loads(out)["ok"] is True

    payload = json.loads(path.read_text())
    term = payload["chains"][0]["vectors"][1]["terms"][0]
    term["coeff"]["m"] += 2
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(payload))

    code, out, err = run_cli(capsys, "verify", str(bad))
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    failing = [c["name"] for c in report["checks"] if not c["passed"]]
    assert failing
    assert any(
        name.startswith(("orthogonality", "chain-condition", "singular-values"))
        for name in failing
    )


def test_decompose(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--q", "2", "--n", "2")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert any(c["name"] == "up-splitting" for c in report["checks"])


@pytest.mark.parametrize("q, n", [(2, 40), (3, 5), (2, 6), (2, 10**9), (127, 2)])
def test_decompose_refuses_a_gram_past_the_cap(capsys, q, n):
    code, out, err = run_cli(capsys, "decompose", "--q", str(q), "--n", str(n))
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert f"more than {cli.MAX_DECOMPOSE_IMAGES} theta and gamma images" in err


def test_decompose_gram_cap_is_the_gram_it_takes(monkeypatch):
    # the sizes the benchmark's verify workload and the README run, and the
    # larger ones that should still run, fit under the cap
    for q, n in [(2, 2), (2, 3), (2, 4), (3, 3), (2, 5), (3, 4), (5, 3), (7, 3)]:
        assert not cli._decompose_images_past_cap(n, q), (q, n)
    # the cap counts the images whose inner products verify_decomposition
    # takes: at a cap of exactly that many they fit, and at one less not
    counts = []
    original = haction.gram_pairs

    def recorded(vectors):
        counts.append(len(vectors))
        return original(vectors)

    monkeypatch.setattr(haction, "gram_pairs", recorded)
    for q, n in [(2, 1), (2, 2), (2, 3), (3, 2), (5, 2)]:
        haction.verify_decomposition(n, q)
        monkeypatch.setattr(cli, "MAX_DECOMPOSE_IMAGES", counts[-1])
        assert not cli._decompose_images_past_cap(n, q), (q, n)
        monkeypatch.setattr(cli, "MAX_DECOMPOSE_IMAGES", counts[-1] - 1)
        assert cli._decompose_images_past_cap(n, q), (q, n)


def test_scheme_command(capsys):
    code, out, _ = run_cli(capsys, "scheme", "--q", "2", "--n", "3", "--m", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["eigentable"] == [
        {"start_rank": 0, "eigenvalues": [1, 6]},
        {"start_rank": 1, "eigenvalues": [1, -1]},
    ]
    assert payload["laplacian_spectrum"] == [[0, 1], [7, 6]]


def test_trees_command(capsys):
    code, out, _ = run_cli(capsys, "trees", "--q", "2", "--n", "3", "--m", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["formula"] == "117649"
    assert payload["oracle"] is None and payload["match"] is None

    code, out, _ = run_cli(
        capsys, "trees", "--q", "2", "--n", "3", "--m", "1", "--oracle"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle"] == "117649" and payload["match"] is True


def test_trees_prints_a_count_past_the_int_digit_limit(capsys):
    # the (7,3) count has more digits than str(int) writes by default
    code, out, err = run_cli(capsys, "trees", "--q", "2", "--n", "7", "--m", "3")
    assert code == 0, err
    formula = json.loads(out)["formula"]
    limit = sys.get_int_max_str_digits()
    assert 0 < limit < len(formula)
    sys.set_int_max_str_digits(0)
    try:
        assert int(formula) == rooted_tree_count(7, 3, 2)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("q, n, m", [(2, 2000, 1), (2, 18, 1), (2, 16, 8), (3, 40, 20)])
def test_trees_refuses_a_count_past_the_digit_cap(capsys, q, n, m):
    code, out, err = run_cli(capsys, "trees", "--q", str(q), "--n", str(n), "--m", str(m))
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert f"more than {cli.MAX_TREE_COUNT_DIGITS} digits" in err


def test_trees_digit_cap_never_refuses_a_count_that_fits(monkeypatch):
    # at a cap equal to the count's own length the count fits; at a cap of
    # two digits it does not
    for q, n, m in [(2, 3, 1), (2, 6, 3), (3, 4, 2), (5, 3, 1), (2, 7, 3), (7, 4, 1)]:
        digits = len(int_str(rooted_tree_count(n, m, q)))
        monkeypatch.setattr(cli, "MAX_TREE_COUNT_DIGITS", digits)
        assert not cli._tree_count_past_cap(n, m, q), (q, n, m)
        monkeypatch.setattr(cli, "MAX_TREE_COUNT_DIGITS", 2)
        assert cli._tree_count_past_cap(n, m, q), (q, n, m)
    assert not cli._tree_count_past_cap(2000, 0, 2)


def test_johnson_command(capsys):
    code, out, _ = run_cli(capsys, "johnson", "--n", "4", "--m", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["match"] is True and payload["theorem_jg"] is True
    assert payload["tree_formula"] == str(4**3)


def test_johnson_takes_each_tree_determinant_once(capsys, monkeypatch):
    # C(5, 2) and C(5, 1) vertices: one reduced Laplacian of each size
    sizes = []
    det = scheme.bareiss_det
    monkeypatch.setattr(scheme, "bareiss_det", lambda mat: sizes.append(len(mat)) or det(mat))
    code, out, _ = run_cli(capsys, "johnson", "--n", "5", "--m", "2")
    assert code == 0 and json.loads(out)["theorem_jg"] is True
    assert sizes == [9, 4]


@pytest.mark.parametrize(
    "argv",
    [
        ("trees", "--q", "2", "--n", "6", "--m", "3", "--oracle"),
        ("trees", "--q", "37", "--n", "3", "--m", "1", "--oracle"),
        ("johnson", "--n", "40", "--m", "20"),
        ("johnson", "--n", "1001", "--m", "1"),
        ("johnson", "--n", str(10**12), "--m", str(10**11)),
    ],
)
def test_oracle_refuses_a_graph_past_the_vertex_cap(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert f"more than {cli.MAX_ORACLE_VERTICES} vertices" in err


def test_oracle_vertex_cap_is_the_graph_it_takes(capsys, monkeypatch):
    # (5, 4, 2) and C(10, 5) fit; at a cap of exactly the vertex count a
    # command runs, and one vertex less it is refused
    assert q_binomial(4, 2, 5) == 806 <= cli.MAX_ORACLE_VERTICES
    assert q_binomial(6, 3, 2) == 1395 > cli.MAX_ORACLE_VERTICES
    for argv, vertices in [
        (("trees", "--q", "2", "--n", "3", "--m", "1", "--oracle"), 7),
        (("johnson", "--n", "5", "--m", "2"), 10),
        (("johnson", "--n", "10", "--m", "5"), 252),
    ]:
        monkeypatch.setattr(cli, "MAX_ORACLE_VERTICES", vertices)
        assert run_cli(capsys, *argv)[0] == 0, argv
        monkeypatch.setattr(cli, "MAX_ORACLE_VERTICES", vertices - 1)
        assert run_cli(capsys, *argv)[0] == 2, argv
    # without --oracle no graph is built, so no vertex cap applies
    monkeypatch.setattr(cli, "MAX_ORACLE_VERTICES", 1)
    assert run_cli(capsys, "trees", "--q", "2", "--n", "3", "--m", "1")[0] == 0


def test_identities_command(capsys):
    code, out, _ = run_cli(capsys, "identities", "--q", "3", "--n", "4")
    assert code == 0
    assert json.loads(out)["ok"] is True
    code, _, err = run_cli(capsys, "identities", "--q", "2", "--n", "0")
    assert code == 2


def test_verify_non_monomial_coefficient_exits_1(tmp_path, capsys):
    payload = sjb_to_json(construct_sjb(3, 5))
    payload["chains"][3]["vectors"][0]["terms"][0]["coeff"] = {"coeffs": [1, 1, 0, 0]}
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1
    failing = {c["name"] for c in json.loads(out)["checks"] if not c["passed"]}
    assert {"monomial-coefficients", "singular-values"} <= failing


def test_verify_reports_a_coefficient_past_the_int_digit_limit(tmp_path, capsys):
    # a 4,001-digit coefficient parses, and the failing singular-values
    # detail holds its square of about 8,000 digits; a 5,000-digit literal
    # is refused at parsing, before any quadratic conversion
    payload = sjb_to_json(construct_sjb(2, 2))
    payload["chains"][0]["vectors"][0]["terms"][0]["coeff"] = {"m": "BIG", "j": 0}
    text = json.dumps(payload)
    for digits, expect in ((4001, 1), (5000, 2)):
        path = tmp_path / f"m{digits}.json"
        path.write_text(text.replace('"BIG"', "7" * digits))
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == expect and "Traceback" not in err, digits
        if expect == 2:
            assert out == "" and err.count("\n") == 1
            assert err.startswith("error: cannot read basis file") and "4300 digits" in err
            assert "integer literal" in err and "set_int_max_str_digits" not in err
            continue
        failing = {c["name"]: c.get("detail", "") for c in json.loads(out)["checks"] if not c["passed"]}
        norm = failing["singular-values"].rsplit(" ", 1)[-1]
        assert norm.isdigit() and len(norm) > 8000
        assert "singular-values: " in err


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "qjordan", "decompose", "--q", "2", "--n", "2"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["ok"] is True


def test_huge_field_order_exits_2_fast(tmp_path):
    # 2^61 - 1 is prime: trial division on it would run for minutes
    huge = 2**61 - 1
    term = {"subspace": {"n": 1, "k": 0, "cols": []}, "coeff": {"m": 1, "j": 0}}
    vector = {"q": huge, "n": 1, "terms": [term]}
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    commands = [["construct", "--q", str(huge), "--n", "1"]]
    for i, chains in enumerate(([], [{"start_rank": 0, "vectors": [vector]}])):
        path = tmp_path / f"huge{i}.json"
        path.write_text(json.dumps({"q": huge, "n": 1, "chains": chains}))
        commands.append(["verify", str(path)])
    for argv in commands:
        out = subprocess.run(
            [sys.executable, "-m", "qjordan", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=2,
        )
        assert out.returncode == 2 and out.stdout == "", argv
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, argv


def test_malformed_basis_file_is_a_usage_error(tmp_path, capsys):
    sound = sjb_to_json(construct_sjb(2, 2))
    text = json.dumps(sound)
    header_q4 = dict(sound, q=4)
    bad_coeff = copy.deepcopy(sound)
    bad_coeff["chains"][0]["vectors"][0]["terms"][0]["coeff"] = {"m": "x", "j": 0}
    dependent = copy.deepcopy(sound)
    line = dependent["chains"][0]["vectors"][1]["terms"][0]["subspace"]
    line["cols"] = [[0, 0]]
    files = {
        "truncated.json": text[: len(text) // 2],
        "list.json": "[]",
        "q4.json": json.dumps(header_q4),
        "coeff.json": json.dumps(bad_coeff),
        "dependent.json": json.dumps(dependent),
        "n_neg.json": json.dumps({"q": 2, "n": -3, "chains": []}),
        # n = 256 passed Python's int-to-str digit limit and n = 600 the
        # q-binomial recursion depth; 2^15 and 3^9 are the least q^n past
        # the cap at their q
        "n_256.json": json.dumps({"q": 2, "n": 256, "chains": []}),
        "n_600.json": json.dumps({"q": 2, "n": 600, "chains": []}),
        "n_cap.json": json.dumps({"q": 2, "n": MAX_AMBIENT_SIZE.bit_length(), "chains": []}),
        "q3_cap.json": json.dumps({"q": 3, "n": 9, "chains": []}),
        # json.load raises RecursionError, not ValueError, on deep nesting
        "deep.json": "[" * 100000 + "]" * 100000,
    }
    # one rank-0 term, within the old cap on n: verifying it would enumerate
    # the 2^n vectors of F_2^n
    for n in (20, 30):
        zero = LatticeVector.basis(Subspace.zero(2, n)).to_json()
        doc = {"q": 2, "n": n, "chains": [{"start_rank": 0, "vectors": [zero]}]}
        files[f"one_term_{n}.json"] = json.dumps(doc)
    # non-integers that int() would truncate to a sound value
    sound_23 = sjb_to_json(construct_sjb(3, 2))
    term = ("chains", 0, "vectors", 0, "terms", 0)
    line = sound_23["chains"][0]["vectors"][1]["terms"][0]["subspace"]
    pivot = ("chains", 0, "vectors", 1, "terms", 0, "subspace", "cols", 0, line["cols"][0].index(1))
    edits = {
        "m_float.json": (term + ("coeff", "m"), 1.5),
        "m_bool.json": (term + ("coeff", "m"), True),
        "col_float.json": (pivot, 1.5),
        # out of 0..q-1, though congruent to the sound entry mod q
        "col_3.json": (pivot, 3),
        "col_neg.json": (pivot, -1),
        "start_float.json": (("chains", 0, "start_rank"), 0.5),
        "start_neg.json": (("chains", 0, "start_rank"), -1),
        "q_string.json": (("q",), "2"),
    }
    for name, (path, value) in edits.items():
        doc = copy.deepcopy(sound_23)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        files[name] = json.dumps(doc)
    paths = [tmp_path / "missing.json"]
    for name, body in files.items():
        paths.append(tmp_path / name)
        paths[-1].write_text(body)
    for path in paths:
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 2, path.name
        assert out == "" and "Traceback" not in err, path.name
        assert err.count("\n") == 1 and err.startswith("error: "), (path.name, err)


def test_basis_file_at_the_ambient_cap_is_verified(tmp_path, capsys):
    path = tmp_path / "n_cap.json"
    n = MAX_AMBIENT_SIZE.bit_length() - 1
    assert 2**n == MAX_AMBIENT_SIZE
    path.write_text(json.dumps({"q": 2, "n": n, "chains": []}))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 1 and "Traceback" not in err
    report = json.loads(out)
    assert not report["ok"]
    assert report["checks"][0]["name"] == "total-count" and not report["checks"][0]["passed"]


def test_chain_that_stops_short_fails_chain_shape(tmp_path, capsys):
    doc = sjb_to_json(construct_sjb(3, 2))
    del doc["chains"][0]["vectors"][-1]  # the chain from rank 0 now ends at 2
    report = verify_sjb(sjb_from_json(doc))
    # U of its last vector is no longer zero; its norms so far still agree
    assert [c.name for c in report.failures()] == ["total-count", "chain-shape", "chain-condition"]
    assert report.failures()[1].detail == "chain 0 (start 0) ends at 2, not 3"
    path = tmp_path / "short_chain.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 1 and json.loads(out) == report.to_json()
    assert "Traceback" not in err


def test_field_order_above_the_int8_cap_exits_2(tmp_path, capsys):
    out_path = tmp_path / "basis.json"
    code, out, err = run_cli(capsys, "construct", "--q", "131", "--n", "2", "--out", str(out_path))
    assert code == 2 and out == ""
    assert err == "error: q must be below 128, got 131\n"
    assert not out_path.exists()


def test_largest_field_round_trips_through_a_basis_file(tmp_path, capsys):
    # entries up to 126 are stored and read back unchanged; the verify
    # command's Gram matrices take (q-1)^2 plane products, far too slow at
    # q = 127 for this suite, so the file is read with the parser it uses
    path = tmp_path / "basis.json"
    code, _, _ = run_cli(
        capsys, "construct", "--q", "127", "--n", "2", "--verify", "none", "--out", str(path)
    )
    assert code == 0
    text = path.read_text(encoding="utf-8")
    assert "[1,126]" in text
    loaded = sjb_from_json(json.loads(text))
    basis = construct_sjb(2, 127)
    assert [c.vectors for c in loaded.chains] == [c.vectors for c in basis.chains]
