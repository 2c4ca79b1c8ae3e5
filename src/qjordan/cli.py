"""Command-line surface: construction, verification and reports.

Machine-readable JSON goes to stdout (or --out); human summaries go to
stderr.  Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import comb

from .gflinalg import check_field_order
from .haction import verify_decomposition
from .qcombinatorics import galois_number, int_str, q_binomial, verify_identities
from .scheme import (
    EigenStructureError,
    _tree_identity,
    eigentable,
    grassmann_graph,
    johnson_graph,
    laplacian_spectrum,
    matrix_tree_oracle,
    johnson_rooted_tree_formula,
    rooted_tree_count,
)
from .sjb import construct_sjb, sjb_from_json, sjb_to_json, verify_sjb

USAGE_ERROR = 2
VERIFY_ERROR = 1

# The longest rooted tree count `trees` computes, in decimal digits.  Writing
# a count out takes time quadratic in its length: the 532,622-digit count of
# (q, n, m) = (2, 8, 4) took 5.6 s to print on a 2-core VM.  The cap is
# judged by a lower bound, so a count that passes it can be a third longer.
MAX_TREE_COUNT_DIGITS = 500_000
# The most theta and gamma images `decompose` builds: N = G(n) + (q^n - 1)
# G(n-1), the images outside the hyperplane that every check but the last
# runs over.  (q, n) = (7, 3) has 3,536, the most below the cap, and takes
# 16 s at 155 MB peak RSS on a 2-core VM; (2, 6), the smallest binary size
# past it, has 26,387, and no size past the cap has been run.
MAX_DECOMPOSE_IMAGES = 4096
# The most vectors of a basis `construct` and `scheme` build: the Galois
# number G_q(n).  (q, n) = (2, 7) has 29,212 and (3, 6) 56,632, both below
# the cap; (2, 8), the smallest binary size past it, has 417,199.
MAX_BASIS_VECTORS = 2**16
# The most vertices of a graph whose matrix-tree determinant `trees --oracle`
# and `johnson` take.  The determinant's time grows as the fourth power of
# the vertex count: N^3 per prime and about N primes.  On a 2-core VM the
# 806 vertices of (q, n, m) = (5, 4, 2) took about a minute, so the 1,395
# of (2, 6, 3), which the cap refuses, would take several.
MAX_ORACLE_VERTICES = 1000


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qjordan",
        description="Exact symmetric Jordan bases of subspace lattices over F_q.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_qn(p, with_m=False):
        p.add_argument("--q", type=int, required=True, help="field order (prime)")
        p.add_argument("--n", type=int, required=True, help="ambient dimension")
        if with_m:
            p.add_argument("--m", type=int, required=True, help="subspace dimension (m <= n/2)")

    p = sub.add_parser("construct", help="build a symmetric Jordan basis")
    add_qn(p)
    p.add_argument("--out", help="write the basis JSON here instead of stdout")
    p.add_argument(
        "--verify",
        choices=("full", "none"),
        default="full",
        help="verify the basis after construction (default: full)",
    )

    p = sub.add_parser("verify", help="fully verify a basis JSON file")
    p.add_argument("path", help="basis file produced by construct")

    p = sub.add_parser("decompose", help="verify the lattice decomposition at level n")
    add_qn(p)

    p = sub.add_parser("scheme", help="eigenvalue table and Laplacian spectrum")
    add_qn(p, with_m=True)

    p = sub.add_parser("trees", help="rooted spanning trees of the Grassmann graph")
    add_qn(p, with_m=True)
    p.add_argument(
        "--oracle",
        action="store_true",
        help="also run the exact matrix-tree determinant and compare",
    )

    p = sub.add_parser("johnson", help="Johnson-graph tree counts and identity check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    p = sub.add_parser("identities", help="q-binomial and Galois-number identity checks")
    add_qn(p)

    return parser


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return USAGE_ERROR


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, separators=(",", ":")) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _basis_past_cap(n: int, q: int) -> bool:
    """Whether the basis of V(B_q(n)) has more than MAX_BASIS_VECTORS
    vectors, decided before any is built.  G_q(n) >= 2^n, the sum of the
    binomials [n, k]_q >= C(n, k), so an n past the cap's bit length is
    past the cap before any q-binomial is taken."""
    if n > MAX_BASIS_VECTORS.bit_length():
        return True
    return galois_number(n, q) > MAX_BASIS_VECTORS


def cmd_construct(args: argparse.Namespace) -> int:
    basis = construct_sjb(args.n, args.q)
    _emit(sjb_to_json(basis), args.out)
    print(
        f"constructed basis for q={args.q}, n={args.n}: "
        f"{basis.vector_count} vectors in {len(basis.chains)} chains",
        file=sys.stderr,
    )
    if args.verify == "none":
        return 0
    report = verify_sjb(basis)
    print(report.summary(), file=sys.stderr)
    return 0 if report.ok else VERIFY_ERROR


def _load_json(fh):
    """json.load, with a message of its own for an integer literal past
    Python's digit limit: json raises a bare ValueError for that alone
    (JSONDecodeError and UnicodeDecodeError are subclasses), whose advice
    to call sys.set_int_max_str_digits() a CLI user cannot follow."""
    try:
        return json.load(fh)
    except ValueError as exc:
        if type(exc) is not ValueError:
            raise
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"an integer literal is longer than {limit} digits") from None


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            basis = sjb_from_json(_load_json(fh))
    except (OSError, ValueError, RecursionError) as exc:
        message = " ".join(str(exc).split())  # one line, whatever the cause
        return _usage_error(f"cannot read basis file {args.path}: {message}")
    report = verify_sjb(basis)
    _emit(report.to_json(), None)
    print(report.summary(), file=sys.stderr)
    return 0 if report.ok else VERIFY_ERROR


def _decompose_images_past_cap(n: int, q: int) -> bool:
    """Whether verify_decomposition(n, q) builds more than
    MAX_DECOMPOSE_IMAGES images, decided before any is built.  There are
    more than q^n - 1 >= 2^n - 1 images, so an n past the cap's bit length
    is past the cap before any q-binomial is taken."""
    if n > MAX_DECOMPOSE_IMAGES.bit_length():
        return True
    return galois_number(n, q) + (q**n - 1) * galois_number(n - 1, q) > MAX_DECOMPOSE_IMAGES


def cmd_decompose(args: argparse.Namespace) -> int:
    if _decompose_images_past_cap(args.n, args.q):
        return _usage_error(
            f"decompose for q={args.q}, n={args.n} builds more than "
            f"{MAX_DECOMPOSE_IMAGES} theta and gamma images, the most decompose takes"
        )
    report = verify_decomposition(args.n, args.q)
    _emit(report.to_json(), None)
    print(report.summary(), file=sys.stderr)
    return 0 if report.ok else VERIFY_ERROR


def cmd_scheme(args: argparse.Namespace) -> int:
    basis = construct_sjb(args.n, args.q)
    report = verify_sjb(basis)
    if not report.ok:
        print(report.summary(), file=sys.stderr)
        return VERIFY_ERROR
    try:
        rows = eigentable(args.n, args.m, basis)
    except EigenStructureError as exc:
        print(f"eigenstructure failure: {exc}", file=sys.stderr)
        return VERIFY_ERROR
    payload = {
        "q": args.q,
        "n": args.n,
        "m": args.m,
        "eigentable": [
            {"start_rank": r.start_rank, "eigenvalues": list(r.eigenvalues)}
            for r in rows
        ],
        "laplacian_spectrum": [
            [eig, mult] for eig, mult in laplacian_spectrum(args.n, args.m, args.q)
        ],
    }
    _emit(payload, None)
    return 0


def _tree_count_past_cap(n: int, m: int, q: int) -> bool:
    """Whether rooted_tree_count(n, m, q) surely has more than
    MAX_TREE_COUNT_DIGITS digits, decided without computing it.

    The count is the product of eig^mult over the nonzero Laplacian
    eigenvalues, and eig^mult has more than mult * (len(str(eig)) - 1)
    digits.  For m >= 1 every such eig, [k]_q [n-k+1]_q, is at least [n]_q,
    and there are [n, m]_q - 1 >= [n]_q - 1 of them, so the count is at
    least [n]_q^([n]_q - 1).  An n past the cap's bit length has [n]_q >=
    2^n - 1 > 2 * cap, which puts that bound past the cap before any
    q-binomial is taken.
    """
    if not m:
        return False  # one vertex, one rooted tree
    if n > MAX_TREE_COUNT_DIGITS.bit_length():
        return True
    spectrum = laplacian_spectrum(n, m, q)[1:]
    return sum(mult * (len(str(eig)) - 1) for eig, mult in spectrum) >= MAX_TREE_COUNT_DIGITS


def cmd_trees(args: argparse.Namespace) -> int:
    if _tree_count_past_cap(args.n, args.m, args.q):
        return _usage_error(
            f"the rooted tree count for q={args.q}, n={args.n}, m={args.m} has more "
            f"than {MAX_TREE_COUNT_DIGITS} digits, the most trees computes"
        )
    # after the digit cap, m = 0 or n is small, so [n, m]_q is quick to take
    if args.oracle and q_binomial(args.n, args.m, args.q) > MAX_ORACLE_VERTICES:
        return _usage_error(
            f"the Grassmann graph for q={args.q}, n={args.n}, m={args.m} has more than "
            f"{MAX_ORACLE_VERTICES} vertices, the most the matrix-tree oracle takes"
        )
    formula = rooted_tree_count(args.n, args.m, args.q)
    oracle = match = None
    if args.oracle:
        oracle = matrix_tree_oracle(*grassmann_graph(args.q, args.n, args.m))
        match = oracle == formula
    payload = {
        "q": args.q,
        "n": args.n,
        "m": args.m,
        "formula": int_str(formula),
        "oracle": None if oracle is None else int_str(oracle),
        "match": match,
    }
    _emit(payload, None)
    if args.oracle:
        print(f"formula {int_str(formula)} vs oracle {int_str(oracle)}", file=sys.stderr)
    return 0 if match in (None, True) else VERIFY_ERROR


def cmd_johnson(args: argparse.Namespace) -> int:
    # C(n, m) >= n for 1 <= m <= n/2: a large n is refused before C(n, m)
    if args.n > MAX_ORACLE_VERTICES or comb(args.n, args.m) > MAX_ORACLE_VERTICES:
        return _usage_error(
            f"the Johnson graph for n={args.n}, m={args.m} has more than "
            f"{MAX_ORACLE_VERTICES} vertices, the most the matrix-tree oracle takes"
        )
    formula = johnson_rooted_tree_formula(args.n, args.m)
    oracle = matrix_tree_oracle(*johnson_graph(args.n, args.m))
    # the identity of Theorem JG (q = 1), on the tree count just taken
    ok_jg = _tree_identity(
        args.n, args.m, 1, oracle, matrix_tree_oracle(*johnson_graph(args.n, args.m - 1))
    )
    payload = {
        "n": args.n,
        "m": args.m,
        "tree_formula": int_str(formula),
        "tree_oracle": int_str(oracle),
        "match": formula == oracle,
        "theorem_jg": ok_jg,
    }
    _emit(payload, None)
    return 0 if payload["match"] and ok_jg else VERIFY_ERROR


def cmd_identities(args: argparse.Namespace) -> int:
    report = verify_identities(args.n, args.q)
    _emit(report.to_json(), None)
    print(report.summary(), file=sys.stderr)
    return 0 if report.ok else VERIFY_ERROR


def run(args: argparse.Namespace) -> int:
    q, n, m = (getattr(args, key, None) for key in ("q", "n", "m"))
    if q is not None:
        try:
            check_field_order(q)
        except ValueError as exc:
            return _usage_error(str(exc))
    if n is not None and n < 0:
        return _usage_error(f"n must be >= 0, got {n}")
    if m is not None and n is not None and not 0 <= 2 * m <= n:
        return _usage_error(f"m must satisfy 0 <= m <= n/2, got m={m}, n={n}")
    if args.command == "identities" and n < 1:
        return _usage_error("identities needs n >= 1")
    if args.command == "decompose" and n < 1:
        return _usage_error("decompose needs n >= 1")
    if args.command == "johnson" and m < 1:
        return _usage_error("johnson needs m >= 1")
    if args.command in ("construct", "scheme") and _basis_past_cap(n, q):
        return _usage_error(
            f"the basis for q={q}, n={n} has more than {MAX_BASIS_VECTORS} "
            f"vectors, the most {args.command} builds"
        )
    handlers = {
        "construct": cmd_construct,
        "verify": cmd_verify,
        "decompose": cmd_decompose,
        "scheme": cmd_scheme,
        "trees": cmd_trees,
        "johnson": cmd_johnson,
        "identities": cmd_identities,
    }
    return handlers[args.command](args)


def main(argv=None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
