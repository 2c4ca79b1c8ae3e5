"""Run one qjordan user command in a fresh interpreter and report on it.

    python3 perfbench/worker.py '<spec as JSON>'

The spec names the command (``construct``, ``verify``, ``decompose``,
``scheme``, ``trees``, ``import`` to time the import alone, or ``calibrate``
to time a fixed program that does not import qjordan), its sizes, and
``trace`` to wrap the package's entry points (see spans.py).  The last
stdout line is a JSON object with the import time, the command's wall time,
peak RSS, the outputs the runner checks, and the per-layer counters when
traced.  The runner, not this process, decides whether the outputs are
correct.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

clock = time.perf_counter


def cli_bytes(obj) -> bytes:
    """The byte format of ``qjordan construct --out``."""
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode()


def construct(qj, spec, rec):
    start = clock()
    basis = qj.construct_sjb(spec["n"], spec["q"])
    obj = qj.sjb_to_json(basis)
    encode = clock()
    data = cli_bytes(obj)
    end = clock()
    rec["json_encode_s"] = end - encode
    rec["json_bytes"] = len(data)
    if spec.get("out"):
        with open(spec["out"], "wb") as fh:
            fh.write(data)
    return end - start, {"digest": hashlib.sha256(data).hexdigest()}, basis


def verify(qj, spec, rec):
    start = clock()
    with open(spec["path"], "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    decoded = clock()
    basis = qj.sjb_from_json(obj)
    report = qj.verify_sjb(basis, mode="full")
    end = clock()
    rec["json_decode_s"] = decoded - start
    rec["json_bytes"] = os.path.getsize(spec["path"])
    return end - start, _report(report), basis


def decompose(qj, spec, rec):
    start = clock()
    report = qj.verify_decomposition(spec["n"], spec["q"])
    return clock() - start, _report(report), None


def scheme(qj, spec, rec):
    q, n, m = spec["q"], spec["n"], spec["m"]
    start = clock()
    basis = qj.construct_sjb(n, q)
    rows = qj.eigentable(n, m, basis)
    spectrum = qj.laplacian_spectrum(n, m, q)
    elapsed = clock() - start
    out = {
        "rows": [[r.start_rank, list(r.eigenvalues)] for r in rows],
        "spectrum": [list(entry) for entry in spectrum],
    }
    return elapsed, out, basis


def trees(qj, spec, rec):
    q, n, m = spec["q"], spec["n"], spec["m"]
    start = clock()
    oracle = qj.matrix_tree_oracle(*qj.grassmann_graph(q, n, m))
    formula = qj.rooted_tree_count(n, m, q)
    theorem = qj.check_theorem_gg(n, m, q)
    elapsed = clock() - start
    return elapsed, {"oracle": str(oracle), "formula": str(formula), "theorem_gg": theorem}, None


def import_only(qj, spec, rec):
    return 0.0, {}, None


def calibrate() -> float:
    """Seconds this host takes, now, for a fixed mix of the work qjordan does:
    tuple-keyed dicts, sorting, big-integer arithmetic and small numpy
    arrays.  It never changes with qjordan, so the runner divides command
    times by it to cancel the shared host's speed drift."""
    import numpy as np

    start = clock()
    table: dict = {}
    for i in range(100000):
        k = (i * 2654435761) % 1000003
        key = (k & 1023, k >> 10)
        table[key] = table.get(key, 0) + i
    ordered = sorted(table.items(), key=lambda kv: kv[1])
    x, m = 3**3000, 5**4000
    for i in range(100):
        x = (x * x + i) % m
    rows = [[i * j for j in range(16)] for i in range(10000)]
    a = np.arange(64, dtype=np.int64).reshape(8, 8)
    for i in range(3000):
        a = (a * 3 + i) % 7
    elapsed = clock() - start
    assert ordered and x and rows and a.shape == (8, 8)
    return elapsed


def _report(report) -> dict:
    return {"ok": report.ok, "failed_checks": [c.name for c in report.failures()]}


def basis_stats(basis) -> dict:
    """Terms in the basis and the bit length of its largest Z[w] coefficient."""
    terms = bits = 0
    for _, _, vec in basis.iter_vectors():
        terms += len(vec)
        for _, coeff in vec.items():
            for a in coeff.coeffs:
                bits = max(bits, abs(a).bit_length())
    return {"basis_terms": terms, "max_coeff_bits": bits}


COMMANDS = {
    "import": import_only,
    "construct": construct,
    "verify": verify,
    "decompose": decompose,
    "scheme": scheme,
    "trees": trees,
}


def main() -> None:
    spec = json.loads(sys.argv[1])
    if spec["cmd"] == "calibrate":
        print(json.dumps({"calibrate_s": calibrate()}))
        return
    command = COMMANDS[spec["cmd"]]
    start = clock()
    import qjordan

    import_s = clock() - start
    tracer = None
    if spec.get("trace"):
        import spans

        tracer = spans.Tracer()
    rec: dict = {}
    command_s, outputs, basis = command(qjordan, spec, rec)
    result = {
        "import_s": import_s,
        "command_s": command_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "backend": qjordan.active_backend(),
        "outputs": outputs,
        "recorded": rec,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        if basis is not None:
            result["recorded"].update(basis_stats(basis))
    if spec["cmd"] == "scheme":
        # checked against the reference like a built basis; untimed and after
        # the layer summary, so it shows in no metric
        outputs["digest"] = hashlib.sha256(cli_bytes(qjordan.sjb_to_json(basis))).hexdigest()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
