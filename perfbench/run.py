"""qjordan benchmark: user commands in fresh interpreters, checked exactly.

    python3 perfbench/run.py --workload {build,verify,spectra} --seed N \
        --seconds S --trace {0,1}

Run from the root of a qjordan checkout; the package is imported from
``src/``.  Each workload is a closed loop with one client: one user command
at a time, each in a fresh interpreter (worker.py), because every CLI call
starts with cold module caches.  A round runs every instance of the workload
once, in an order drawn from the seed, each instance preceded by a fixed
calibration program in its own interpreter.  After the untimed set-up the
first round always runs; another starts only if one as long as the last
would end within ``--seconds``.  Times are per-instance medians over rounds,
summed, and scaled by the host's speed during the run: reference
calibration time / median calibration time of the run.  With ``--trace 1``
untraced and traced rounds alternate and the per-layer metrics come from
the traced ones (spans.py).

Human-readable lines come first; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  An op is one
worker process; it fails when it crashes or when its output does not match
the reference recorded by record_reference.py.  See README.md for what each
metric means and which layer should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import cli_bytes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCE = HERE / "reference.json"
DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 5  # import-only processes per run, so setup_s has enough samples
# Seconds the calibration program (worker.calibrate) is scaled to.  Reported
# times are wall times multiplied by CALIBRATION_REF_S / the run's median
# calibration time, which cancels the host's speed drift on a shared VM.
CALIBRATION_REF_S = 0.2

# names of the checks verify_sjb can fail, for the tamper control
SJB_CHECKS = {
    "total-count", "chain-shape", "chain-counts", "monomial-coefficients",
    "singular-values", "chain-condition", "orthogonality",
}


def _construct(q, n):
    return ("construct_s", {"cmd": "construct", "q": q, "n": n})


def _verify(q, n):
    return ("verify_s", {"cmd": "verify", "q": q, "n": n})


def _decompose(n, q):
    return ("decompose_s", {"cmd": "decompose", "q": q, "n": n})


def _scheme(q, n, m):
    return ("scheme_s", {"cmd": "scheme", "q": q, "n": n, "m": m})


def _trees(q, n, m):
    return ("trees_s", {"cmd": "trees", "q": q, "n": n, "m": m})


# ``stored`` bases are built and checked before timing; ``control`` is the
# stored basis whose seeded tampered copy must fail verification.
PLANS = {
    "build": {"instances": [_construct(2, 5), _construct(3, 4), _construct(7, 3)]},
    "verify": {
        "stored": [(2, 4), (3, 4), (5, 3)],
        "control": (3, 4),
        "instances": [_verify(2, 4), _verify(3, 4), _verify(5, 3), _decompose(4, 2), _decompose(3, 3)],
    },
    "spectra": {
        "instances": [_scheme(3, 4, 2), _scheme(2, 4, 2), _trees(3, 4, 2), _trees(2, 4, 2)],
    },
}

# the same shapes at sizes that take a second; the benchmark's own tests use them
SMOKE_PLANS = {
    "build": {"instances": [_construct(2, 3), _construct(3, 2)]},
    "verify": {
        "stored": [(2, 3), (3, 2)],
        "control": (3, 2),
        "instances": [_verify(2, 3), _verify(3, 2), _decompose(2, 2)],
    },
    "spectra": {"instances": [_scheme(2, 4, 1), _trees(2, 4, 1)]},
}

COMMAND_METRICS = {
    "build": ("construct_s",),
    "verify": ("verify_s", "decompose_s"),
    "spectra": ("scheme_s", "trees_s"),
}

END_TO_END = (("setup_s", "s"), ("command_s", "s"), ("peak_rss_mb", "MB"))

# per-layer metrics of each wrapped entry point (spans.py): (field, unit, better)
_CALLS = ("calls", "count", "lower")
_SELF = ("self_s", "s", "lower")
PER_LAYER_FIELDS = {
    "kernels.rref_batch": (_CALLS, ("matrices", "count", "lower"), _SELF, ("bytes_computed", "bytes", "lower")),
    "kernels.rank_batch": (_CALLS, ("matrices", "count", "lower"), _SELF, ("bytes_computed", "bytes", "lower")),
    "gflinalg.subspaces_from_matrix_batch": (_CALLS, _SELF),
    "gflinalg.Subspace.from_matrix": (_CALLS, _SELF),
    "gflinalg.Subspace.to_json": (_CALLS, _SELF),
    "gflinalg.Subspace.from_json": (_CALLS, _SELF),
    "cyclotomic.CycInt.add": (_CALLS,),
    "cyclotomic.CycInt.mul": (_CALLS,),
    "cyclotomic.CycInt.conj": (_CALLS,),
    "cyclotomic.CycInt.from_root_counts": (_CALLS,),
    "lattice.inner": (_CALLS, _SELF),
    "lattice.up_apply": (_CALLS, _SELF),
    "lattice.covers_of": (_CALLS, _SELF, ("useful_ratio", "ratio", "higher")),
    "lattice.enumerate_rank": (_SELF,),
    "lattice.LatticeVector.add": (_CALLS,),
    "haction.theta": (_CALLS, _SELF),
    "haction.gamma": (_CALLS, _SELF),
    "haction.p_chi": (_CALLS, _SELF),
    "haction.orbit_table": (_CALLS, _SELF, ("useful_ratio", "ratio", "higher")),
    "haction.verify_decomposition": (_SELF,),
    "sjb.construct_sjb": (_SELF,),
    "sjb.verify_sjb": (_SELF,),
    "sjb.sjb_to_json": (_SELF,),
    "sjb.sjb_from_json": (_SELF,),
    "scheme.eigentable": (_SELF,),
    "scheme.adjacency_apply": (_CALLS, _SELF),
    "scheme.grassmann_graph": (_SELF,),
    "scheme.matrix_tree_oracle": (_SELF,),
    "scheme.bareiss_det": (_SELF,),
    "scheme.check_theorem_gg": (_SELF,),
}
# values the benchmark records itself, outside the wrapped entry points
RECORDED = {
    "cyclotomic.max_coeff_bits": ("max_coeff_bits", "bits", "lower", max),
    "lattice.basis_terms": ("basis_terms", "count", "lower", sum),
    "sjb.json_encode_s": ("json_encode_s", "s", "lower", sum),
    "sjb.json_decode_s": ("json_decode_s", "s", "lower", sum),
    "sjb.json_bytes": ("json_bytes", "bytes", "lower", sum),
}
PER_LAYER = tuple(
    [(f"{prefix}.{field}", unit, better)
     for prefix, fields in PER_LAYER_FIELDS.items()
     for field, unit, better in fields]
    + [(name, unit, better) for name, (_, unit, better, _) in RECORDED.items()]
    + [("trace.overhead_s", "s", "lower")]
)

# entry points each workload must reach; zero calls there fails the traced run
EXPECTED_CALLS = {
    "build": (
        "kernels.rref_batch", "gflinalg.subspaces_from_matrix_batch",
        "gflinalg.Subspace.to_json", "cyclotomic.CycInt.mul",
        "cyclotomic.CycInt.from_root_counts", "lattice.enumerate_rank",
        "lattice.LatticeVector.add", "haction.theta", "haction.gamma",
        "haction.p_chi", "haction.orbit_table", "sjb.construct_sjb", "sjb.sjb_to_json",
    ),
    "verify": (
        "kernels.rref_batch", "gflinalg.Subspace.from_matrix", "gflinalg.Subspace.from_json",
        "cyclotomic.CycInt.add", "cyclotomic.CycInt.mul", "cyclotomic.CycInt.conj",
        "lattice.inner", "lattice.up_apply", "lattice.covers_of",
        "haction.theta", "haction.gamma", "haction.p_chi", "haction.orbit_table",
        "haction.verify_decomposition", "sjb.sjb_from_json", "sjb.verify_sjb",
    ),
    "spectra": (
        "kernels.rank_batch", "cyclotomic.CycInt.add", "sjb.construct_sjb",
        "scheme.eigentable", "scheme.adjacency_apply", "scheme.grassmann_graph",
        "scheme.matrix_tree_oracle", "scheme.bareiss_det", "scheme.check_theorem_gg",
    ),
}


def q_int(k: int, q: int) -> int:
    return sum(q**i for i in range(k))


def basis_path(q: int, n: int) -> Path:
    return WORK / f"basis_q{q}_n{n}.json"


class Runner:
    """One benchmark run: worker processes, their checks and the op counts."""

    def __init__(self, reference: dict, deadline: float):
        self.reference = reference
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.calibration_s: list[float] = []
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        # numpy's idle BLAS pool spins at import; qjordan does no float BLAS
        # work, and the loop runs one thread at a time on a 2-core host
        self.env["OPENBLAS_NUM_THREADS"] = "1"

    def call(self, spec: dict) -> dict | None:
        """Run one worker; returns its result, or None if it crashed."""
        self.attempted += 1
        timeout = self.deadline - time.monotonic()
        error = None
        if timeout <= 0:
            error = "run deadline reached"
        else:
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                    capture_output=True, text=True, env=self.env, cwd=ROOT, timeout=timeout,
                )
            except subprocess.TimeoutExpired:
                error = f"timed out after {timeout:.0f} s"
            else:
                lines = proc.stdout.strip().splitlines()
                if proc.returncode == 0 and lines:
                    return json.loads(lines[-1])
                error = f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        self.fail(spec, error)
        return None

    def calibrate(self) -> None:
        """Time the calibration program once, in a fresh interpreter."""
        result = self.call({"cmd": "calibrate"})
        if result is not None:
            self.calibration_s.append(result["calibrate_s"])

    def scale(self) -> float:
        """Factor from this run's wall seconds to reference seconds."""
        if not self.calibration_s:
            return 1.0  # every calibration failed; the run is already not correct
        return CALIBRATION_REF_S / statistics.median(self.calibration_s)

    def fail(self, spec: dict, reason: str) -> None:
        self.failed += 1
        print(f"FAILED {json.dumps(spec)}: {reason}", file=sys.stderr)

    def checked(self, spec: dict, result: dict | None, problem) -> dict | None:
        """Count ``result`` as failed when ``problem(outputs)`` names one."""
        if result is None:
            return None
        reason = problem(result["outputs"])
        if reason:
            self.fail(spec, reason)
        return result

    def digest_problem(self, q: int, n: int, digest: str) -> str | None:
        expect = self.reference["digests"].get(f"{q},{n}")
        if digest != expect:
            return f"basis JSON sha256 {digest} != reference {expect}"
        return None

    def output_problem(self, spec: dict, out: dict) -> str | None:
        cmd, q, n = spec["cmd"], spec.get("q"), spec.get("n")
        if cmd == "import":
            return None
        if cmd == "construct":
            return self.digest_problem(q, n, out["digest"])
        if cmd in ("verify", "decompose"):
            return None if out["ok"] else f"report not ok: {out['failed_checks']}"
        m = spec["m"]
        if cmd == "trees":
            if out["oracle"] != out["formula"]:
                return f"matrix-tree oracle {out['oracle']} != formula {out['formula']}"
            return None if out["theorem_gg"] else "check_theorem_gg is false"
        expect = self.reference["eigentable"].get(f"{q},{n},{m}")
        if out["rows"] != expect:
            return f"eigentable rows {out['rows']} != reference {expect}"
        degree = q * q_int(m, q) * q_int(n - m, q)
        for (start, eigs), (lap, _) in zip(out["rows"], out["spectrum"]):
            if degree - eigs[1] != lap:
                return f"row {start}: degree {degree} - A_1 eigenvalue {eigs[1]} != Laplacian {lap}"
        return self.digest_problem(q, n, out["digest"])

    def run_instance(self, spec: dict, trace: bool) -> dict | None:
        spec = dict(spec, trace=trace)
        if spec["cmd"] == "verify":
            spec["path"] = str(basis_path(spec.pop("q"), spec.pop("n")))
        return self.checked(spec, self.call(spec), lambda out: self.output_problem(spec, out))


def prepare_stored(runner: Runner, plan: dict, rng: random.Random) -> list[dict]:
    """Build the stored bases and run the seeded tamper control, untimed."""
    results = []
    WORK.mkdir(parents=True, exist_ok=True)
    for q, n in plan.get("stored", ()):
        spec = {"cmd": "construct", "q": q, "n": n, "out": str(basis_path(q, n))}
        results.append(runner.checked(spec, runner.call(spec), lambda out, q=q, n=n: runner.digest_problem(q, n, out["digest"])))
    if "control" not in plan:
        return results
    q, n = plan["control"]
    source = basis_path(q, n)
    if not source.exists():
        runner.fail({"control": [q, n]}, "stored basis missing")
        return results
    obj = json.loads(source.read_text(encoding="utf-8"))
    where = tamper(obj, rng)
    path = WORK / f"tampered_q{q}_n{n}.json"
    path.write_bytes(cli_bytes(obj))
    spec = {"cmd": "verify", "path": str(path), "tampered": where}

    def problem(out):
        if out["ok"]:
            return f"tampered basis ({where}) verified ok"
        unnamed = set(out["failed_checks"]) - SJB_CHECKS
        return f"failure names unknown checks {sorted(unnamed)}" if unnamed else None

    results.append(runner.checked(spec, runner.call(spec), problem))
    return results


def tamper(obj: dict, rng: random.Random) -> str:
    """Add one to a seeded coefficient of the basis JSON, in place."""
    terms = [
        (ci, ui, ti)
        for ci, chain in enumerate(obj["chains"])
        for ui, vec in enumerate(chain["vectors"])
        for ti in range(len(vec["terms"]))
    ]
    ci, ui, ti = terms[rng.randrange(len(terms))]
    coeff = obj["chains"][ci]["vectors"][ui]["terms"][ti]["coeff"]
    if "m" in coeff:
        coeff["m"] += 1
    else:
        coeff["coeffs"][0] += 1
    return f"chain {ci}, vector {ui}, term {ti}"


def run_round(runner: Runner, plan: dict, rng: random.Random, trace: bool) -> list[tuple]:
    """Every instance once, in seeded order, each after a calibration:
    (metric, spec, result or None)."""
    order = list(plan["instances"])
    rng.shuffle(order)
    results = []
    for metric, spec in order:
        runner.calibrate()
        results.append((metric, spec, runner.run_instance(spec, trace)))
    return results


def command_times(rounds: list, scale: float) -> dict[str, float]:
    """Each instance's median command time over rounds, times ``scale``,
    summed per metric and over all instances (``command_s``)."""
    times: dict[str, tuple[str, list[float]]] = {}
    for results in rounds:
        for metric, spec, result in results:
            if result is not None:
                times.setdefault(json.dumps(spec, sort_keys=True), (metric, []))[1].append(result["command_s"])
    sums = {"command_s": 0.0}
    for metric, values in times.values():
        value = statistics.median(values) * scale
        sums[metric] = sums.get(metric, 0.0) + value
        sums["command_s"] += value
    return sums


def layer_metrics(workload: str, traced_rounds: list, overhead_s: float, runner: Runner) -> dict:
    """Per-layer metrics: medians over traced rounds of per-round sums."""
    per_round = []
    for results in traced_rounds:
        stats: dict[str, dict] = {}
        recorded: dict[str, list] = {}
        for _, _, result in results:
            if result is None:
                continue
            for name, s in result["layers"].items():
                acc = stats.setdefault(name, dict.fromkeys(s, 0))
                for field, value in s.items():
                    acc[field] = value if field == "bindings" else acc[field] + value
            for key, value in result["recorded"].items():
                recorded.setdefault(key, []).append(value)
        values = {}
        for prefix, fields in PER_LAYER_FIELDS.items():
            s = stats.get(prefix, {})
            for field, _, _ in fields:
                if field == "useful_ratio":
                    values[f"{prefix}.{field}"] = s.get("useful", 0) / s["reduced"] if s.get("reduced") else 0.0
                else:
                    values[f"{prefix}.{field}"] = s.get({"bytes_computed": "bytes"}.get(field, field), 0)
        for name, (key, _, _, combine) in RECORDED.items():
            values[name] = combine(recorded[key]) if key in recorded else 0
        for prefix, s in stats.items():
            if s["bindings"] == 0:
                runner.fail({"trace": workload}, f"entry point {prefix} not found in qjordan")
        for prefix in EXPECTED_CALLS[workload]:
            if not stats.get(prefix, {}).get("calls"):
                runner.fail({"trace": workload}, f"{prefix} recorded no calls")
        per_round.append(values)
    metrics = {}
    units = {name: unit for name, unit, _ in PER_LAYER}
    for name, unit, _ in PER_LAYER[:-1]:
        metrics[name] = {"value": statistics.median(r[name] for r in per_round), "unit": unit}
    metrics["trace.overhead_s"] = {"value": overhead_s, "unit": units["trace.overhead_s"]}
    return metrics


def machine_facts(backend: str | None) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown (git unavailable)"
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    kernel = {
        "numba": "numba-compiled loops",
        "numpy": "interpreted Python loops over numpy arrays",
    }.get(backend, "unknown (no worker finished)")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "active_backend": backend,
        "kernel": kernel,
        "commit": commit,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 plans: dict = PLANS, reference: dict | None = None, out=sys.stdout) -> dict:
    """Run one workload and return the result object (also printed last to ``out``)."""
    start = time.monotonic()
    if reference is None:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    plan = plans[workload]
    runner = Runner(reference, start + DEADLINE_S)
    rng = random.Random(seed)
    prepared = [runner.call({"cmd": "import"}) for _ in range(SETUP_PROBES)]
    prepared += prepare_stored(runner, plan, rng)
    plain, traced = [], []
    measure_start = now = time.monotonic()
    while True:
        round_start = now
        plain.append(run_round(runner, plan, rng, trace=False))
        if trace:
            traced.append(run_round(runner, plan, rng, trace=True))
        now = time.monotonic()
        # start another round only if one as long as the last ends in time
        if now + (now - round_start) > min(measure_start + seconds, runner.deadline):
            break
    processes = [r for r in prepared if r is not None]
    processes += [r for rounds in (plain, traced) for results in rounds for _, _, r in results if r is not None]
    timed = [r for results in plain for _, _, r in results if r is not None]
    scale = runner.scale()
    sums = command_times(plain, scale)
    wall = command_times(plain, 1.0)
    import_s = statistics.median(r["import_s"] for r in processes) if processes else 0.0
    print("facts " + json.dumps(machine_facts(processes[0]["backend"] if processes else None)), file=out)
    print(f"rounds {len(plain)} untraced, {len(traced)} traced; {runner.attempted} ops", file=out)
    print(f"calibration median {CALIBRATION_REF_S / scale:.4f} s over {len(runner.calibration_s)} "
          f"(reference {CALIBRATION_REF_S} s, scale {scale:.4f}); "
          f"wall command_s {wall['command_s']:.4f} s, wall setup_s {import_s:.4f} s", file=out)

    if trace:
        overhead = command_times(traced, scale)["command_s"] - sums["command_s"]
        metrics = layer_metrics(workload, traced, overhead, runner)
    else:
        metrics = {
            "setup_s": {"value": import_s * scale, "unit": "s"},
            "command_s": {"value": sums["command_s"], "unit": "s"},
            "peak_rss_mb": {"value": max((r["rss_mb"] for r in timed), default=0.0), "unit": "MB"},
        }
        for name in COMMAND_METRICS[workload]:
            print(f"metric {name} {sums.get(name, float('nan')):.4f} s", file=out)
    for name, m in metrics.items():
        print(f"metric {name} {m['value']} {m['unit']}", file=out)
    print(f"metric failed_ops {runner.failed / runner.attempted:.4f} ratio ({runner.failed}/{runner.attempted})", file=out)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), file=out)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qjordan" / "__init__.py").is_file():
        print(f"error: no qjordan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
