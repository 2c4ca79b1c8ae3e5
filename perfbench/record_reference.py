"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py

Run from the root of a checkout whose outputs are known good.  For every
basis the benchmark builds (full and smoke plans) it records the SHA-256 of
the basis JSON in the CLI byte format, and for every scheme instance the
eigentable rows.  Later commits must reproduce them exactly.
"""

from __future__ import annotations

import json
import time

import run


def main() -> None:
    runner = run.Runner({"digests": {}, "eigentable": {}}, time.monotonic() + 3600)
    bases, schemes = set(), set()
    for plans in (run.PLANS, run.SMOKE_PLANS):
        for plan in plans.values():
            bases.update(plan.get("stored", ()))
            for _, spec in plan["instances"]:
                if spec["cmd"] in ("construct", "verify", "scheme"):
                    bases.add((spec["q"], spec["n"]))
                if spec["cmd"] == "scheme":
                    schemes.add((spec["q"], spec["n"], spec["m"]))
    reference = {"digests": {}, "eigentable": {}}
    for q, n in sorted(bases):
        out = runner.call({"cmd": "construct", "q": q, "n": n})["outputs"]
        reference["digests"][f"{q},{n}"] = out["digest"]
    for q, n, m in sorted(schemes):
        out = runner.call({"cmd": "scheme", "q": q, "n": n, "m": m})["outputs"]
        reference["eigentable"][f"{q},{n},{m}"] = out["rows"]
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
