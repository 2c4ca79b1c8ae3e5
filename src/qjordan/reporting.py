"""Small pass/fail report structure shared by the verification entry points."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    """Outcome of a single named check: it passes exactly when ``detail``,
    which names the offending object (chain, rank, subspace, ...), is
    empty."""

    name: str
    detail: str = ""

    def __post_init__(self):
        # a bool detail, as in Check(name, ok), would make False a pass
        if not isinstance(self.detail, str):
            raise TypeError(f"Check detail must be a str, got {type(self.detail).__name__}")

    @property
    def passed(self) -> bool:
        return not self.detail

    def to_json(self) -> dict:
        out: dict = {"name": self.name, "passed": self.passed}
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass(frozen=True)
class Report:
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def to_json(self) -> dict:
        return {"ok": self.ok, "checks": [c.to_json() for c in self.checks]}

    def summary(self) -> str:
        n_fail = len(self.failures())
        if n_fail == 0:
            return f"all {len(self.checks)} checks passed"
        lines = [f"{n_fail} of {len(self.checks)} checks FAILED:"]
        lines += [f"  {c.name}: {c.detail}" for c in self.failures()]
        return "\n".join(lines)
