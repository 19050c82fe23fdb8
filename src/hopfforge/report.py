"""Structured pass/fail reports shared by every checker.

A Report is a list of named checks plus a dict of derived values.  A check
is 'pass', 'fail', or 'info' -- info lines (e.g. cocommutativity) never
affect ``ok``.  Witnesses pin down the first basis vector on which the two
sides of a law disagree, in (row, column, lhs, rhs) form.
``Report.require`` turns the first failure of a law that a construction
needs into the caller's exception, with its witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .linalg import LinMap, scalar_text


@dataclass
class Check:
    name: str
    status: str                      # "pass" | "fail" | "info"
    witness: dict | None = None
    detail: str | None = None

    def to_dict(self) -> dict:
        d = {"name": self.name, "status": self.status}
        if self.witness is not None:
            d["witness"] = self.witness
        if self.detail is not None:
            d["detail"] = self.detail
        return d


def _jsonable(x):
    if isinstance(x, bool) or isinstance(x, (int, str)) or x is None:
        return x
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    return str(x)


@dataclass
class Report:
    title: str
    checks: list = field(default_factory=list)
    derived: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def failed(self) -> list:
        return [c for c in self.checks if c.status == "fail"]

    def add(self, name: str, passed: bool, witness: dict | None = None,
            detail: str | None = None) -> bool:
        self.checks.append(Check(name, "pass" if passed else "fail",
                                 None if passed else witness, detail))
        return passed

    def info(self, name: str, detail: str):
        self.checks.append(Check(name, "info", None, detail))

    def equality(self, name: str, lhs: LinMap, rhs: LinMap) -> bool:
        """Record lhs == rhs, with a first-difference witness on failure."""
        diff = lhs.first_difference(rhs)
        return self.add(name, diff is None, diff and _diff_witness(lhs, diff))

    def verdict(self, name: str, holds: bool, witness: dict | None) -> bool:
        """Record whether a law holds as an info line ("holds"/"fails")
        that does not affect ok; the witness, if any, is kept."""
        self.checks.append(Check(name, "info", witness,
                                 "holds" if holds else "fails"))
        return holds

    def equality_info(self, name: str, lhs: LinMap, rhs: LinMap) -> bool:
        """Like equality, but the verdict is recorded without affecting ok.

        Used for squares that are known not to commute in general; the
        witness still lands in the check so callers can inspect it.
        """
        diff = lhs.first_difference(rhs)
        return self.verdict(name, diff is None,
                            None if diff is None else _diff_witness(lhs, diff))

    def require(self, error: type):
        """Raise ``error`` naming the title, the first failed check and its
        witness; do nothing when every check passed."""
        if not self.ok:
            c = self.failed()[0]
            where = f" at {_render_witness(c.witness)}" if c.witness else ""
            raise error(f"{self.title}: {c.name} fails{where}")

    def extend(self, other: "Report", prefix: str = ""):
        for c in other.checks:
            self.checks.append(
                Check(prefix + c.name, c.status, c.witness, c.detail)
                if prefix else c)
        for k, v in other.derived.items():
            self.derived[prefix + k] = v
        return self

    def to_dict(self, version: str) -> dict:
        return {
            "version": version,
            "command": self.title,
            "ok": self.ok,
            "checks": [c.to_dict() for c in self.checks],
            "derived": _jsonable(self.derived),
        }

    def format_text(self) -> str:
        lines = [f"== {self.title} =="]
        for c in self.checks:
            if c.status == "info":
                line = f"INFO {c.name}: {c.detail}"
            else:
                mark = "PASS" if c.status == "pass" else "FAIL"
                line = f"{mark} {c.name}"
                if c.detail:
                    line += f" ({c.detail})"
            if c.witness:
                line += " @ " + _render_witness(c.witness)
            lines.append(line)
        for k in self.derived:
            lines.append(f"  {k} = {_render_derived(self.derived[k])}")
        n_fail = len(self.failed())
        lines.append("all checks passed" if n_fail == 0
                     else f"{n_fail} check(s) FAILED")
        return "\n".join(lines)


def _diff_witness(lhs: LinMap, diff) -> dict:
    i, j, va, vb = diff
    return {
        "row": lhs.cod.label(i), "col": lhs.dom.label(j),
        "row_index": i, "col_index": j,
        "lhs": scalar_text(va), "rhs": scalar_text(vb),
    }


def _render_witness(w: dict) -> str:
    if {"row", "col", "lhs", "rhs"} <= w.keys():
        return (f"row {w['row']!r}, col {w['col']!r}: "
                f"{w['lhs']} != {w['rhs']}")
    return ", ".join(f"{k}={_render_derived(v)}" for k, v in w.items())


def _render_derived(v) -> str:
    v = _jsonable(v)
    return repr(v) if not isinstance(v, str) else v
