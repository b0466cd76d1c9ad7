"""Structured records of inequality/recovery checks and their serialization.

Every CSV and JSON file the CLI writes goes through write_csv and
write_json.  CSV output uses a stable column order and 17-significant-digit
'.' decimals, JSON sorted keys, so that golden files are byte-stable across
runs with the same config/seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = ["InequalityReport", "CSV_COLUMNS", "format_float", "write_csv",
           "write_json"]

CSV_COLUMNS = ["case", "d", "m", "h", "grid", "lhs", "rhs", "slack",
               "equality", "coverage"]


def format_float(x: float) -> str:
    return format(float(x), ".17g")


@dataclass
class InequalityReport:
    case: str
    d: int
    m: int
    h: float
    grid: str
    lhs: float
    rhs_terms: dict = field(default_factory=dict)  # named RHS contributions
    middle: float | None = None  # deviation + norm*seminorm chain link
    tol: float = 1e-6
    coverage: float = 1.0
    truncated: bool = False
    argmax: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    @property
    def rhs(self) -> float:
        return float(sum(self.rhs_terms.values()))

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def equality(self) -> bool:
        return abs(self.slack) <= self.tol

    @property
    def holds(self) -> bool:
        return self.slack >= -self.tol

    def chain_ordered(self) -> bool:
        """LHS <= middle <= RHS within tolerance (when a middle link exists)."""
        if self.middle is None:
            return True
        return (
            self.lhs <= self.middle + self.tol
            and self.middle <= self.rhs + self.tol
        )

    def validate(self):
        vals = [self.lhs, self.rhs, self.slack, *self.rhs_terms.values()]
        if self.middle is not None:
            vals.append(self.middle)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError(f"non-finite report values in case {self.case}")

    def csv_row(self) -> list[str]:
        return [
            self.case,
            str(self.d),
            str(self.m),
            format_float(self.h),
            self.grid,
            format_float(self.lhs),
            format_float(self.rhs),
            format_float(self.slack),
            "1" if self.equality else "0",
            format_float(self.coverage),
        ]

    def to_dict(self) -> dict:
        out = {
            "case": self.case,
            "d": self.d,
            "m": self.m,
            "h": self.h,
            "grid": self.grid,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "rhs_terms": dict(self.rhs_terms),
            "middle": self.middle,
            "slack": self.slack,
            "equality": self.equality,
            "tol": self.tol,
            "coverage": self.coverage,
            "truncated": self.truncated,
            "argmax": {k: list(np.atleast_1d(v).astype(float))
                       for k, v in self.argmax.items()},
        }
        out.update(self.extras)
        return out


def _csv_cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format_float(v)


def write_csv(path, header, rows) -> None:
    """A header line, then one line per row: strings as they are, integers
    in decimal, other numbers through format_float."""
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path, payload) -> None:
    """payload as JSON with sorted keys, indent 2 and a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
