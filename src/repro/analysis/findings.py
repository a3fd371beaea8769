"""The findings model shared by ``reprolint`` and ``fsck``.

Both tools report *findings* — typed, coded observations — instead of
raising on the first problem, so one run surfaces everything wrong and
callers (CLI, CI gates, tests) decide how to react. A finding carries a
stable code (``REP017``/``FSCK004``), a severity, a human message and a
location string (``path.py:12:3`` for lint, ``field 'country' chunk 7``
for fsck).
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field


def finding_fingerprint(
    code: str, rel_path: str, symbol: str, occurrence: int
) -> str:
    """A stable, line-independent identity for one finding.

    Hashes (rule code, package-relative path, qualified symbol,
    occurrence index within that triple). Moving a function inside a
    file — or the code above it growing — does not change the
    fingerprint, so CI can diff JSON runs across commits; renaming the
    symbol or adding a second same-rule finding inside it does.
    """
    payload = f"{code}\x00{rel_path}\x00{symbol}\x00{occurrence}"
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:12]


class Severity(enum.IntEnum):
    """Ordered severity levels; comparisons follow the int order."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Finding:
    """One coded observation from a lint or fsck run."""

    code: str
    severity: Severity
    message: str
    where: str = ""
    symbol: str = ""
    fingerprint: str = ""

    def render(self) -> str:
        location = f"{self.where}: " if self.where else ""
        return f"{location}{self.code} [{self.severity}] {self.message}"

    def to_dict(self) -> dict:
        payload = {
            "code": self.code,
            "severity": str(self.severity),
            "message": self.message,
            "where": self.where,
        }
        if self.symbol:
            payload["symbol"] = self.symbol
        if self.fingerprint:
            payload["fingerprint"] = self.fingerprint
        return payload


@dataclass
class FindingsReport:
    """An ordered collection of findings plus run metadata."""

    tool: str
    findings: list[Finding] = field(default_factory=list)
    items_checked: int = 0
    suppressed: int = 0

    def add(
        self,
        code: str,
        severity: Severity,
        message: str,
        where: str = "",
        symbol: str = "",
        fingerprint: str = "",
    ) -> Finding:
        finding = Finding(code, severity, message, where, symbol, fingerprint)
        self.findings.append(finding)
        return finding

    def extend(self, findings: list[Finding]) -> None:
        self.findings.extend(findings)

    def __len__(self) -> int:
        return len(self.findings)

    def __iter__(self):
        return iter(self.findings)

    @property
    def ok(self) -> bool:
        """Whether the run is clean (no findings at any severity)."""
        return not self.findings

    def codes(self) -> set[str]:
        return {f.code for f in self.findings}

    def counts_by_severity(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            key = str(finding.severity)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def summary(self) -> str:
        if self.ok:
            return (
                f"{self.tool}: clean — {self.items_checked} item(s) checked"
                + (f", {self.suppressed} suppressed" if self.suppressed else "")
            )
        counts = self.counts_by_severity()
        parts = ", ".join(f"{n} {sev}" for sev, n in sorted(counts.items()))
        return (
            f"{self.tool}: {len(self.findings)} finding(s) ({parts}) over "
            f"{self.items_checked} item(s)"
            + (f", {self.suppressed} suppressed" if self.suppressed else "")
        )

    def to_text(self) -> str:
        lines = [finding.render() for finding in self.findings]
        lines.append(self.summary())
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "tool": self.tool,
                "ok": self.ok,
                "items_checked": self.items_checked,
                "suppressed": self.suppressed,
                "findings": [finding.to_dict() for finding in self.findings],
            },
            indent=2,
            sort_keys=True,
        )
