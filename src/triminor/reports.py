"""Line-delimited verification records.

One self-contained record per line.  Records are written as the checks
make them, so a long-running sweep streams its results and an interrupted
one keeps what it has written.  Field order is fixed: check, input,
verdict, witness, millis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Iterable


@dataclass(frozen=True)
class ReportLine:
    check: str
    input: str
    verdict: str  # "pass" | "fail" | "witness"
    witness: object = None
    millis: int = 0

    def __post_init__(self):
        if self.verdict not in ("pass", "fail", "witness"):
            raise ValueError(f"bad verdict {self.verdict!r}")
        if self.verdict == "fail" and self.witness is None:
            raise ValueError("fail verdicts must carry a witness payload")

    def to_json(self, timing: bool = False) -> str:
        return json.dumps(
            {
                "check": self.check,
                "input": self.input,
                "verdict": self.verdict,
                "witness": self.witness,
                "millis": self.millis if timing else 0,
            }
        )


def emit_report(lines: Iterable[ReportLine], stream: IO[str], timing: bool = False) -> int:
    """Write and flush each record as it arrives, through a single writer,
    so a reader sees it at once and a run killed later keeps it; returns
    the number of failed records."""
    failed = 0
    for line in lines:
        stream.write(line.to_json(timing=timing) + "\n")
        stream.flush()
        failed += line.verdict == "fail"
    return failed

