"""Golden SHA-256 digests of the CLI's user-visible outputs.

`goldens.json` beside this file holds one digest per emitted artifact and
one for the `--suite all --json` report.  The report is reduced to its
(id, passed, detail) triples plus the passed/total count before hashing,
so an added per-check field (a planned `witness`) keeps the golden valid
while any change of verdict or detail breaks it.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

KINDS = ("structure-equations", "constraints", "bases", "killing-matrix")
EMITS = tuple((kind, fmt) for kind in KINDS for fmt in ("latex", "json"))


@functools.cache
def goldens() -> dict:
    return json.loads(Path(__file__).with_name("goldens.json").read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def suite_digest(report: dict) -> str:
    counts = report["counts"]
    reduced = {
        "checks": [[c["id"], c["passed"], c["detail"]] for c in report["checks"]],
        "passed": counts["total"] - counts["failed"],
        "total": counts["total"],
    }
    return sha256(json.dumps(reduced, sort_keys=True))


def suite_ok(report: dict) -> bool:
    return suite_digest(report) == goldens()["suite-all"]


def emit_ok(kind: str, fmt: str, text: str) -> bool:
    return sha256(text) == goldens()["emit"][f"{kind}.{fmt}"]
