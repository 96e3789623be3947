"""Correctness gate: a report's digest outside its timing block.

A report is reduced to its canonical form (``timing`` dropped, every ``path``
field cut to its file name) and hashed.  For the default and held-out seeds the
hashes are compared with the digests frozen in ``digests.json``; for every seed
a command must exit 0 with an empty ``violations`` list, and every pass must
reproduce the hashes of the first.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DIGESTS = Path(__file__).with_name("digests.json")


def _normalize(obj):
    if isinstance(obj, dict):
        return {
            k: Path(v).name if k == "path" and isinstance(v, str) else _normalize(v)
            for k, v in obj.items()
        }
    if isinstance(obj, list):
        return [_normalize(v) for v in obj]
    return obj


def canonical(report: dict) -> dict:
    """The report without ``timing`` and with file names in place of paths."""
    return _normalize({k: v for k, v in report.items() if k != "timing"})


def digest(report: dict) -> str:
    text = json.dumps(canonical(report), sort_keys=True, indent=2)
    return hashlib.sha256(text.encode()).hexdigest()


def problems(code: int, report: dict | None) -> list[str]:
    """Why a command failed the gate that holds for every seed; empty when it passed."""
    out = []
    if code != 0:
        out.append(f"exit code {code}")
    if report is None:
        out.append("no report")
    elif report.get("violations"):
        out.append(f"violations: {report['violations']}")
    return out


def load_frozen(workload: str, seed: int) -> dict[str, str] | None:
    """Frozen digests by command label, or None when this seed has none."""
    data = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    return data.get(workload, {}).get(str(seed))


def freeze(workload: str, seed: int, digests: dict[str, str]) -> None:
    data = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    data.setdefault(workload, {})[str(seed)] = digests
    DIGESTS.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")
