"""Seed corpus: shrunk reproducers committed as permanent regression tests.

Each entry is one file under the corpus directory (``tests/corpus/`` in
the repo), holding a single compact JSON object::

    {"case": {...}, "oracle": "diff_kernel", "note": "why this exists"}

The case is a :class:`~repro.exec.spec.TaskSpec` written as exactly its
five job fields (``base``, ``overrides``, ``workload``, ``ops``,
``seed``). The corpus owns that format, apart from ``TaskSpec.to_dict``'s
wire form, because an auto-saved entry's name is a digest of it.

Entries record cases that *failed* when a bug existed; once the bug is
fixed they must pass forever, replayed two ways:

- ``repro fuzz replay`` (and the nightly CI job) runs every entry through
  its oracle and fails on any regression;
- ``tests/test_corpus_replay.py`` parametrizes pytest over the same files,
  so the corpus is part of the ordinary tier-1 gate.

New failures found by ``repro fuzz run`` are shrunk and written here with
a content-derived name, ready to ``git add``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, Optional

from repro.exec.spec import SpecError, TaskSpec
from repro.fuzz.oracles import check_oracle, run_oracle


def default_corpus_dir() -> Path:
    """``tests/corpus`` relative to the repo root (assumes src layout)."""
    return Path(__file__).resolve().parents[3] / "tests" / "corpus"


def case_dict(case: TaskSpec) -> Dict[str, Any]:
    """A fuzz case in the corpus format: exactly its five job fields."""
    return {"base": case.base, "overrides": dict(case.overrides),
            "workload": case.workload, "ops": case.ops, "seed": case.seed}


def parse_case(payload: Any) -> TaskSpec:
    """A validated fuzz case from its corpus JSON object; a case needs an
    op count."""
    case = TaskSpec.from_dict(payload)
    if case.ops is None:
        raise SpecError("'ops': a fuzz case needs an op count")
    case.build_job()
    return case


def _compact(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class CorpusEntry:
    """One committed reproducer."""

    name: str
    case: TaskSpec
    oracle: str
    note: str = ""

    def to_json(self) -> str:
        return _compact({"case": case_dict(self.case), "oracle": self.oracle,
                         "note": self.note})


def entry_name(case: TaskSpec, oracle: str) -> str:
    """Stable content-derived filename stem for a reproducer."""
    digest = hashlib.sha256(
        (oracle + "|" + _compact(case_dict(case))).encode()).hexdigest()[:10]
    return f"{oracle}-{digest}"


def save_entry(case: TaskSpec, oracle: str, note: str = "",
               corpus_dir: Optional[Path] = None,
               name: Optional[str] = None) -> Path:
    """Write one reproducer; returns its path (parent dirs are created)."""
    root = Path(corpus_dir) if corpus_dir else default_corpus_dir()
    root.mkdir(parents=True, exist_ok=True)
    stem = name or entry_name(case, oracle)
    path = root / f"{stem}.json"
    entry = CorpusEntry(name=stem, case=case, oracle=oracle, note=note)
    path.write_text(entry.to_json() + "\n", encoding="utf-8")
    return path


def load_entry(path: Path) -> CorpusEntry:
    """Parse one corpus file (raises ``ValueError`` on a malformed entry)."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        return CorpusEntry(
            name=Path(path).stem,
            case=parse_case(payload["case"]),
            oracle=check_oracle(payload["oracle"]),
            note=payload.get("note", ""),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"malformed corpus entry {path}: {e}") from None


def load_corpus(corpus_dir: Optional[Path] = None) -> Iterator[CorpusEntry]:
    """Yield every entry in the corpus directory, sorted by filename."""
    root = Path(corpus_dir) if corpus_dir else default_corpus_dir()
    if not root.is_dir():
        return
    for path in sorted(root.glob("*.json")):
        yield load_entry(path)


def replay_entry(entry: CorpusEntry) -> Optional[str]:
    """Run an entry through its oracle; ``None`` = still fixed."""
    return run_oracle(entry.oracle, entry.case)
