"""Replay every committed seed-corpus reproducer as an ordinary test.

Each file under ``tests/corpus/`` records a fuzz case that failed when a
bug existed; on a healthy tree its oracle must pass. A failure here means
the corresponding bug regressed — the entry's ``note`` says which.
"""

import re
from pathlib import Path

import pytest

from repro.exec.spec import TaskSpec
from repro.fuzz.corpus import (
    entry_name, load_corpus, load_entry, replay_entry, save_entry,
)

CORPUS_DIR = Path(__file__).parent / "corpus"

ENTRIES = sorted(CORPUS_DIR.glob("*.json"))

#: Entries ``repro fuzz run`` saved under a content-derived name.
AUTO_NAMED = [p for p in ENTRIES
              if re.fullmatch(r"[a-z_]+-[0-9a-f]{10}", p.stem)]


def test_corpus_is_not_empty():
    assert ENTRIES, "tests/corpus/ must hold the committed regression seeds"


@pytest.mark.slow
@pytest.mark.parametrize("path", ENTRIES, ids=lambda p: p.stem)
def test_corpus_entry_replays_clean(path):
    entry = load_entry(path)
    detail = replay_entry(entry)
    assert detail is None, (
        f"corpus regression {entry.name} [{entry.oracle}] failed again: "
        f"{detail}\n  case: {entry.case.label()}\n  note: {entry.note}")


def test_corpus_entries_are_single_line_json():
    # The acceptance bar for shrunk reproducers: at most 5 lines each
    # (ours are one compact JSON line plus the trailing newline).
    for path in ENTRIES:
        text = path.read_text()
        assert len(text.strip().splitlines()) <= 5, f"{path} is not compact"


def test_loader_matches_glob():
    loaded = {e.name for e in load_corpus(CORPUS_DIR)}
    assert loaded == {p.stem for p in ENTRIES}


def test_auto_named_entries_reproduce_their_names():
    # The corpus format guard: an auto-named entry's stem is a digest of
    # its case in the corpus format, so any drift in that format renames
    # (and silently duplicates) every reproducer.
    assert AUTO_NAMED, "expected the auto-shrunk reproducers in tests/corpus"
    for path in AUTO_NAMED:
        entry = load_entry(path)
        assert entry_name(entry.case, entry.oracle) == path.stem, path


def test_spec_with_overrides_round_trips(tmp_path):
    case = TaskSpec(base="coaxial-4x", workload="gcc", ops=300, seed=5,
                    overrides={"tiering": "epoch", "cxl": "asym",
                               "n_cores": 4})
    path = save_entry(case, "invariant", note="round trip",
                      corpus_dir=tmp_path)
    assert path.stem == entry_name(case, "invariant")
    entry = load_entry(path)
    assert (entry.case, entry.oracle, entry.note) == (case, "invariant",
                                                      "round trip")
