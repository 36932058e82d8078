"""Struct-of-arrays helpers behind the fast trace setup and warmup.

Everything here turns per-element Python attribute/arithmetic churn into
flat column operations: whole trace columns are lowered to plain Python
lists in one vectorized pass, and derived columns (line addresses,
instruction numbers) are computed with array ops instead of per-op
interpreter work.

numpy is optional. Every helper has a pure-Python fallback producing
bit-identical values, so the package imports — and both dispatch loops
run — without numpy; the fallback only costs speed. ``HAVE_NUMPY``
reports which path is active (surfaced in docs/performance.md).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only on numpy-free installs
    _np = None

#: True when the vectorized (numpy) implementations are active.
HAVE_NUMPY = _np is not None


def warmup_columns(arr) -> Tuple[List[int], List[bool]]:
    """Lower a trace's access stream to (line-address, is-write) columns.

    The fast functional-warmup replay consumes line addresses (``addr >>
    6``) and boolean write flags; computing both columns in one vectorized
    pass and converting to plain lists once is markedly cheaper than
    shifting/boolifying per op inside the replay loop.
    """
    if _np is not None and isinstance(arr, _np.ndarray):
        lines = (arr["addr"] >> _np.uint64(6)).tolist()
        writes = (arr["is_write"] != 0).tolist()
        return lines, writes
    return ([int(a) >> 6 for a in arr["addr"]],
            [bool(w) for w in arr["is_write"]])


def cumulative_instr_no(gaps: Sequence[int]) -> List[int]:
    """Instruction number of each memory op given per-op non-memory gaps.

    Op ``i`` is instruction ``sum(gaps[:i+1]) + i`` — the running total of
    skipped instructions plus the memory ops themselves. Exact integer
    math either way; the vectorized path is one cumsum.
    """
    if _np is not None and isinstance(gaps, _np.ndarray):
        return (_np.cumsum(gaps.astype(_np.int64) + 1) - 1).tolist()
    out = []
    run = 0
    for g in gaps:
        run += int(g) + 1
        out.append(run - 1)
    return out
