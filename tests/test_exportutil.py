"""The one atomic JSON writer and the one JSON-object loader.

Goldens, perf baselines, BENCH records and result-cache entries all go
through :func:`repro.exportutil.write_json`; these tests pin the bytes each
caller writes, so a committed golden re-blessed by this code diffs clean.
"""

import json

import pytest

from repro.exec.cache import ResultCache
from repro.exec.perf import write_bench
from repro.exportutil import GoldenError, read_json_object, write_json
from repro.parity import write_golden
from repro.system.config import baseline_config
from tests.test_exec_cache import _result

PAYLOAD = {"schema": 1, "metrics": {"b": {"value": 1.5}, "a": [1, None]}}

#: Indented, sorted keys, one trailing newline: the committed-file format.
INDENTED = ('{\n  "metrics": {\n    "a": [\n      1,\n      null\n    ],\n'
            '    "b": {\n      "value": 1.5\n    }\n  },\n  "schema": 1\n}\n')


class TestWriterBytes:
    def test_golden_is_indented_with_newline(self, tmp_path):
        out = write_golden(PAYLOAD, tmp_path / "deep" / "parity.json")
        assert out.read_text(encoding="utf-8") == INDENTED

    def test_bench_record_is_indented_with_newline(self, tmp_path):
        out = write_bench(PAYLOAD, tmp_path / "BENCH_sweep.json")
        assert out.read_text(encoding="utf-8") == INDENTED

    def test_cache_entry_is_compact_without_newline(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cache.put(baseline_config(), "mcf", 100, 1, _result())
        (entry,) = (tmp_path / "results").glob("*/*.json")
        raw = entry.read_text(encoding="utf-8")
        # json.dump(payload, fh, sort_keys=True): default separators, no
        # indent, no trailing newline.
        assert raw == json.dumps(json.loads(raw), sort_keys=True)
        assert "\n" not in raw and '", "' in raw
        assert cache.get(baseline_config(), "mcf", 100, 1) == _result()

    def test_no_tempfile_left_behind(self, tmp_path):
        write_json(tmp_path / "x.json", PAYLOAD, indent=2)
        assert [p.name for p in tmp_path.iterdir()] == ["x.json"]

    def test_failed_write_keeps_old_file(self, tmp_path):
        out = write_json(tmp_path / "x.json", PAYLOAD)
        with pytest.raises(TypeError):
            write_json(out, {"bad": object()})
        assert json.loads(out.read_text()) == PAYLOAD
        assert [p.name for p in tmp_path.iterdir()] == ["x.json"]


def test_loader_error_carries_the_callers_hint(tmp_path):
    with pytest.raises(GoldenError,
                       match=r"^golden file .*none\.json not found; hint$"):
        read_json_object(tmp_path / "none.json", "golden file", "; hint")
