"""Unit tests for trace serialization."""

import pytest

from repro.workloads.trace_io import load_trace, save_trace
from repro.workloads.distributions import UniformLoad
from repro.workloads.sequences import generate_sequence
from repro.errors import ConfigurationError


@pytest.fixture
def sequence():
    return generate_sequence(UniformLoad(0.5), 40, seed=3)


class TestTraceRoundtrip:
    def test_roundtrip_preserves_sequence(self, sequence, tmp_path):
        path = tmp_path / "trace.json"
        save_trace(sequence, path)
        loaded = load_trace(path)
        assert loaded.loads == sequence.loads
        assert [t.tenant_id for t in loaded] == \
            [t.tenant_id for t in sequence]
        assert loaded.seed == sequence.seed
        assert loaded.description == sequence.description

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(ConfigurationError):
            load_trace(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "repro-trace", "version": 99}')
        with pytest.raises(ConfigurationError):
            load_trace(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json at all {")
        with pytest.raises(ConfigurationError):
            load_trace(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_trace(tmp_path / "nope.json")


class TestDuplicateTenantIds:
    """A duplicated tenant id would let every id-keyed consumer silently
    pick one of the conflicting loads; the trace loader must refuse."""

    def _write_trace(self, path, entries):
        import json
        path.write_text(json.dumps({
            "format": "repro-trace", "version": 1,
            "description": "", "seed": 0,
            "tenants": entries}))

    def test_load_trace_rejects_duplicate_ids(self, tmp_path):
        path = tmp_path / "dup.json"
        self._write_trace(path, [{"id": 0, "load": 0.2},
                                 {"id": 1, "load": 0.3},
                                 {"id": 0, "load": 0.4}])
        with pytest.raises(ConfigurationError, match="duplicate"):
            load_trace(path)

    def test_load_trace_error_names_offending_ids(self, tmp_path):
        path = tmp_path / "dup.json"
        self._write_trace(path, [{"id": 5, "load": 0.2},
                                 {"id": 5, "load": 0.3},
                                 {"id": 7, "load": 0.1},
                                 {"id": 7, "load": 0.1}])
        with pytest.raises(ConfigurationError, match=r"\[5, 7\]"):
            load_trace(path)

    def test_unique_ids_still_load(self, tmp_path):
        path = tmp_path / "ok.json"
        self._write_trace(path, [{"id": 0, "load": 0.2},
                                 {"id": 1, "load": 0.3}])
        assert load_trace(path).loads == [0.2, 0.3]
