"""Guards for the generated API reference."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tools"))

import gen_api_docs  # noqa: E402


class TestGenerator:
    def test_every_listed_module_imports(self):
        import importlib
        for name in gen_api_docs.MODULES:
            importlib.import_module(name)

    def test_committed_reference_is_fresh(self):
        """docs/api.md must match a regeneration of the current API."""
        committed = (ROOT / "docs" / "api.md").read_text()
        assert committed == gen_api_docs.generate(), (
            "docs/api.md is stale; run `python tools/gen_api_docs.py`")

    def test_reference_is_checkout_independent(self):
        """Nothing in the reference may depend on where the repository
        is checked out (e.g. a module export rendered via its repr)."""
        assert str(ROOT) not in gen_api_docs.generate()

    def test_reference_covers_key_symbols(self):
        text = (ROOT / "docs" / "api.md").read_text()
        for symbol in ("CubeFit", "RFI", "PlacementState", "audit",
                       "worst_overload_failures", "ClusterExperiment",
                       "competitive_ratio_upper_bound", "RecoveryPlanner",
                       "Repacker", "run_churn", "grouped_bar_chart",
                       "MetricsRegistry", "EventJournal"):
            assert symbol in text, f"{symbol} missing from docs/api.md"

    def test_no_private_names_documented(self):
        text = (ROOT / "docs" / "api.md").read_text()
        for line in text.splitlines():
            if line.startswith("### class `_") or \
                    line.startswith("### `_"):
                pytest.fail(f"private name documented: {line}")
