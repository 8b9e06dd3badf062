"""Property-based tests: trace round-trips and report rendering."""

from hypothesis import given, settings, strategies as st

from repro.analysis.report import Table
from repro.core.tenant import TenantSequence, make_tenants
from repro.workloads.trace_io import load_trace, save_trace

loads_strategy = st.lists(
    st.floats(min_value=1e-4, max_value=1.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=40)


@given(loads=loads_strategy, seed=st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_trace_roundtrip_is_lossless(tmp_path_factory, loads, seed):
    path = tmp_path_factory.mktemp("traces") / "t.json"
    sequence = TenantSequence(tenants=make_tenants(loads),
                              description="prop", seed=seed)
    save_trace(sequence, path)
    loaded = load_trace(path)
    assert loaded.loads == sequence.loads
    assert loaded.seed == seed
    assert [t.tenant_id for t in loaded] == \
        [t.tenant_id for t in sequence]


@given(loads=loads_strategy)
@settings(max_examples=40, deadline=None)
def test_trace_floats_survive_json_bitwise(tmp_path_factory, loads):
    """JSON uses repr round-tripping: every double must come back with
    the identical bit pattern, not merely within a tolerance."""
    import struct

    path = tmp_path_factory.mktemp("traces") / "t.json"
    save_trace(TenantSequence(tenants=make_tenants(loads)), path)
    for original, loaded in zip(loads, load_trace(path).loads):
        assert struct.pack("<d", original) == struct.pack("<d", loaded)


cells = st.one_of(st.integers(min_value=-10**6, max_value=10**6),
                  st.floats(min_value=-1e6, max_value=1e6,
                            allow_nan=False, allow_infinity=False),
                  st.text(alphabet=st.characters(
                      blacklist_categories=("Cs", "Cc")), max_size=20))


@given(rows=st.lists(st.tuples(cells, cells), min_size=0, max_size=10))
@settings(max_examples=50, deadline=None)
def test_table_renders_any_values(rows):
    table = Table(title="prop", columns=["a", "b"])
    for row in rows:
        table.add_row(*row)
    text = table.to_text()
    assert text.splitlines()[0] == "prop"
    md = table.to_markdown()
    assert md.splitlines()[0] == "**prop**"
    csv_text = table.to_csv()
    assert csv_text.splitlines()[0] == "a,b"
    # Every row made it into the CSV (cells contain no newlines).
    assert len(csv_text.splitlines()) == len(rows) + 1
