"""Snapshot regression tests against committed expected outputs.

Theorem 2's sweep is pure exact arithmetic — any change to its values
is either a bug or an intentional analysis change that must be made
consciously (regenerate ``benchmarks/expected/theorem2.csv`` via the
snippet in this file's docstring)::

    python - <<'EOF'
    from repro.sim.figures import theorem2
    from repro.analysis.report import theorem2_table
    theorem2_table(theorem2()).to_csv("benchmarks/expected/theorem2.csv")
    EOF

The golden packings pin the exact replica-to-server assignment each
algorithm produces for a seed-0 ``Uniform(0, 0.6]`` sequence: any
change to candidate ordering, candidate indexing or feasibility
screening that moves even one replica changes the per-server
tenant-set hash.  The server count and the tenant sets fix the mean
utilization too.  Tier-1 checks the 2k-tenant packings of the five
online algorithms and offline FFD at gamma 2, where every top-``f``
sum has ``f = 1``, and at gamma 3 (keys ending ``@g3``), where the
exact sum ranks bumped partners; plus mixed-gamma First Fit under a
seeded plan of gammas 1-3.  CI checks CUBEFIT and RFI at 100k
tenants, where the candidate index scans 40k-44k servers per arrival
(about 13 s each on a 2-vCPU machine).  Regenerate
``benchmarks/expected/packings_2k.json`` and
``benchmarks/expected/packings_100k.json`` consciously via::

    PYTHONPATH=src python - <<'EOF'
    import json
    from tests.unit.test_expected_snapshots import (
        PACKING_KEYS, _packing_snapshot)
    print(json.dumps({key: _packing_snapshot(key, 2000)
                      for key in PACKING_KEYS}, indent=2))
    EOF

    PYTHONPATH=src python - <<'EOF'
    import json
    from tests.unit.test_expected_snapshots import _packing_snapshot
    print(json.dumps({name: _packing_snapshot(name, 100000)
                      for name in ("cubefit", "rfi")}, indent=2))
    EOF

The SLA curves pin the closed-form violation model and the gamma menu
it implies: a drift in ``p_violate`` silently re-prices every tenant's
replication factor, so any change must be a conscious one.  Regenerate
``benchmarks/expected/sla_gamma.json`` via::

    PYTHONPATH=src python - <<'EOF'
    import json
    from tests.unit.test_expected_snapshots import _sla_snapshot
    print(json.dumps(_sla_snapshot(), indent=2))
    EOF
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.algorithms.base import make_algorithm
from repro.algorithms.mixed import MixedGammaFirstFit
from repro.analysis.report import theorem2_table
from repro.sim.figures import theorem2
from repro.workloads.distributions import UniformLoad
from repro.workloads.sequences import generate_sequence

_EXPECTED_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / \
    "expected"
EXPECTED = _EXPECTED_DIR / "theorem2.csv"
EXPECTED_PACKINGS = _EXPECTED_DIR / "packings_2k.json"
EXPECTED_PACKINGS_100K = _EXPECTED_DIR / "packings_100k.json"

#: CUBEFIT runs with its default ``num_classes`` (10).
PACKING_ALGORITHMS = ("cubefit", "rfi", "bestfit", "firstfit", "nextfit")

#: Snapshot keys of the 2k golden packings: ``name`` at gamma 2,
#: ``name@g3`` at gamma 3.
PACKING_KEYS = (
    *PACKING_ALGORITHMS,
    *(f"{name}@g3" for name in PACKING_ALGORITHMS),
    "offline-ffd", "offline-ffd@g3", "mixed-firstfit",
)


def test_theorem2_sweep_matches_snapshot():
    result = theorem2()
    fresh = theorem2_table(result).to_csv()
    assert fresh == EXPECTED.read_text(), (
        "Theorem 2 sweep changed; if intentional, regenerate "
        "benchmarks/expected/theorem2.csv"
    )


def _packing_algorithm(key: str, tenants: int):
    """The algorithm a snapshot key names: ``name`` or ``name@gN``.
    ``mixed-firstfit`` gets a seed-0 plan of gammas 1-3 over the
    sequence's tenant ids."""
    name, _, gamma = key.partition("@g")
    gamma = int(gamma or 2)
    if name == "mixed-firstfit":
        rng = random.Random(0)
        plan = {tid: rng.randint(1, 3) for tid in range(tenants)}
        return MixedGammaFirstFit(plan, gamma=gamma)
    return make_algorithm(name, gamma)


def _packing_snapshot(key: str, tenants: int) -> dict:
    """Server count + a digest of each server's tenant set after the
    algorithm ``key`` names consolidates the seed-0 ``Uniform(0, 0.6]``
    sequence of ``tenants`` tenants."""
    algo = _packing_algorithm(key, tenants)
    algo.consolidate(generate_sequence(UniformLoad(0.6), tenants, seed=0))
    placement = algo.placement
    digest = hashlib.sha256()
    for sid in sorted(placement.server_ids):
        tenant_ids = sorted({tid for tid, _
                             in placement.server(sid).replicas})
        digest.update(f"{sid}:{tenant_ids}\n".encode())
    return {
        "tenants": tenants,
        "servers": placement.num_servers,
        "tenant_sets_sha256": digest.hexdigest(),
    }


@pytest.mark.parametrize("key", PACKING_KEYS)
def test_golden_packing_matches_snapshot(key):
    expected = json.loads(EXPECTED_PACKINGS.read_text())
    assert _packing_snapshot(key, 2000) == expected[key], (
        f"the {key} packing for the 2k-tenant sequence changed; "
        "if intentional, regenerate benchmarks/expected/"
        "packings_2k.json (snippet in this file's docstring)"
    )


EXPECTED_SLA = _EXPECTED_DIR / "sla_gamma.json"

SLA_GRID = [round(0.05 * i, 2) for i in range(1, 20)]
SLA_TARGETS = (0.05, 0.01, 0.001)


def _sla_snapshot() -> dict:
    """Violation-probability curves and gamma selections over a load
    grid, under the default policy (pure closed-form arithmetic)."""
    from repro.analysis.sla import (DEFAULT_POLICY, gamma_map,
                                    p_violate_curve)
    return {
        "policy": {
            "failure_prob": DEFAULT_POLICY.failure_prob,
            "overload": DEFAULT_POLICY.overload,
            "gammas": list(DEFAULT_POLICY.gammas),
        },
        "load_grid": SLA_GRID,
        "p_violate": {str(g): p_violate_curve(SLA_GRID, g)
                      for g in DEFAULT_POLICY.gammas},
        "gamma_map": {str(t): [gamma_map([(0, load)], t)[0]
                               for load in SLA_GRID]
                      for t in SLA_TARGETS},
    }


def test_sla_curves_match_snapshot():
    expected = json.loads(EXPECTED_SLA.read_text())
    assert _sla_snapshot() == expected, (
        "the SLA violation model changed; if intentional, regenerate "
        "benchmarks/expected/sla_gamma.json (snippet in this file's "
        "docstring)"
    )
