"""Benchmarks: scaling study (E6 extension) and failure recovery.

* The scaling study quantifies the paper's "asymptotic performance of
  the CUBEFIT algorithm is significantly better when there is a large
  number of tenants": the savings metric versus RFI turns from negative
  at a few hundred tenants to the paper's ~25-30% as n grows.
* The recovery bench measures re-replication after failures: every
  replica of the failed servers is re-homed under the full robustness
  check, restoring the replication factor.
"""

import numpy as np

from repro.algorithms.rfi import RFI
from repro.core.cubefit import CubeFit
from repro.core.recovery import RecoveryPlanner
from repro.core.tenant import make_tenants
from repro.core.validation import audit
from repro.sim.timing import scaling_study
from repro.workloads.distributions import UniformLoad


FACTORIES = {
    "cubefit": lambda: CubeFit(gamma=2, num_classes=10),
    "rfi": lambda: RFI(gamma=2),
}


def test_scaling_study_benchmark(benchmark):
    counts = [250, 1_000, 4_000]

    def run():
        return scaling_study(FACTORIES, UniformLoad(0.3), counts, seed=0)

    study = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(study)
    savings = study.savings_series("rfi", "cubefit")
    benchmark.extra_info["savings_by_n"] = [
        (n, round(s, 1)) for n, s in savings]
    # The asymptotic claim: savings strictly improve with scale and are
    # clearly positive at the top end.
    values = [s for _n, s in savings]
    assert values[-1] > values[0]
    assert values[-1] > 15.0


def test_recovery_benchmark(benchmark):
    rng = np.random.default_rng(0)
    loads = list(rng.uniform(0.02, 0.6, 2_000))

    def build():
        algo = CubeFit(gamma=2, num_classes=10)
        algo.consolidate(make_tenants(loads))
        return algo.placement

    def run():
        placement = build()
        victims = sorted(
            (s.server_id for s in placement if len(s) > 0))[:5]
        plan = RecoveryPlanner(placement).recover(victims)
        return placement, plan

    placement, plan = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["replicas_relocated"] = plan.replicas_relocated
    benchmark.extra_info["servers_opened"] = plan.servers_opened
    assert audit(placement).ok
    for tid in placement.tenant_ids:
        assert len(placement.tenant_servers(tid)) == 2
