"""Integration: fill a cluster, plan failures, run the DES, check SLA.

A miniature version of Figure 5's pipeline — small enough for the test
suite, structured identically to the benchmark.
"""

from repro.cluster.experiment import ClusterConfig, ClusterExperiment
from repro.cluster.failures import worst_overload_failures
from repro.core.cubefit import CubeFit
from repro.algorithms.rfi import RFI
from repro.sim.figures import fill_cluster
from repro.workloads.distributions import DiscreteUniformClients


CONFIG = ClusterConfig(warmup=10.0, measure=30.0, seed=0)
SERVERS = 10


def run_scenario(factory, failures):
    filled = fill_cluster(factory, DiscreteUniformClients(1, 15),
                          max_servers=SERVERS, seed=0)
    experiment = ClusterExperiment(filled.tenant_homes,
                                   filled.tenant_clients, CONFIG)
    plan = worst_overload_failures(filled.tenant_homes,
                                   filled.tenant_clients, failures)
    return experiment.run(fail_servers=plan.failed)


class TestFailureScenarios:
    def test_cubefit3_survives_two_failures(self):
        """The paper's headline: gamma = 3 tolerates two simultaneous
        worst-case failures without dropping queries."""
        result = run_scenario(lambda: CubeFit(gamma=3, num_classes=5), 2)
        assert result.dropped == 0
        assert result.completed > 100

    def test_cubefit2_survives_one_failure_without_drops(self):
        result = run_scenario(lambda: CubeFit(gamma=2, num_classes=5), 1)
        assert result.dropped == 0

    def test_rfi_survives_one_failure_without_drops(self):
        result = run_scenario(lambda: RFI(gamma=2), 1)
        assert result.dropped == 0

    def test_latency_monotone_in_failures(self):
        filled = fill_cluster(lambda: CubeFit(gamma=3, num_classes=5),
                              DiscreteUniformClients(1, 15),
                              max_servers=SERVERS, seed=0)
        experiment = ClusterExperiment(filled.tenant_homes,
                                       filled.tenant_clients, CONFIG)
        p99s = []
        for f in (0, 1, 2):
            plan = worst_overload_failures(filled.tenant_homes,
                                           filled.tenant_clients, f)
            p99s.append(experiment.run(fail_servers=plan.failed).p99)
        # Worst-case failures should not make the hot server *faster*.
        assert p99s[1] >= p99s[0] * 0.9
        assert p99s[2] >= p99s[1] * 0.9

    def test_worst_case_hotter_than_arbitrary_failure(self):
        filled = fill_cluster(lambda: CubeFit(gamma=2, num_classes=5),
                              DiscreteUniformClients(1, 15),
                              max_servers=SERVERS, seed=0)
        experiment = ClusterExperiment(filled.tenant_homes,
                                       filled.tenant_clients, CONFIG)
        plan = worst_overload_failures(filled.tenant_homes,
                                       filled.tenant_clients, 1)
        worst = experiment.run(fail_servers=plan.failed)
        # Compare against failing some other server.
        all_servers = sorted({h for hs in filled.tenant_homes.values()
                              for h in hs})
        other = next(s for s in all_servers if s not in plan.failed)
        arbitrary = experiment.run(fail_servers=[other])
        assert worst.p99 >= arbitrary.p99 * 0.8
