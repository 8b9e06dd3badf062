"""Large-scale consolidation simulation runner (Section V-C).

"We implemented a simulator which has a suite of distributions generate
tenant load sequences and these loads are given to the placement
algorithms.  Based on the resulting placement, the simulator captures
statistics including how many servers were used, amount of time each
placement algorithm needs to consolidate tenants onto servers, and the
average server utilization."

:func:`run_once` executes one (algorithm, sequence) pair and captures
those statistics; :func:`compare` runs paired independent repetitions of
several algorithms over the same sequences and aggregates means, 95%
confidence intervals and the relative-difference savings metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from ..algorithms.base import OnlinePlacementAlgorithm
from ..analysis.stats import (ConfidenceInterval, confidence_interval_95,
                              relative_difference_percent)
from ..core.tenant import TenantSequence
from ..core.validation import audit
from ..errors import ConfigurationError
from ..par import pmap
from ..workloads.distributions import LoadDistribution
from ..workloads.sequences import generate_sequence

#: Factory returning a fresh algorithm instance per run.
AlgorithmFactory = Callable[[], OnlinePlacementAlgorithm]


@dataclass
class RunStats:
    """Statistics of one consolidation run."""

    algorithm: str
    distribution: str
    seed: int
    tenants: int
    servers: int
    utilization: float
    placement_seconds: float
    robust: bool


@dataclass
class ComparisonResult:
    """Aggregated multi-run comparison over one distribution."""

    distribution: str
    tenants: int
    runs: int
    #: algorithm name -> per-run server counts.
    servers: Dict[str, List[int]] = field(default_factory=dict)
    #: algorithm name -> per-run wall seconds.
    seconds: Dict[str, List[float]] = field(default_factory=dict)
    #: algorithm name -> per-run mean utilization.
    utilization: Dict[str, List[float]] = field(default_factory=dict)

    def mean_servers(self, algorithm: str) -> float:
        counts = self.servers[algorithm]
        return sum(counts) / len(counts)

    def savings_percent(self, baseline: str,
                        candidate: str) -> float:
        """Relative difference of mean server counts:
        ``(baseline - candidate)/candidate * 100`` (Figure 6's metric)."""
        return relative_difference_percent(self.mean_servers(baseline),
                                           self.mean_servers(candidate))

    def savings_percent_ci(self, baseline: str,
                           candidate: str) -> ConfidenceInterval:
        """95% CI of per-run paired savings percentages."""
        per_run = [relative_difference_percent(float(b), float(c))
                   for b, c in zip(self.servers[baseline],
                                   self.servers[candidate])]
        return confidence_interval_95(per_run)


def run_once(factory: AlgorithmFactory, sequence: TenantSequence,
             verify: bool = False, obs=None) -> RunStats:
    """Consolidate one sequence with a fresh algorithm instance.

    ``obs`` (a :class:`~repro.obs.MetricsRegistry`) is attached to the
    algorithm so every placement operation feeds counters, duration
    histograms and journal events; ``None`` (the default) keeps the run
    un-instrumented.
    """
    algorithm = factory()
    if obs is not None:
        algorithm.attach_obs(obs)
    algorithm.consolidate(sequence)
    robust = True
    if verify:
        robust = audit(algorithm.placement).ok
    return RunStats(
        algorithm=algorithm.name,
        distribution=sequence.description,
        seed=sequence.seed if sequence.seed is not None else -1,
        tenants=len(sequence),
        servers=algorithm.placement.num_servers,
        utilization=algorithm.placement.utilization(),
        placement_seconds=algorithm.placement_seconds,
        robust=robust,
    )


def compare(factories: Dict[str, AlgorithmFactory],
            distribution: LoadDistribution,
            n_tenants: int, runs: int,
            base_seed: int = 0,
            verify: bool = False,
            jobs: int = 1,
            obs=None) -> ComparisonResult:
    """Paired comparison: every algorithm sees the same ``runs``
    independent sequences (seeds ``base_seed .. base_seed+runs-1``).

    With ``jobs > 1`` the repetitions fan out over a forked worker
    pool (:func:`repro.par.pmap`), one worker per run; each worker
    regenerates its sequence from the same seed the serial loop would
    use and results are folded back in run order, so the aggregate is
    bit-identical at any ``jobs``.  Server counts, wall seconds and
    utilizations are keyed by the factory-dict name exactly as in the
    serial path.
    """
    if runs < 1:
        raise ConfigurationError(f"runs must be >= 1, got {runs}")
    if not factories:
        raise ConfigurationError("no algorithms to compare")
    result = ComparisonResult(distribution=distribution.name,
                              tenants=n_tenants, runs=runs)
    for name in factories:
        result.servers[name] = []
        result.seconds[name] = []
        result.utilization[name] = []

    def one_run(run_index: int, run_obs) -> List[RunStats]:
        sequence = generate_sequence(distribution, n_tenants,
                                     seed=base_seed + run_index)
        return [run_once(factory, sequence, verify=verify, obs=run_obs)
                for factory in factories.values()]

    for per_run in pmap(one_run, range(runs), jobs=jobs, obs=obs):
        for name, stats in zip(factories, per_run):
            result.servers[name].append(stats.servers)
            result.seconds[name].append(stats.placement_seconds)
            result.utilization[name].append(stats.utilization)
    return result
