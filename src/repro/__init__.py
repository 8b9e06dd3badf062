"""CUBEFIT — robust multi-tenant server consolidation (ICDCS 2017 reproduction).

Public API quick tour
---------------------

Packing::

    from repro import CubeFit, RFI, make_tenants, audit

    algo = CubeFit(gamma=3, num_classes=10)
    algo.consolidate(make_tenants([0.6, 0.3, 0.12]))
    audit(algo.placement).raise_if_violated()   # Theorem 1 holds

Workloads::

    from repro.workloads import UniformLoad, generate_sequence
    seq = generate_sequence(UniformLoad(max_load=0.4), n=1000, seed=7)

Experiments (the paper's figures and tables)::

    from repro.sim import figure5, figure6, table1
"""

from ._version import __version__
from .core.tenant import Tenant, Replica, TenantSequence, make_tenants
from .core.placement import PlacementState
from .core.server import Server
from .core.config import CubeFitConfig
from .core.classes import SizeClassifier
from .core.cubefit import CubeFit
from .core.validation import audit, AuditReport
from .algorithms.base import (OnlinePlacementAlgorithm, make_algorithm,
                              available_algorithms)
from .algorithms.rfi import RFI
from .algorithms.naive import RobustBestFit, RobustFirstFit, RobustNextFit
from .algorithms.lower_bound import (capacity_lower_bound,
                                     weight_lower_bound, best_lower_bound)
from .algorithms.offline import OfflineFirstFitDecreasing
from .core.recovery import RecoveryPlanner, RecoveryPlan
from .errors import (ReproError, ConfigurationError, PlacementError,
                     CapacityError, RobustnessViolation, SimulationError,
                     CalibrationError, FaultInjected, SimulatedCrash)
from . import faults

__all__ = [
    "__version__",
    # core model
    "Tenant", "Replica", "TenantSequence", "make_tenants",
    "PlacementState", "Server", "SizeClassifier",
    # algorithms
    "CubeFit", "CubeFitConfig", "RFI",
    "RobustBestFit", "RobustFirstFit", "RobustNextFit",
    "OnlinePlacementAlgorithm", "make_algorithm", "available_algorithms",
    # validation
    "audit", "AuditReport",
    # bounds and the offline heuristic
    "capacity_lower_bound", "weight_lower_bound", "best_lower_bound",
    "OfflineFirstFitDecreasing",
    # recovery
    "RecoveryPlanner", "RecoveryPlan",
    # errors
    "ReproError", "ConfigurationError", "PlacementError", "CapacityError",
    "RobustnessViolation", "SimulationError", "CalibrationError",
    "FaultInjected", "SimulatedCrash",
    # fault injection
    "faults",
]
