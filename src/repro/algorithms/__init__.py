"""Placement algorithms: CUBEFIT lives in repro.core; baselines here."""

from .base import (OnlinePlacementAlgorithm, ServerIndex, register,
                   make_algorithm, available_algorithms,
                   robust_after_placement, worst_shared_sum)
from .rfi import RFI, DEFAULT_MU
from .naive import RobustBestFit, RobustFirstFit, RobustNextFit
from .lower_bound import (capacity_lower_bound, weight_lower_bound,
                          best_lower_bound)
from .offline import OfflineFirstFitDecreasing
from .repack import Repacker, RepackPlan, TenantMigration
from .mixed import MixedGammaFirstFit

# NOTE: CubeFit lives in repro.core.cubefit (it *is* the paper's core
# contribution) and registers itself with this package's registry when
# imported; `import repro` performs that import, so
# make_algorithm("cubefit", ...) always works after importing the
# top-level package.  It is not re-exported here to avoid a circular
# import between repro.core and repro.algorithms.

__all__ = [
    "OnlinePlacementAlgorithm", "ServerIndex", "register",
    "make_algorithm", "available_algorithms", "robust_after_placement",
    "worst_shared_sum", "RFI", "DEFAULT_MU", "RobustBestFit",
    "RobustFirstFit", "RobustNextFit", "capacity_lower_bound",
    "weight_lower_bound", "best_lower_bound",
    "OfflineFirstFitDecreasing",
    "Repacker", "RepackPlan", "TenantMigration", "MixedGammaFirstFit",
]
