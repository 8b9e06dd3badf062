"""Packing core: tenants, servers, placement state, CUBEFIT."""

from .tenant import Tenant, Replica, TenantSequence, make_tenants, LOAD_EPS
from .server import Server, UNIT_CAPACITY
from .placement import PlacementState, DirtyTracker
from .classes import SizeClassifier
from .config import (CubeFitConfig, TINY_POLICY_ALPHA,
                     TINY_POLICY_LAST_CLASS, TINY_POLICIES)
from .cube import ClassCubes, SlotAddress, to_digits, from_digits, \
    rotate_right
from .multireplica import MultiReplica, MultiReplicaPolicy
from .cubefit import CubeFit
from .validation import audit, AuditReport, Violation, IncrementalAuditor
from .recovery import RecoveryPlanner, RecoveryPlan, ReplicaMove

__all__ = [
    "Tenant", "Replica", "TenantSequence", "make_tenants", "LOAD_EPS",
    "Server", "UNIT_CAPACITY", "PlacementState", "DirtyTracker",
    "SizeClassifier",
    "CubeFitConfig", "TINY_POLICY_ALPHA", "TINY_POLICY_LAST_CLASS",
    "TINY_POLICIES", "ClassCubes", "SlotAddress", "to_digits",
    "from_digits", "rotate_right", "MultiReplica", "MultiReplicaPolicy",
    "CubeFit", "audit", "IncrementalAuditor", "AuditReport", "Violation",
    "RecoveryPlanner", "RecoveryPlan", "ReplicaMove",
]
