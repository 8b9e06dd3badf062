"""Configuration for the CUBEFIT algorithm."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError

#: Tiny-tenant policies (Section III vs. Section V-A of the paper).
TINY_POLICY_ALPHA = "alpha"
TINY_POLICY_LAST_CLASS = "last-class"
TINY_POLICIES = (TINY_POLICY_ALPHA, TINY_POLICY_LAST_CLASS)


@dataclass(frozen=True)
class CubeFitConfig:
    """All tunables of CUBEFIT.

    Parameters
    ----------
    gamma:
        Replicas per tenant (2 or 3 in the paper); the packing tolerates
        any ``gamma - 1`` simultaneous server failures.
    num_classes:
        ``K``.  The paper suggests 10 for data-center scale and 5 for
        smaller clusters; more classes help with more tenants.
    tiny_policy:
        How class-``K`` (tiny) replicas are aggregated into
        multi-replicas:

        * ``"last-class"`` (default, used in the paper's experiments):
          multi-replicas grow up to the class-``(K-1)`` slot size
          ``1/(K+gamma-2)`` and occupy class-``(K-1)`` slots.
        * ``"alpha"`` (the paper's theoretical construction):
          multi-replicas grow up to ``1/alpha_K`` where ``alpha_K`` is the
          largest integer with ``alpha^2 + alpha < K``, and are treated as
          class ``alpha_K - gamma + 1``.  Requires ``alpha_K >= gamma``,
          i.e. ``K > gamma^2 + gamma``.
    first_stage:
        Enable the first stage (m-fit placement into mature bins).  With
        False, every tenant goes through the cube machinery; useful for
        ablation.
    capacity:
        Server capacity; the paper normalizes to 1.
    """

    gamma: int = 2
    num_classes: int = 10
    tiny_policy: str = TINY_POLICY_LAST_CLASS
    first_stage: bool = True
    capacity: float = 1.0

    def __post_init__(self) -> None:
        if self.gamma < 2:
            raise ConfigurationError(
                f"gamma must be >= 2, got {self.gamma}")
        if self.num_classes < 2:
            raise ConfigurationError(
                f"num_classes (K) must be >= 2, got {self.num_classes}")
        if self.tiny_policy not in TINY_POLICIES:
            raise ConfigurationError(
                f"tiny_policy must be one of {TINY_POLICIES}, "
                f"got {self.tiny_policy!r}")
        if self.capacity <= 0:
            raise ConfigurationError(
                f"capacity must be positive, got {self.capacity}")
        if self.tiny_policy == TINY_POLICY_ALPHA:
            required = self.gamma * self.gamma + self.gamma
            if self.num_classes <= required:
                raise ConfigurationError(
                    f"tiny_policy='alpha' requires K > gamma^2 + gamma "
                    f"(= {required}) so that alpha_K >= gamma; got "
                    f"K = {self.num_classes}. Use tiny_policy="
                    f"'last-class' instead.")
