"""Seeded inputs shared by the churn-durable and serve workloads.

The steady population is the paper's Table I tenant population:
zipf(3) client counts on 1..52, normalized by the 52-client server
capacity.  The operation stream after it has equal arrival and
departure rates plus elastic resizes, so the population stays steady.
"""

from __future__ import annotations

import random
from typing import List, Tuple

import numpy as np

from repro import RobustBestFit
from repro.workloads import NormalizedClients, ZipfClients, generate_sequence

GAMMA = 2
#: Operation mix: (arrival, departure) probabilities; the rest resize.
ARRIVE, DEPART = 0.4, 0.4

Op = Tuple[str, int, float]


def table1_loads():
    return NormalizedClients(ZipfClients(exponent=3.0, max_clients=52))


def population(seed: int, tenants: int):
    """The steady tenant population ``0..tenants-1``."""
    return generate_sequence(table1_loads(), tenants, seed=seed).tenants


def op_stream(seed: int, tenants: int, count: int) -> List[Op]:
    """``count`` operations on the population of ``tenants`` tenants.

    Every ``remove`` and ``update_load`` names a tenant that is live at
    that point of the stream, so a correct controller never refuses one.
    """
    choose = random.Random(seed * 7919 + 17)
    loads = table1_loads().sample(np.random.default_rng([seed, 1]), count)
    live = list(range(tenants))
    next_id = tenants
    ops: List[Op] = []
    for index in range(count):
        draw = choose.random()
        if draw < ARRIVE:
            ops.append(("place", next_id, float(loads[index])))
            live.append(next_id)
            next_id += 1
        elif draw < ARRIVE + DEPART:
            slot = choose.randrange(len(live))
            live[slot], live[-1] = live[-1], live[slot]
            ops.append(("remove", live.pop(), 0.0))
        else:
            tenant = live[choose.randrange(len(live))]
            ops.append(("update_load", tenant, float(loads[index])))
    return ops


def prefill(tenants) -> RobustBestFit:
    """RobustBestFit holding the population, placed in memory."""
    algorithm = RobustBestFit(gamma=GAMMA)
    algorithm.consolidate(tenants)
    return algorithm
