"""The cube-group tag that CUBEFIT writes on every second-stage bin.

Checkpoints encode the tag, so its geometry is pinned here: nothing
enforces it, but by the cube construction replica ``j`` of a
second-stage tenant always lives in group ``j``.
"""

import numpy as np

from repro.core.cubefit import CubeFit, TAG_DOMAIN
from repro.core.tenant import make_tenants


def loads(n, lo=0.05, hi=1.0, seed=0):
    rng = np.random.default_rng(seed)
    return list(rng.uniform(lo, hi, n))


class TestDomainsOfCubeBins:
    def test_stage2_bins_tagged_with_group(self):
        algo = CubeFit(gamma=3, num_classes=5, first_stage=False)
        algo.consolidate(make_tenants([0.55] * 27))
        domains = {s.tags[TAG_DOMAIN] for s in algo.placement if len(s) > 0}
        assert domains == {0, 1, 2}

    def test_pure_stage2_spans_domains_by_construction(self):
        algo = CubeFit(gamma=2, num_classes=5, first_stage=False)
        algo.consolidate(make_tenants(loads(150, lo=0.34)))
        placement = algo.placement
        for tenant_id in placement.tenant_ids:
            homes = placement.tenant_servers(tenant_id)
            groups = [placement.server(homes[j]).tags[TAG_DOMAIN]
                      for j in sorted(homes)]
            assert groups == [0, 1]
