"""Integration: full Section IV calibration against the simulated cluster."""

from repro.cluster.calibration import (calibrate_load_model,
                                       find_boundary_clients, measure_p99)
from repro.cluster.experiment import ClusterConfig


FAST = ClusterConfig(warmup=10.0, measure=30.0)


class TestMeasurement:
    def test_latency_monotone_in_clients(self):
        p_low = measure_p99(1, 10, FAST)
        p_high = measure_p99(1, 70, FAST)
        assert p_high > p_low

    def test_more_tenants_same_clients_costlier(self):
        few = measure_p99(2, 40, FAST)
        many = measure_p99(30, 40, FAST)
        assert many > few * 0.9  # beta overhead pushes latency up


class TestBoundary:
    def test_boundary_bracketing(self):
        point = find_boundary_clients(1, FAST)
        assert 30 <= point.clients <= 70
        # Just inside meets, just outside violates (up to noise, the
        # search guarantees the measured values straddle the SLA).
        assert measure_p99(1, point.clients, FAST) <= FAST.sla_seconds


class TestFullCalibration:
    def test_recovers_paperlike_model(self):
        result = calibrate_load_model(tenant_counts=(1, 6, 12),
                                      config=FAST)
        model = result.model
        # The simulated hardware was tuned so that C ~ 52 (paper).
        assert 42 <= result.max_clients_single_tenant <= 62
        assert 0.01 <= model.delta <= 0.03
        assert 0.0 <= model.beta <= 0.03
        assert len(result.boundary) == 3
