"""Unit tests for the deterministic failpoint framework."""

import pytest

from repro import faults
from repro.errors import ConfigurationError, FaultInjected, SimulatedCrash
from repro.faults import (ACTIONS, CATALOG, FAILPOINTS, FailpointPolicy,
                          FailpointRegistry, activate_from_env,
                          format_spec, parse_spec, parse_specs)

POINT = "algo.place"  # any catalogued name works for registry tests


class TestPolicyValidation:
    def test_unknown_action_rejected(self):
        with pytest.raises(ConfigurationError):
            FailpointPolicy(action="explode")

    @pytest.mark.parametrize("field,value", [
        ("after_hits", 0), ("max_fires", 0),
        ("probability", 0.0), ("probability", 1.5), ("seconds", -1.0),
    ])
    def test_out_of_range_fields_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            FailpointPolicy(**{field: value})

    def test_probabilistic_without_seed_rejected(self):
        """There is no nondeterministic mode."""
        with pytest.raises(ConfigurationError):
            FailpointPolicy(probability=0.5)
        FailpointPolicy(probability=0.5, seed=1)  # with a seed: fine

    def test_all_actions_constructible(self):
        for action in ACTIONS:
            FailpointPolicy(action=action)


class TestRegistry:
    def test_unknown_name_rejected(self):
        registry = FailpointRegistry()
        with pytest.raises(ConfigurationError):
            registry.activate("store.wal.appnd")  # typo must not no-op

    def test_policy_and_kwargs_mutually_exclusive(self):
        registry = FailpointRegistry()
        with pytest.raises(ConfigurationError):
            registry.activate(POINT, FailpointPolicy(), action="raise")

    def test_fire_raises_typed_error_with_failpoint(self):
        registry = FailpointRegistry()
        registry.activate(POINT, action="raise")
        with pytest.raises(FaultInjected) as exc:
            registry.fire(POINT)
        assert exc.value.failpoint == POINT
        assert not isinstance(exc.value, SimulatedCrash)

    def test_crash_action_raises_simulated_crash(self):
        registry = FailpointRegistry()
        registry.activate(POINT, action="crash")
        with pytest.raises(SimulatedCrash):
            registry.fire(POINT)

    def test_inactive_point_is_noop(self):
        registry = FailpointRegistry()
        registry.fire(POINT)
        assert registry.should(POINT) is False
        assert registry.corrupt(POINT, "x") == "x"
        assert registry.fired_counts() == {}

    def test_max_fires_disarms(self):
        registry = FailpointRegistry()
        registry.activate(POINT, action="raise", max_fires=2)
        for _ in range(2):
            with pytest.raises(FaultInjected):
                registry.fire(POINT)
        registry.fire(POINT)  # disarmed: no-op
        assert registry.fired(POINT) == 2
        assert not registry.is_active(POINT)

    def test_after_hits_skips_early_hits(self):
        registry = FailpointRegistry()
        registry.activate(POINT, action="raise", after_hits=3)
        registry.fire(POINT)
        registry.fire(POINT)
        with pytest.raises(FaultInjected):
            registry.fire(POINT)
        assert registry.fired(POINT) == 1

    def test_probability_is_seed_deterministic(self):
        def fired_pattern(seed):
            registry = FailpointRegistry()
            registry.activate(POINT, action="raise", probability=0.4,
                              seed=seed, max_fires=None)
            pattern = []
            for _ in range(40):
                try:
                    registry.fire(POINT)
                    pattern.append(0)
                except FaultInjected:
                    pattern.append(1)
            return pattern

        first = fired_pattern(7)
        assert first == fired_pattern(7)  # same seed, same hits fire
        assert 0 < sum(first) < 40       # actually probabilistic
        assert first != fired_pattern(8)

    def test_delay_sleeps_and_continues(self):
        import time
        registry = FailpointRegistry()
        registry.activate(POINT, action="delay", seconds=0.02)
        start = time.perf_counter()
        registry.fire(POINT)  # must not raise
        assert time.perf_counter() - start >= 0.015

    def test_reactivation_resets_hit_counter(self):
        registry = FailpointRegistry()
        registry.activate(POINT, action="raise", after_hits=2)
        registry.fire(POINT)  # hit 1 of 2
        registry.activate(POINT, action="raise", after_hits=2)
        registry.fire(POINT)  # hit 1 of 2 again: still silent
        with pytest.raises(FaultInjected):
            registry.fire(POINT)

    def test_injected_context_manager_disarms_on_exit(self):
        registry = FailpointRegistry()
        with registry.injected(POINT, action="raise", after_hits=99):
            assert registry.is_active(POINT)
        assert not registry.is_active(POINT)

    def test_global_helpers_route_to_global_registry(self):
        assert faults.active() is False
        with faults.injected(POINT, action="raise"):
            assert faults.active() is True
            with pytest.raises(FaultInjected):
                faults.fire(POINT)
        assert faults.active() is False
        assert FAILPOINTS.fired(POINT) == 1


class TestCorrupt:
    def test_default_mutators_are_deterministic(self):
        registry = FailpointRegistry()
        cases = [
            ("text", str), (True, bool), (7, int), (1.5, float),
            (b"\x00\xff", bytes), ({"a": 1, "b": 2}, dict),
            ([1, 2, 3, 4], list),
        ]
        for value, kind in cases:
            registry.activate(POINT, action="corrupt")
            mutated = registry.corrupt(POINT, value)
            assert isinstance(mutated, kind)
            assert mutated != value, f"{kind.__name__} not corrupted"

    def test_corrupted_string_is_valid_json_with_bad_seq(self):
        """A corrupted WAL line must be *detected*, never mistaken for
        a torn tail — so the default string mutator keeps valid JSON
        but carries an impossible sequence number."""
        import json
        registry = FailpointRegistry()
        registry.activate(POINT, action="corrupt")
        record = json.loads(registry.corrupt(POINT, '{"seq": 5}'))
        assert record["seq"] == -1

    def test_custom_mutator_wins(self):
        registry = FailpointRegistry()
        registry.activate(POINT, FailpointPolicy(
            action="corrupt", mutator=lambda v: "gone"))
        assert registry.corrupt(POINT, "anything") == "gone"

    def test_corrupt_policy_is_noop_at_fire_seams(self):
        registry = FailpointRegistry()
        registry.activate(POINT, action="corrupt")
        registry.fire(POINT)  # must not raise; still counts as a firing
        assert registry.fired(POINT) == 1


class TestSpecGrammar:
    def test_parse_minimal(self):
        name, policy = parse_spec("store.wal.append=raise")
        assert name == "store.wal.append"
        assert policy.action == "raise"
        assert policy.max_fires == 1  # specs arm one firing by default

    def test_parse_options_and_aliases(self):
        _, policy = parse_spec(
            "par.worker=crash:after=3:fires=2:p=0.5:seed=9")
        assert policy.after_hits == 3
        assert policy.max_fires == 2
        assert policy.probability == 0.5
        assert policy.seed == 9

    @pytest.mark.parametrize("bad", [
        "no-equals", "unknown.point=raise", "algo.place=explode",
        "algo.place=raise:bogus=1", "algo.place=raise:after=x",
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            parse_spec(bad)

    def test_parse_specs_list(self):
        parsed = parse_specs(
            "algo.place=raise, store.wal.fsync=crash:after=2,")
        assert [name for name, _ in parsed] == \
            ["algo.place", "store.wal.fsync"]

    @pytest.mark.parametrize("spec", [
        "algo.place=raise",
        "store.wal.torn_tail=crash:after_hits=4:max_fires=2",
        "par.worker=raise:probability=0.25:seed=3",
        "algo.remove=delay:seconds=0.5",
    ])
    def test_format_round_trips(self, spec):
        name, policy = parse_spec(spec)
        assert parse_spec(format_spec(name, policy)) == (name, policy)


class TestEnvActivation:
    def test_env_arms_listed_points(self):
        registry = FailpointRegistry()
        armed = activate_from_env(registry, environ={
            faults.FAULTS_ENV_VAR:
                "algo.place=raise,store.wal.fsync=crash:after=2"})
        assert armed == ["algo.place", "store.wal.fsync"]
        assert registry.policy("store.wal.fsync").after_hits == 2

    def test_empty_env_arms_nothing(self):
        registry = FailpointRegistry()
        assert activate_from_env(registry, environ={}) == []
        assert registry.active_names() == []

    def test_bad_env_spec_is_loud(self):
        with pytest.raises(ConfigurationError):
            activate_from_env(FailpointRegistry(), environ={
                faults.FAULTS_ENV_VAR: "typo.point=raise"})


class TestCatalog:
    def test_every_name_has_a_seam_description(self):
        for name, description in CATALOG.items():
            assert description
            prefix = name.split(".")[0]
            assert prefix in ("algo", "store", "par", "cluster",
                              "serve", "fleet")

    def test_obs_counters_mirror_firings(self):
        from repro.obs import MetricsRegistry
        registry = FailpointRegistry()
        obs = MetricsRegistry()
        registry.attach_obs(obs)
        registry.activate(POINT, action="raise", max_fires=2)
        for _ in range(2):
            with pytest.raises(FaultInjected):
                registry.fire(POINT)
        assert obs.counter("faults.fired").value == 2
        assert obs.counter(f"faults.{POINT}").value == 2
