"""Policy instrument tests: levy, fiduciary blend, adaptive rule, robust choice."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infomarket.config import SimParams
from infomarket.errors import ConfigError, NoConvergence
from infomarket.harness import DEFAULT_POLICY_SCENARIOS, Simulation, robust_select
from infomarket.policy import PolicyConfig, adaptive_tax, fiduciary_objective, max_min_select


class TestFiduciaryObjective:
    def test_pure_profit_at_zero(self):
        assert fiduciary_objective(10.0, 6.0, 2.0, 0.0) == 10.0

    def test_pure_welfare_fragment_at_one(self):
        assert fiduciary_objective(10.0, 6.0, 2.0, 1.0) == 4.0

    def test_midpoint(self):
        assert fiduciary_objective(10.0, 6.0, 2.0, 0.5) == pytest.approx(7.0)

    @given(
        profit=st.floats(-100, 100), value=st.floats(0, 100),
        harm=st.floats(0, 100), alpha=st.floats(0, 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_affine_in_alpha(self, profit, value, harm, alpha):
        f0 = fiduciary_objective(profit, value, harm, 0.0)
        f1 = fiduciary_objective(profit, value, harm, 1.0)
        expected = f0 + alpha * (f1 - f0)
        assert fiduciary_objective(profit, value, harm, alpha) == pytest.approx(
            expected, abs=1e-9
        )


class TestAdaptiveTax:
    def test_on_target_unchanged(self):
        assert adaptive_tax(0.7, 0.4, 0.4, 0.1) == pytest.approx(0.7)

    def test_frozen_controller(self):
        assert adaptive_tax(0.7, 0.9, 0.4, 0.0) == pytest.approx(0.7)

    def test_direct_evaluation(self):
        # 0.5 + 0.1 * (0.8 - 0.4) / 0.4 = 0.6
        assert adaptive_tax(0.5, 0.8, 0.4, 0.1) == pytest.approx(0.6, rel=1e-12)

    def test_floor_at_zero(self):
        assert adaptive_tax(0.01, 0.1, 0.5, 0.5) == 0.0

    @given(tax=st.floats(0, 5), ipi=st.floats(0, 1), target=st.floats(0.05, 0.95))
    @example(tax=1.0, ipi=0.05000000000000001, target=0.05)  # a step of 6.9e-18 rounds away
    @settings(max_examples=300, deadline=None)
    def test_moves_up_iff_above_target(self, tax, ipi, target):
        new = adaptive_tax(tax, ipi, target, 0.05)
        step = 0.05 * (ipi - target) / target
        if tax + step == tax:  # the step is below half an ulp of the levy
            assert new == tax
        elif ipi > target:
            assert new > tax
        elif new > 0.0:  # before the zero clamp binds
            assert new <= tax


class TestScenarioConfig:
    SCENARIOS = {label: overrides for label, overrides, _note in DEFAULT_POLICY_SCENARIOS}

    def test_baseline_is_zero_instrument(self):
        assert self.SCENARIOS["baseline"] == {}
        pp = SimParams().with_overrides(self.SCENARIOS["baseline"]).policy
        assert (pp.tax_init, pp.fiduciary, pp.provenance_boost) == (0.0, 0.0, 0.0)
        assert not pp.adaptive_enabled

    def test_joint_contains_both_single_instruments(self):
        joint = self.SCENARIOS["joint"]
        for key, value in {**self.SCENARIOS["pigouvian"], **self.SCENARIOS["subsidy"]}.items():
            assert joint[key] == value

    def test_all_six_resolve(self):
        assert list(self.SCENARIOS) == [
            "baseline", "pigouvian", "subsidy", "joint", "tech", "efficiency"]
        for overrides in self.SCENARIOS.values():
            # No scenario sets an instrument: each runs the run's policy section.
            assert not any(key.startswith("policy.") for key in overrides)
            SimParams().with_overrides(overrides)


class TestPolicyConfigValidation:
    """`Simulation` folds a `PolicyConfig` into the parameters' policy
    section, whose checks reject a bad value under its ``policy.*`` key."""

    def test_bounds(self):
        params = SimParams().with_overrides(SMALL)
        for policy, message in [
            (PolicyConfig(tax_l=-0.1), "policy.tax_init must be nonnegative, got -0.1"),
            (PolicyConfig(fiduciary=1.5), "policy.fiduciary must lie in [0, 1], got 1.5"),
            (PolicyConfig(provenance_boost=-0.1),
             "policy.provenance_boost must be nonnegative, got -0.1"),
            (PolicyConfig(adaptive_eta=0.0, ipi_target=0.5),
             "policy.adaptive_eta must be positive, got 0.0"),
            (PolicyConfig(adaptive_eta=0.1, ipi_target=1.0),
             "policy.adaptive_target must lie in (0, 1), got 1.0"),
        ]:
            with pytest.raises(ConfigError) as info:
                Simulation(params, policy, 42)
            assert str(info.value) == message

    def test_adaptive_requires_both_fields(self):
        # Alone, an eta or a target leaves the rule off and goes unchecked,
        # as the section leaves its own rule keys while the rule is off.
        params = SimParams().with_overrides(SMALL)
        for policy in (PolicyConfig(adaptive_eta=0.0), PolicyConfig(ipi_target=1.0)):
            assert not Simulation(params, policy, 42).params.policy.adaptive_enabled
        pp = Simulation(params, PolicyConfig(adaptive_eta=0.1, ipi_target=0.4), 42).params.policy
        assert (pp.adaptive_enabled, pp.adaptive_eta, pp.adaptive_target) == (True, 0.1, 0.4)


SMALL = {
    "agents.n_producers": 30,
    "agents.n_consumers": 60,
    "ipi.anchor_m_points": 3,
    "ipi.anchor_gamma_points": 3,
    "ipi.anchor_tax_points": 2,
}


class TestRobustSelect:
    def test_singleton_case(self):
        selection = robust_select(
            [("baseline", {})], [{"econ.ai_rental": 1.0}], horizon=10,
            base_params=SimParams().with_overrides(SMALL), master_seed=1,
        )
        assert selection.selected_index == 0
        assert selection.selected == "baseline"

    def test_two_by_two_matches_brute_force(self):
        policies = [("baseline", {}), ("levy", {"policy.tax_init": 0.8})]
        worlds = [{"econ.ai_rental": 0.8}, {"econ.ai_rental": 1.2}]
        selection = robust_select(
            policies, worlds, horizon=30,
            base_params=SimParams().with_overrides(SMALL), master_seed=42,
        )
        worst = [min(row) for row in selection.welfare_matrix]
        brute = max(range(len(policies)), key=lambda i: worst[i])
        assert selection.selected_index == brute

    def test_world_permutation_invariance(self):
        policies = [("baseline", {}), ("levy", {"policy.tax_init": 0.8})]
        worlds = [{"econ.ai_rental": 0.8}, {"econ.ai_rental": 1.2}]
        base = SimParams().with_overrides(SMALL)
        fwd = robust_select(policies, worlds, 20, base_params=base, master_seed=7)
        rev = robust_select(policies, worlds[::-1], 20, base_params=base, master_seed=7)
        assert fwd.selected_index == rev.selected_index
        assert fwd.welfare_matrix[0][0] == rev.welfare_matrix[0][1]

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            robust_select([], [{}], 10)
        with pytest.raises(ValueError):
            robust_select([("baseline", {})], [], 10)


class TestMaxMinSelect:
    POLICIES = ["a", "b", "c"]

    def test_best_worst_case_wins(self):
        welfare = [[5.0, 1.0], [3.0, 2.0], [9.0, 0.5]]
        ipi = [[0.5, 0.5]] * 3
        selection = max_min_select(self.POLICIES, welfare, ipi, [])
        assert (selection.selected_index, selection.selected) == (1, "b")
        assert selection.welfare_matrix == ((5.0, 1.0), (3.0, 2.0), (9.0, 0.5))

    def test_tie_breaks_on_lower_mean_index_then_order(self):
        welfare = [[2.0, 2.0], [2.0, 3.0], [2.0, 4.0]]
        assert max_min_select(self.POLICIES, welfare, [[0.6, 0.6], [0.4, 0.4], [0.4, 0.4]],
                              []).selected_index == 1

    def test_failed_cell_disqualifies_its_policy(self):
        welfare = [[9.0, 9.0], [1.0, 1.0], [0.0, 0.0]]
        ipi = [[0.5, 0.5]] * 3
        selection = max_min_select(self.POLICIES, welfare, ipi, [(0, 1)])
        assert selection.selected_index == 1
        assert selection.failures == ((0, 1),)

    def test_a_nan_cell_disqualifies_its_policy(self):
        # min([nan, 1.0]) is nan, which compares false against any key.
        welfare = [[math.nan, 1.0], [0.5, 0.6], [0.2, 0.3]]
        ipi = [[0.5, 0.5]] * 3
        assert max_min_select(self.POLICIES, welfare, ipi, []).selected_index == 1
        ipi = [[0.5, math.nan], [0.5, 0.5], [0.5, 0.5]]
        assert max_min_select(self.POLICIES, [[9.0, 9.0]] * 3, ipi, []).selected_index == 1

    def test_no_measured_policy_is_not_a_convergence_failure(self):
        with pytest.raises(ValueError, match="no candidate policy has a measured"):
            max_min_select(self.POLICIES, [[math.nan] * 2] * 3, [[math.nan] * 2] * 3, [])

    def test_every_policy_failing_is_a_convergence_failure(self):
        failures = [(0, 0), (1, 1), (2, 0)]
        with pytest.raises(NoConvergence, match=r"\(policy 1, world 1\)"):
            max_min_select(self.POLICIES, [[0.0, 0.0]] * 3, [[0.5, 0.5]] * 3, failures)
