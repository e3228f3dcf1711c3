"""Tests for the PAM case study (application, platforms, smoke study)."""

import pytest

from repro.engine import AsapPolicy, explore, simulate_model
from repro.pam import (
    PAM_AGENTS,
    allocation_for,
    build_pam_application,
    dual_processor_platform,
    mono_processor_platform,
    quad_processor_platform,
)
from repro.pam.experiments import (
    build_configuration,
    concurrent_firings,
    format_study,
    study_configuration,
)
from repro.sdf import analyze, check_application


class TestApplication:
    def test_structure(self):
        model, app = build_pam_application()
        assert [agent.name for agent in app.get("agents")] == list(PAM_AGENTS)
        assert len(app.get("places")) == 8
        assert check_application(app) == []

    def test_sdf_consistency(self):
        _model, app = build_pam_application()
        info = analyze(app)
        assert info.consistent
        # hydrophone is the multirate stage: 2 blocks per frame
        assert info.repetition["hydro"] == 2
        assert all(info.repetition[name] == 1 for name in PAM_AGENTS
                   if name != "hydro")
        assert info.deadlock_free

    def test_custom_cycles(self):
        _model, app = build_pam_application(cycles={"fft": 3})
        agents = {agent.name: agent for agent in app.get("agents")}
        assert agents["fft"].get("cycles") == 3
        assert agents["hydro"].get("cycles") == 0


class TestPlatforms:
    def test_allocations_are_total(self):
        for name, platform_factory in (
                ("mono", mono_processor_platform),
                ("dual", dual_processor_platform),
                ("quad", quad_processor_platform)):
            _model, app = build_pam_application()
            allocation = allocation_for(name)
            assert allocation.check(app, platform_factory()) == []

    def test_unknown_platform(self):
        with pytest.raises(KeyError):
            allocation_for("hexa")

    def test_quad_is_fully_connected(self):
        platform = quad_processor_platform()
        assert platform.latency("core0", "core3") == 2


class TestStudySmoke:
    """Bounded versions of experiment E7 (the full study runs in the
    benchmark harness)."""

    def test_infinite_configuration_builds(self):
        execution_model = build_configuration("infinite")
        assert len(execution_model.events) == 40
        simulation = simulate_model(execution_model, AsapPolicy(), 20)
        assert simulation.trace.count("logger.start") > 0

    def test_mono_never_fires_two_agents_together(self):
        execution_model = build_configuration("mono")
        simulation = simulate_model(execution_model, AsapPolicy(), 30)
        for step in simulation.trace:
            assert concurrent_firings(step) <= 1

    def test_infinite_fires_agents_in_parallel(self):
        execution_model = build_configuration("infinite")
        simulation = simulate_model(execution_model, AsapPolicy(), 30)
        assert max(concurrent_firings(step)
                   for step in simulation.trace) >= 2

    def test_deployment_reduces_scheduling_freedom(self):
        free = explore(build_configuration("infinite"), max_states=400)
        mono = explore(build_configuration("mono"), max_states=400)
        if not (free.truncated or mono.truncated):
            assert mono.n_transitions < free.n_transitions

    def test_study_row_fields(self):
        row = study_configuration("mono", max_states=2000, sim_steps=40)
        data = row.as_dict()
        assert data["deployment"] == "mono"
        assert data["states"] > 0
        assert data["max_concurrent_firings"] == 1
        table = format_study([row])
        assert "mono" in table

    def test_truncated_study_does_not_claim_deadlock_freedom(self):
        row = study_configuration("quad", max_states=50, sim_steps=10)
        assert row.truncated
        assert row.deadlock_free is None
        assert row.as_dict()["deadlock_free"] is None
        quad_line = format_study([row]).splitlines()[2]
        assert quad_line.split()[3] == "?"

    def test_complete_study_proves_deadlock_freedom(self):
        row = study_configuration("mono", sim_steps=10)
        assert not row.truncated
        assert row.deadlock_free is True
        assert format_study([row]).splitlines()[2].split()[3] == "yes"

    def test_dual_between_mono_and_infinite(self):
        mono = study_configuration("mono", max_states=3000, sim_steps=60)
        dual = study_configuration("dual", max_states=3000, sim_steps=60)
        infinite = study_configuration("infinite", max_states=3000,
                                       sim_steps=60)
        assert (mono.max_concurrent_firings
                < dual.max_concurrent_firings
                <= infinite.max_concurrent_firings)
        assert (mono.logger_throughput
                < dual.logger_throughput
                < infinite.logger_throughput)
