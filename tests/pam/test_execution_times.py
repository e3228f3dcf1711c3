"""PAM with non-zero execution times (the §III-A N-cycles extension)."""

from repro.engine import AsapPolicy, simulate_model
from repro.pam.experiments import build_configuration, concurrent_firings


class TestExecutionTimes:
    def test_fft_cycles_slow_the_chain(self):
        fast = build_configuration("infinite")
        slow = build_configuration("infinite", cycles={"fft": 2})
        fast_run = simulate_model(fast, AsapPolicy(), 60)
        slow_run = simulate_model(slow, AsapPolicy(), 60)
        assert slow_run.trace.count("logger.start") \
            < fast_run.trace.count("logger.start")
        assert slow_run.trace.count("fft.isExecuting") > 0

    def test_exec_overlaps_other_agents_when_unconstrained(self):
        # with infinite resources, other agents fire while the fft is
        # still executing — true pipelining
        model = build_configuration("infinite", cycles={"fft": 3})
        run = simulate_model(model, AsapPolicy(), 60)
        overlapping = [
            step for step in run.trace
            if "fft.isExecuting" in step and concurrent_firings(step) > 0]
        assert overlapping

    def test_mono_serializes_even_long_executions(self):
        model = build_configuration("mono", cycles={"fft": 2})
        run = simulate_model(model, AsapPolicy(), 80)
        busy = False
        for step in run.trace:
            if "fft.start" in step and "fft.stop" not in step:
                busy = True
            if busy:
                # nobody else may start while the fft occupies the DSP
                assert concurrent_firings(step) == 0 or \
                    "fft.start" in step
            if "fft.stop" in step:
                busy = False

    def test_speed_factor_stretches_execution(self):
        from repro.deployment import Allocation, Platform, deploy
        from repro.pam.application import build_pam_application, PAM_AGENTS
        model, app = build_pam_application(cycles={"fft": 1})
        platform = Platform("slowmono")
        platform.processor("dsp", speed_factor=3)
        result = deploy(model, app, platform,
                        Allocation({name: "dsp" for name in PAM_AGENTS}))
        assert result.effective_cycles["fft"] == 3
        assert result.effective_cycles["hydro"] == 0
