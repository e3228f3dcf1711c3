"""Removed entry points stay removed, and their replacements are
warning-free.

``Simulator``, ``build_execution_model`` and ``run_campaign`` were
deprecated aliases of ``simulate_model``, ``weave_sdf`` and
``campaign``; they are gone, so importing them fails loudly instead of
warning, and nothing on the supported paths emits a
``DeprecationWarning``.
"""

import importlib
import warnings

import pytest

from repro.engine import AsapPolicy, simulate_model
from repro.engine.campaign import campaign
from repro.sdf import SdfBuilder, weave_sdf


def two_agent_model():
    builder = SdfBuilder("shim")
    builder.agent("p")
    builder.agent("c")
    builder.connect("p", "c", capacity=2)
    return builder.build()


class TestRemovedShims:
    @pytest.mark.parametrize("module, name", [
        ("repro.engine", "Simulator"),
        ("repro.engine.simulator", "Simulator"),
        ("repro.sdf", "build_execution_model"),
        ("repro.sdf.mapping", "build_execution_model"),
        ("repro.engine.campaign", "run_campaign"),
    ])
    def test_old_name_is_gone(self, module, name):
        assert not hasattr(importlib.import_module(module), name)


class TestBuildExecutionModelShim:
    def test_new_name_does_not_warn(self):
        model, _app = two_agent_model()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            weave_sdf(model)


class TestSimulatorShim:
    def test_core_does_not_warn(self):
        model, _app = two_agent_model()
        woven = weave_sdf(model)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            simulate_model(woven.execution_model.clone(), AsapPolicy(), 5)


class TestRunCampaignShim:
    def test_campaign_does_not_warn(self):
        model, _app = two_agent_model()
        woven = weave_sdf(model)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            rows = campaign(woven.execution_model, steps=8,
                            watch_events=["p.start"])
        assert rows


class TestWorkbenchUsesNoDeprecatedPaths:
    def test_facade_is_warning_free(self):
        from repro.workbench import Workbench
        builder = SdfBuilder("clean")
        builder.agent("p")
        builder.agent("c")
        builder.connect("p", "c", capacity=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            wb = Workbench()
            wb.add(builder, name="clean")
            wb.simulate("clean", steps=5)
            wb.explore("clean")
            wb.campaign("clean", steps=5)
            wb.analyze("clean")
