"""The plugin hook under multiprocessing.

A custom policy registered via a plugin module must run correctly under
``jobs=4`` pool workers, producing results identical to ``jobs=1`` — the
ROADMAP's ``jobs=1`` caveat for runtime registrations is gone.  Workers are
forked from the driver and inherit what it registered, but the contract is
the declared plugin module, which every worker imports if it lacks it.
"""

from __future__ import annotations

import pytest

from repro.analysis.serialize import experiment_result_to_dict
from repro.memctrl.policies import _POLICY_REGISTRY, available_policies
from repro.runner import RunSpec, run_sweep
from repro.scenario import load_plugins, unregister_scenario
from repro.sim.clock import MS

PLUGIN = "sample_scenario_plugin"
SHORT_PS = 2 * MS // 5
TRAFFIC = 0.2


@pytest.fixture
def plugin_loaded():
    # A plugin import is cached per process, so re-run its registration hook
    # explicitly: this fixture's teardown removes the registrations and a
    # later test may load the (already imported) module again.
    module = load_plugins([PLUGIN])[0]
    module._register()
    yield
    _POLICY_REGISTRY.pop("plugin_newest_first", None)
    unregister_scenario("plugin_case")


def _specs(seeds):
    return [
        RunSpec(
            scenario="case_b",
            policy="plugin_newest_first",
            duration_ps=SHORT_PS,
            traffic_scale=TRAFFIC,
            seed=seed,
            plugin_modules=(PLUGIN,),
        )
        for seed in seeds
    ]


class TestPluginLoading:
    def test_load_plugins_registers_policy_and_scenario(self, plugin_loaded):
        from repro.scenario import get_scenario

        assert "plugin_newest_first" in available_policies()
        assert get_scenario("plugin_case").policy == "plugin_newest_first"

    def test_missing_plugin_module_is_actionable(self):
        with pytest.raises(ImportError, match="no_such_plugin_module"):
            load_plugins(["no_such_plugin_module"])

    def test_load_plugins_skips_already_imported_modules(self, monkeypatch):
        # The sweep hot path calls load_plugins once per spec; after the
        # first import the call must not touch the import machinery at all.
        import repro.scenario.plugins as plugins_module

        (module,) = load_plugins([PLUGIN])

        def exploding_import(name):
            raise AssertionError(
                f"import machinery invoked for already-imported module {name!r}"
            )

        monkeypatch.setattr(
            plugins_module.importlib, "import_module", exploding_import
        )
        assert load_plugins([PLUGIN]) == [module]


class TestPluginUnderSpawnWorkers:
    def test_custom_policy_jobs4_matches_jobs1(self, plugin_loaded):
        seeds = [1, 2, 3, 4]
        sequential, seq_stats = run_sweep(_specs(seeds), jobs=1)
        assert seq_stats.executed == len(seeds)

        parallel, par_stats = run_sweep(_specs(seeds), jobs=4)
        assert par_stats.executed == len(seeds)

        assert [
            experiment_result_to_dict(result, include_trace=True)
            for result in sequential
        ] == [
            experiment_result_to_dict(result, include_trace=True)
            for result in parallel
        ]

    def test_plugin_scenario_resolves_in_fresh_process(self, tmp_path):
        # run_sweep must import a spec's plugin modules before computing its
        # cache key: in a fresh process nothing is registered yet, and the
        # key resolution itself needs the plugin's scenario.
        import os
        import subprocess
        import sys

        code = (
            "from repro.runner import RunSpec, run_sweep\n"
            f"spec = RunSpec(scenario='plugin_case', duration_ps={SHORT_PS}, "
            f"traffic_scale={TRAFFIC}, plugin_modules=('{PLUGIN}',))\n"
            "results, stats = run_sweep([spec], jobs=1)\n"
            "print(results[0].scenario, results[0].policy)\n"
        )
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                [os.path.join(repo, "src"), os.path.join(repo, "tests")]
            ),
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert "plugin_case plugin_newest_first" in proc.stdout

    def test_plugin_scenario_runs_in_workers(self, plugin_loaded):
        specs = [
            RunSpec(
                scenario="plugin_case",
                duration_ps=SHORT_PS,
                traffic_scale=TRAFFIC,
                seed=seed,
                plugin_modules=(PLUGIN,),
            )
            for seed in (1, 2)
        ]
        results, stats = run_sweep(specs, jobs=2)
        assert stats.executed == 2
        for result in results:
            assert result.scenario == "plugin_case"
            assert result.policy == "plugin_newest_first"
