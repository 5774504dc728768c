"""The probe contract: per-site arming, fan-out order, completeness, and
the keeper hooks."""

import json

from repro.analysis import Sanitizer
from repro.core import SSDKeeper
from repro.core import keeper as keeper_module
from repro.harness.driftlab import heuristic_allocator, lab_configs
from repro.obs import Observability
from repro.ssd import FaultConfig, Probe, SSDConfig, SSDSimulator, probes, simulate
from repro.workloads import WorkloadSpec, build_scenario, synthesize_mix


def faulted_gc_scenario():
    """Tiny planes force GC; a high read error rate with one retry makes
    some reads unrecoverable."""
    config = SSDConfig(blocks_per_plane=6, pages_per_block=16)
    specs = [
        WorkloadSpec(name="writer", write_ratio=0.9, rate_rps=4000.0,
                     footprint_pages=220),
        WorkloadSpec(name="reader", write_ratio=0.2, rate_rps=3000.0,
                     footprint_pages=220),
    ]
    requests = synthesize_mix(specs, total_requests=1200, seed=7).requests
    faults = FaultConfig(seed=5, read_ber=0.3, max_read_retries=1,
                         program_fail_rate=0.001, erase_fail_rate=0.005)
    return requests, config, {0: [0], 1: [1]}, faults


def hook_sites(sim):
    """Every component-level hook handle of one device."""
    ctrl = sim.controller
    mapping = ctrl.state.mapping
    sites = {
        "loop.on_event": sim.loop._on_event,
        "mapping.on_bind": mapping._on_bind,
        "mapping.on_unbind": mapping._on_unbind,
        "gc.after_gc": ctrl.gc._after_gc,
        "ctrl.after_retire": ctrl._after_retire,
    }
    for res in (*sim.channels, *sim.dies):
        sites[f"{res.name}.on_grant"] = res._on_grant
        sites[f"{res.name}.on_release"] = res._on_release
    return sites


class Submits(Probe):
    def __init__(self):
        self.seen = []

    def on_submit(self, req, now_us):
        self.seen.append(req)


class Recorder(Probe):
    def __init__(self):
        self.submitted = {}
        self.completed = {}
        self.failed = 0

    def on_submit(self, req, now_us):
        self.submitted[id(req)] = self.submitted.get(id(req), 0) + 1

    def on_complete(self, req, now_us, failed, span):
        self.completed[id(req)] = self.completed.get(id(req), 0) + 1
        self.failed += failed


class TestPerSiteArming:
    def test_submit_only_probe_leaves_component_sites_disarmed(self):
        probe = Submits()
        sim = SSDSimulator(SSDConfig.small(), {0: [0, 1]}, obs=probe)
        assert all(fn is None for fn in hook_sites(sim).values())
        assert sim._on_complete is None and sim._span is None
        assert sim._on_submit == probe.on_submit

    def test_untraced_observability_arms_no_grant_or_release(self):
        sim = SSDSimulator(
            SSDConfig.small(), {0: [0, 1]}, obs=Observability(trace=False)
        )
        sites = hook_sites(sim)
        assert not any(
            fn for name, fn in sites.items()
            if name.endswith(("on_grant", "on_release"))
        )
        assert sim._on_dispatch is None and sim._on_submit is None
        assert sites["gc.after_gc"] is not None  # GC counters still publish

    def test_sanitizer_arms_its_checks_only(self):
        sim = SSDSimulator(SSDConfig.small(), {0: [0, 1]}, obs=Sanitizer())
        sites = hook_sites(sim)
        assert all(fn is not None for name, fn in sites.items()
                   if not name.endswith("on_release"))
        assert sim.channels[0]._on_release is None
        assert sim._on_submit is None and sim._on_complete is None


class TestCompleteness:
    def test_one_submit_and_one_complete_per_request(self):
        requests, config, sets, faults = faulted_gc_scenario()
        probe = Recorder()
        result = simulate(requests, config, sets, obs=probe, faults=faults)
        assert result.failed_reads > 0 and result.gc_collections > 0
        assert probe.failed == result.failed_reads
        every = {id(r): 1 for r in requests}
        assert probe.submitted == every
        assert probe.completed == every


class TestComposition:
    def test_fan_out_calls_subscribers_in_composition_order(self):
        calls = []

        class Tagged(Probe):
            def __init__(self, tag):
                self.tag = tag

            def on_submit(self, req, now_us):
                calls.append(self.tag)

        fan = probes(Tagged("a"), probes(Tagged("b"), Tagged("c")), None)
        fan.hook("on_submit")(None, 0.0)
        assert calls == ["a", "b", "c"]
        assert fan.hook("on_event") is None

    def test_nothing_composes_to_none(self):
        assert probes() is None
        assert probes(None, None) is None
        only = Submits()
        assert probes(None, only) is only

    def test_sanitizer_links_are_made_at_composition(self, tmp_path):
        requests, config, sets, faults = faulted_gc_scenario()
        obs = Observability(
            trace=False, attribution=True, flight_recorder=tmp_path,
        )
        sanitizer = Sanitizer()
        simulate(requests, config, sets, obs=probes(obs, sanitizer),
                 faults=faults)
        assert sanitizer.stats()["attribution_checks"] > 0
        [bundle] = obs.flight_recorder.bundles
        manifest = json.loads((bundle / "manifest.json").read_text())
        assert "sanitizer_events.json" in manifest["bundle_files"]


def lab_keeper(obs=None):
    """The drift lab's keeper: four tenants on the small device."""
    return SSDKeeper(
        heuristic_allocator(), SSDConfig.small(),
        collect_window_us=10_000.0, intensity_quantum=50.0, obs=obs,
    )


def hotspot_requests():
    return build_scenario(
        "migrating_hotspot", seed=0, phases=4, phase_us=25_000.0
    ).requests


class Decisions(Probe):
    def __init__(self):
        self.calls = []

    def on_decision(self, now_us, decision, switched, suppressed):
        self.calls.append((now_us, decision, switched, suppressed))


class TestKeeperHooks:
    def test_sanitizer_arms_no_keeper_site_and_replays_nothing(self, monkeypatch):
        replays = []
        real = keeper_module.fast_simulate

        def counting(*args, **kwargs):
            replays.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(keeper_module, "fast_simulate", counting)
        keeper = lab_keeper(obs=Sanitizer())
        assert keeper._on_decision is None
        assert keeper._on_drift is None and keeper._on_retrain is None
        run = keeper.run(hotspot_requests())
        assert run.switched and replays == []
        # the prediction replay runs behind the armed decision site only
        lab_keeper(obs=Decisions()).run(hotspot_requests())
        assert replays == [1]

    def test_one_decision_hook_per_periodic_decision(self):
        probe = Decisions()
        run = lab_keeper(obs=probe).run_periodic(hotspot_requests())
        assert len(probe.calls) == len(run.decisions) > 1
        for (now_us, record, _, _), (t_us, _, strategy) in zip(
            probe.calls, run.decisions
        ):
            assert now_us == record.time_us == t_us
            assert record.strategy == strategy.label
        assert [c[1] for c in probe.calls] == run.records
        realised = [record.realised_mean_us for _, record, _, _ in probe.calls]
        assert realised == run.realised_us
        assert any(v is not None for v in realised)
        assert probe.calls[0][2]  # the first decision leaves Shared
        assert not any(c[3] for c in probe.calls)  # no limiter unless adaptive

    def test_armed_and_unarmed_adaptive_runs_decide_alike(self):
        drift, retrain = lab_configs()

        def behaviour(obs):
            run = lab_keeper(obs).run_adaptive(
                hotspot_requests(), drift=drift, retrain=retrain
            )
            return {
                "decisions": [(t, s.label) for t, _, s in run.decisions],
                "realised_us": run.realised_us,
                "drift": [e.to_dict() for e in run.drift_events],
                "retrain": [e.to_dict() for e in run.retrain_events],
                "suppressed": run.suppressed_switches,
                "degraded": run.degraded_windows,
            }

        obs = Observability()
        armed = behaviour(obs)
        assert armed == behaviour(None)
        assert armed["drift"] and armed["retrain"]
        counters = obs.registry.snapshot()["counters"]
        assert counters["drift.detections"] == len(armed["drift"])
        assert counters["keeper.retrains"] == len(armed["retrain"])
        assert len(obs.decisions) == len(armed["decisions"])
