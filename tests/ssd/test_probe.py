"""The device probe contract: per-site arming, fan-out order, completeness."""

import json

from repro.analysis import Sanitizer
from repro.obs import Observability
from repro.ssd import FaultConfig, Probe, SSDConfig, SSDSimulator, probes, simulate
from repro.workloads import WorkloadSpec, synthesize_mix


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
