"""SSDKeeper online workflow (Algorithm 2).

One :class:`SSDKeeper` run plays the paper's Algorithm 2 against a trace:

1. **collect phase** (``t < T``): the device runs with the traditional
   *Shared* allocation while the features collector observes every
   submitted request;
2. **decide** (``t == T``): the collector's vector goes through the trained
   channel allocator, producing a strategy;
3. **apply** (``t > T``): the FTL switches to the chosen channel allocation
   and the hybrid page-allocation modes; data written before the switch
   stays where it is (reads keep resolving through the mapping table).

The switch happens *inside* the event-driven simulation via a scheduled
reallocation event, so phase-1 conflicts, in-flight requests across the
boundary, and residual old-channel traffic are all modelled.

The keeper reports through the same :class:`~repro.ssd.probe.Probe` as the
devices it drives.  Every decision is a :class:`KeeperDecision` the keeper
builds and settles itself; the probe's keeper hooks (``on_decision``,
``on_drift``, ``on_retrain``) are armed once, at construction, and receive
each decision, drift check and retrain as it happens.  An unarmed keeper
takes exactly the decisions an armed one does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..ssd.config import SSDConfig
from ..ssd.fastmodel import fast_simulate
from ..ssd.faults import FaultConfig
from ..ssd.metrics import SimulationResult
from ..ssd.probe import Probe, hook, probes
from ..ssd.request import IORequest, OpType
from ..ssd.simulator import SSDSimulator
from .allocator import ChannelAllocator, verified_allocate
from .drift import DriftConfig, DriftDetector, DriftEvent
from .features import FeaturesCollector, FeatureVector
from .hybrid import PagePolicy, page_modes_for
from .online import ReplayBuffer, ReplayWindow, RetrainConfig, RetrainEvent, RetrainGovernor
from .strategies import Strategy, StrategyKind

__all__ = ["KeeperDecision", "KeeperRun", "PeriodicRun", "SSDKeeper"]


@dataclass
class KeeperDecision:
    """Record of one keeper decision, handed to the ``on_decision`` hook.

    ``predicted_mean_us`` is the fast-model estimate of the chosen
    strategy's mean request latency on the observed window (filled in
    adaptive runs, where it feeds the drift residual, and in one-shot runs
    whose probe arms ``on_decision``); ``realised_mean_us`` is the
    measured mean — per adaptation window in periodic runs, over the whole
    run for the one-shot workflow.
    """

    time_us: float
    features: FeatureVector
    strategy: str
    window_requests: int
    predicted_mean_us: float | None = None
    realised_mean_us: float | None = None
    #: non-``None`` when this decision was a graceful degradation (the model
    #: was bypassed); holds the trigger, e.g. ``"unhealthy prediction: ..."``
    fallback_reason: str | None = None

    def to_dict(self) -> dict:
        return {
            "time_us": self.time_us,
            "features": self.features.to_array().tolist(),
            "strategy": self.strategy,
            "window_requests": self.window_requests,
            "predicted_mean_us": self.predicted_mean_us,
            "realised_mean_us": self.realised_mean_us,
            "fallback_reason": self.fallback_reason,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "KeeperDecision":
        """Rebuild a decision from :meth:`to_dict` output (round-trip)."""
        flat = data["features"]
        n_tenants = (len(flat) - 1) // 2
        return cls(
            time_us=data["time_us"],
            features=FeatureVector.from_array(flat, n_tenants),
            strategy=data["strategy"],
            window_requests=data["window_requests"],
            predicted_mean_us=data["predicted_mean_us"],
            realised_mean_us=data["realised_mean_us"],
            fallback_reason=data.get("fallback_reason"),
        )


@dataclass
class KeeperRun:
    """Outcome of one Algorithm-2 run."""

    result: SimulationResult
    features: FeatureVector | None
    strategy: Strategy | None
    switched_at_us: float | None
    #: set when the deployed strategy came from graceful degradation rather
    #: than the model (see :meth:`SSDKeeper._decide`)
    fallback_reason: str | None = None

    @property
    def switched(self) -> bool:
        return self.strategy is not None


@dataclass
class PeriodicRun:
    """Outcome of a periodic (multi-window) adaptation run.

    ``decisions`` holds one ``(time_us, features, strategy)`` triple per
    window in which the keeper re-decided; windows with no traffic are
    skipped (the previous allocation stays).  ``records`` holds the
    matching :class:`KeeperDecision` records, and ``realised_us`` reads
    their realised latencies: entry *i* is the measured mean latency of
    the window that followed decision *i* (``None`` when nothing
    completed in it).  The ``drift_events`` / ``retrain_events`` /
    degradation fields are only populated by adaptive runs
    (:meth:`SSDKeeper.run_adaptive`).
    """

    result: SimulationResult
    decisions: list[tuple[float, FeatureVector, Strategy]]
    records: list[KeeperDecision] = field(default_factory=list)
    drift_events: list[DriftEvent] = field(default_factory=list)
    retrain_events: list[RetrainEvent] = field(default_factory=list)
    #: healthy re-decisions the switch-rate limiter refused to deploy
    suppressed_switches: int = 0
    #: windows decided while degraded to Shared on persistent drift
    degraded_windows: int = 0

    @property
    def switches(self) -> int:
        return len(self.decisions)

    @property
    def realised_us(self) -> list[float | None]:
        """Per-decision realised mean latency of the following window."""
        return [record.realised_mean_us for record in self.records]

    @property
    def retrains(self) -> int:
        return len(self.retrain_events)

    @property
    def promotions(self) -> int:
        return sum(1 for e in self.retrain_events if e.promoted)

    @property
    def rollbacks(self) -> int:
        return sum(1 for e in self.retrain_events if not e.promoted)

    def distinct_strategies(self) -> list[str]:
        seen: list[str] = []
        for _, _, strategy in self.decisions:
            if strategy.label not in seen:
                seen.append(strategy.label)
        return seen


class _WindowTap(Probe):
    """The keeper's subscription to a device: feeds each request arriving
    before ``until_us`` to the features collector (and, with ``keep``,
    to :attr:`requests`)."""

    def __init__(
        self, collector: FeaturesCollector, *, keep: bool,
        until_us: float = math.inf,
    ) -> None:
        self.collector = collector
        self.keep = keep
        self.until_us = until_us
        self.requests: list[IORequest] = []

    def on_submit(self, req: IORequest, now_us: float) -> None:
        if req.arrival_us < self.until_us:
            self.collector.observe(req)
            if self.keep:
                self.requests.append(req)


class SSDKeeper:
    """Self-adapting channel allocation over one simulated device."""

    def __init__(
        self,
        allocator: ChannelAllocator,
        config: SSDConfig,
        *,
        collect_window_us: float,
        intensity_quantum: float,
        page_policy: PagePolicy = PagePolicy.HYBRID,
        record_latencies: bool = False,
        verify_top_k: int = 0,
        obs=None,
        faults: FaultConfig | None = None,
        fallback_error_rate: float = 0.5,
    ) -> None:
        if collect_window_us <= 0:
            raise ValueError("collect_window_us must be positive")
        if verify_top_k < 0:
            raise ValueError("verify_top_k must be non-negative")
        if not 0.0 < fallback_error_rate <= 1.0:
            raise ValueError("fallback_error_rate must be in (0, 1]")
        if config.channels != allocator.space.n_channels:
            raise ValueError(
                f"device has {config.channels} channels, allocator is trained "
                f"for {allocator.space.n_channels}"
            )
        self.allocator = allocator
        self.config = config
        self.collect_window_us = collect_window_us
        self.intensity_quantum = intensity_quantum
        self.page_policy = page_policy
        self.record_latencies = record_latencies
        #: >0 enables verified allocation: the network's top-k candidates
        #: are replayed on the observed window (fast model) and the
        #: measured best is deployed.  Extension beyond the paper.
        self.verify_top_k = verify_top_k
        #: the keeper's one observer, a :class:`repro.ssd.probe.Probe`
        #: (e.g. :class:`repro.obs.Observability`, a
        #: :class:`repro.analysis.Sanitizer`, or several composed with
        #: :func:`repro.ssd.probe.probes`): every simulator this keeper
        #: builds observes into it, and its keeper hooks receive each
        #: decision, drift check and retrain
        self.obs = obs
        self._on_decision = hook(obs, "on_decision")
        self._on_drift = hook(obs, "on_drift")
        self._on_retrain = hook(obs, "on_retrain")
        #: optional :class:`repro.ssd.faults.FaultConfig` applied to the
        #: underlying device (and to fast-model replays, as an expected-value
        #: derating)
        self.faults = faults
        #: graceful-degradation trigger: when the unhealthiest channel's
        #: observed error rate reaches this fraction, the keeper stops
        #: trusting the model and falls back (see :meth:`_decide`)
        self.fallback_error_rate = fallback_error_rate

    # ------------------------------------------------------------------
    def _decide(
        self,
        sim: SSDSimulator,
        features: FeatureVector,
        window_requests: Sequence[IORequest],
        last_good: Strategy | None = None,
    ) -> tuple[Strategy, str | None]:
        """Choose the strategy to deploy, degrading gracefully when needed.

        Two triggers bypass the model entirely: a channel whose observed
        error rate has reached ``fallback_error_rate`` (the window's
        features describe a device the training distribution never saw), and
        an unhealthy forward pass (NaN/out-of-range prediction).  Either way
        the keeper deploys ``last_good`` — the last strategy a healthy
        decision produced — or the traditional Shared allocation when there
        is none.

        Returns ``(strategy, fallback_reason)``; ``fallback_reason`` is
        ``None`` on the normal path.
        """
        reason = None
        if sim.faults is not None:
            channel, rate = sim.faults.worst_channel()
            if channel >= 0 and rate >= self.fallback_error_rate:
                reason = (
                    f"channel {channel} error rate {rate:.3f} >= "
                    f"{self.fallback_error_rate:.3f}"
                )
        if reason is None:
            health = self.allocator.prediction_health(features)
            if health is not None:
                reason = f"unhealthy prediction: {health}"
        if reason is not None:
            strategy = (
                last_good if last_good is not None else Strategy(StrategyKind.SHARED)
            )
            return strategy, reason
        if self.verify_top_k:
            strategy = verified_allocate(
                self.allocator,
                features,
                window_requests,
                self.config,
                top_k=self.verify_top_k,
                page_policy=self.page_policy,
                faults=self.faults,
            )
        else:
            strategy = self.allocator.allocate(features)
        return strategy, None

    def _deploy(
        self, sim: SSDSimulator, strategy: Strategy, features: FeatureVector
    ) -> None:
        """Switch the live FTL to ``strategy`` with the hybrid page modes."""
        sim.controller.reallocate(
            strategy.channel_sets(self.config.channels, features.write_dominated()),
            page_modes_for(self.page_policy, features),
        )

    def _replay_us(
        self, strategy: Strategy, features: FeatureVector,
        window: Sequence[IORequest],
    ) -> float:
        """Fast-model mean latency of ``window`` had ``strategy`` been deployed."""
        replay = fast_simulate(
            list(window),
            self.config,
            strategy.channel_sets(self.config.channels, features.write_dominated()),
            page_modes_for(self.page_policy, features),
            faults=self.faults,
        )
        return replay.mean_total_us

    # ------------------------------------------------------------------
    def _collecting_device(
        self, *, keep: bool, until_us: float = math.inf
    ) -> tuple[SSDSimulator, _WindowTap]:
        """The device Algorithm 2 starts on — Shared channels, static
        placement — observed by a features-collecting tap, then ``obs``."""
        n_tenants = self.allocator.space.n_tenants
        tap = _WindowTap(
            FeaturesCollector(n_tenants, intensity_quantum=self.intensity_quantum),
            keep=keep, until_us=until_us,
        )
        shared = {wid: list(range(self.config.channels)) for wid in range(n_tenants)}
        sim = SSDSimulator(
            self.config, shared, record_latencies=self.record_latencies,
            obs=probes(tap, self.obs), faults=self.faults,
        )
        return sim, tap

    def run(self, requests: Iterable[IORequest]) -> KeeperRun:
        """Play Algorithm 2 over ``requests``; returns latencies + decision."""
        window_end_us = self.collect_window_us
        sim, tap = self._collecting_device(
            keep=bool(self.verify_top_k) or self._on_decision is not None,
            until_us=window_end_us,
        )
        collector, window_requests = tap.collector, tap.requests
        decided: list[tuple[KeeperDecision, Strategy]] = []

        def switch() -> None:
            if collector.total_observed == 0:
                return  # nothing observed: stay on Shared
            features = collector.collect()
            strategy, fallback_reason = self._decide(
                sim, features, window_requests
            )
            self._deploy(sim, strategy, features)
            record = KeeperDecision(
                time_us=sim.loop.now,
                features=features,
                strategy=strategy.label,
                window_requests=collector.total_observed,
                fallback_reason=fallback_reason,
            )
            decided.append((record, strategy))
            if self._on_decision is not None:
                # the prediction only feeds the published record
                record.predicted_mean_us = self._replay_us(
                    strategy, features, window_requests
                )
                self._on_decision(sim.loop.now, record, True, False)

        sim.loop.schedule(window_end_us, switch)  # repro-lint: disable=R004 (window_end_us is an absolute pre-run boundary)
        result = sim.run(requests)
        if not decided:
            return KeeperRun(result, None, None, None)
        record, strategy = decided[0]
        record.realised_mean_us = result.mean_total_us
        return KeeperRun(
            result=result,
            features=record.features,
            strategy=strategy,
            switched_at_us=record.time_us,
            fallback_reason=record.fallback_reason,
        )

    # ------------------------------------------------------------------
    def run_periodic(
        self,
        requests: Sequence[IORequest],
        *,
        horizon_us: float | None = None,
        drift: DriftConfig | DriftDetector | None = None,
        retrain: RetrainConfig | None = None,
        switch_gap_windows: int = 0,
        switch_margin: float = 0.1,
    ) -> PeriodicRun:
        """Self-adapt **every** collection window, not just once.

        An extension beyond the paper's one-shot Algorithm 2: at the end of
        each window of ``collect_window_us`` the keeper re-collects the
        window's features, re-runs the allocator, and switches the live FTL
        if the decision changed.  Data stays where it was written; only new
        placements follow each new allocation — exactly the semantics of the
        single switch, repeated.

        ``horizon_us`` bounds the scheduling of adaptation events (defaults
        to the last arrival); the simulation itself always runs to
        completion.

        The optional hardening layer (see :meth:`run_adaptive` for the
        all-on entry point):

        * ``drift`` — a :class:`DriftConfig` (or pre-built
          :class:`DriftDetector`) watches the per-window feature stream
          and the predicted-vs-realised residuals; detections surface in
          :attr:`PeriodicRun.drift_events` and the ``on_drift`` hook.
          Persistent drift with unhealthy residuals degrades the keeper to
          Shared (a fallback decision) until a promoted retrain or
          recovered residuals lift it.
        * ``retrain`` — a :class:`RetrainConfig` arms the replay buffer
          and the guarded retraining flow: candidates are fine-tuned on
          harvested windows, shadow-validated on held-back ones, and
          promoted or rolled back (:attr:`PeriodicRun.retrain_events`,
          the ``on_retrain`` hook).
        * ``switch_gap_windows`` / ``switch_margin`` — the switch-rate
          limiter: within ``switch_gap_windows`` windows of the last
          switch a *different* healthy decision is deployed only when
          its fast-model win over the incumbent allocation exceeds
          ``switch_margin`` (relative); otherwise the switch is
          suppressed (:attr:`PeriodicRun.suppressed_switches`) and the
          incumbent stays — hysteresis against allocation thrash.
        """
        requests = list(requests)
        if not requests:
            raise ValueError("run_periodic needs a non-empty trace")
        if switch_gap_windows < 0:
            raise ValueError("switch_gap_windows must be non-negative")
        if switch_margin < 0:
            raise ValueError("switch_margin must be non-negative")
        adaptive = drift is not None or retrain is not None
        detector: DriftDetector | None = None
        if isinstance(drift, DriftDetector):
            detector = drift
        elif adaptive:
            detector = DriftDetector(drift)
        governor: RetrainGovernor | None = None
        buffer: ReplayBuffer | None = None
        if retrain is not None:
            governor = RetrainGovernor(
                self.config, retrain,
                page_policy=self.page_policy, faults=self.faults,
            )
            buffer = ReplayBuffer(retrain.capacity)

        sim, tap = self._collecting_device(keep=adaptive or bool(self.verify_top_k))
        collector, window_requests = tap.collector, tap.requests
        run = PeriodicRun(result=None, decisions=[])  # result filled after sim.run
        last_strategy: Strategy | None = None
        last_good: Strategy | None = None
        # Per-window state: cumulative totals at the previous adaptation
        # tick, the decision record the next window's realised latency
        # settles, plus adaptive bookkeeping.
        window_state = {
            "total_us": 0.0, "count": 0, "pending": None,
            "windows": 0, "last_switch": None,
            "unhealthy": 0, "healthy": 0, "drifted": False, "degraded": False,
        }

        def settle_window_us() -> float | None:
            """Realised mean latency of the window that just ended, recorded
            on the decision awaiting it."""
            reads = sim.acc.op_totals(OpType.READ)
            writes = sim.acc.op_totals(OpType.WRITE)
            total_latency_us = reads.total_us + writes.total_us
            count = reads.count + writes.count
            delta_us = total_latency_us - window_state["total_us"]
            delta_n = count - window_state["count"]
            window_state["total_us"] = total_latency_us
            window_state["count"] = count
            realised_us = delta_us / delta_n if delta_n else None
            pending = window_state["pending"]
            if pending is not None and realised_us is not None:
                pending.realised_mean_us = realised_us
            window_state["pending"] = None
            return realised_us

        def adapt() -> None:
            nonlocal last_strategy, last_good
            realised_us = settle_window_us()
            # relative residual of the strategy deployed over the window
            residual = None
            predicted_us = run.records[-1].predicted_mean_us if run.records else None
            if realised_us is not None and predicted_us:
                residual = (realised_us - predicted_us) / predicted_us
            if collector.total_observed == 0:
                window_requests.clear()
                return
            now = sim.loop.now
            observed = collector.total_observed
            features = collector.collect()
            collector.reset()
            window = tuple(window_requests)
            window_requests.clear()

            if adaptive:
                widx = window_state["windows"]
                window_state["windows"] = widx + 1
                if buffer is not None and window:
                    buffer.add(ReplayWindow(
                        time_us=now,
                        features=features,
                        deployed=(
                            last_strategy.label if last_strategy is not None
                            else "Shared"
                        ),
                        realised_mean_us=realised_us,
                        requests=window,
                    ))
                events = detector.update(now, features.to_array(), residual)
                if events:
                    window_state["drifted"] = True
                run.drift_events.extend(events)
                degraded = self._update_degradation(
                    detector.config, window_state, residual
                )
                if self._on_drift is not None:
                    self._on_drift(now, events, degraded)
                if governor is not None and governor.due(
                    widx, bool(events) or window_state["degraded"]
                ):
                    event = governor.attempt(
                        self.allocator, buffer,
                        time_us=now, window_index=widx,
                    )
                    if event is not None:
                        run.retrain_events.append(event)
                        if self._on_retrain is not None:
                            self._on_retrain(now, event)
                        if event.promoted:
                            window_state["degraded"] = False
                            window_state["drifted"] = False
                            window_state["unhealthy"] = 0
                            window_state["healthy"] = 0
                            detector.reset()

            if adaptive and window_state["degraded"]:
                run.degraded_windows += 1
                strategy = Strategy(StrategyKind.SHARED)
                fallback_reason = (
                    "persistent drift: residual above "
                    f"{detector.config.unhealthy_residual:g} for "
                    f"{detector.config.degrade_after} consecutive windows"
                )
            else:
                strategy, fallback_reason = self._decide(
                    sim, features, window, last_good
                )
                if fallback_reason is None:
                    last_good = strategy

            switched = last_strategy is None or strategy.label != last_strategy.label
            suppressed = False
            if (
                adaptive
                and switched
                and fallback_reason is None
                and last_strategy is not None
                and switch_gap_windows > 0
                and window_state["last_switch"] is not None
                and window_state["windows"] - 1 - window_state["last_switch"]
                < switch_gap_windows
                and window
            ):
                # Hysteresis: inside the cooldown a different decision only
                # deploys when its measured fast-model win is large enough.
                incumbent_us = self._replay_us(last_strategy, features, window)
                challenger_us = self._replay_us(strategy, features, window)
                win = (
                    (incumbent_us - challenger_us) / incumbent_us
                    if incumbent_us > 0 else 0.0
                )
                if win < switch_margin:
                    run.suppressed_switches += 1
                    strategy = last_strategy
                    switched = False
                    suppressed = True

            record = KeeperDecision(
                time_us=now,
                features=features,
                strategy=strategy.label,
                window_requests=observed,
                predicted_mean_us=(
                    self._replay_us(strategy, features, window)
                    if adaptive and window else None
                ),
                fallback_reason=fallback_reason,
            )
            run.decisions.append((now, features, strategy))
            run.records.append(record)
            window_state["pending"] = record
            if switched:
                last_strategy = strategy
                if adaptive:
                    window_state["last_switch"] = window_state["windows"] - 1
                self._deploy(sim, strategy, features)
            if self._on_decision is not None:
                self._on_decision(now, record, switched, suppressed)

        end = horizon_us if horizon_us is not None else max(
            r.arrival_us for r in requests
        )
        t = self.collect_window_us
        while t <= end + self.collect_window_us:
            sim.loop.schedule(t, adapt)  # repro-lint: disable=R004 (absolute pre-run window boundary)
            t += self.collect_window_us
        run.result = sim.run(requests)
        # Tail window: completions after the final adaptation tick would
        # otherwise leave the last decision's realised latency dangling.
        settle_window_us()
        return run

    @staticmethod
    def _update_degradation(
        config: DriftConfig, window_state: dict, residual
    ) -> bool:
        """Track unhealthy/healthy residual streaks and flip degradation;
        returns whether degradation armed on this window.

        Degradation arms after ``degrade_after`` consecutive unhealthy
        windows *following a drift detection* and disarms after the same
        number of healthy ones (or a promoted retrain, handled by the
        caller) — symmetric hysteresis so one noisy window flips nothing.
        """
        if residual is None:
            return False
        if residual > config.unhealthy_residual:
            window_state["unhealthy"] += 1
            window_state["healthy"] = 0
        else:
            window_state["healthy"] += 1
            window_state["unhealthy"] = 0
        if (
            not window_state["degraded"]
            and window_state["drifted"]
            and window_state["unhealthy"] >= config.degrade_after
        ):
            window_state["degraded"] = True
            return True
        if (
            window_state["degraded"]
            and window_state["healthy"] >= config.degrade_after
        ):
            window_state["degraded"] = False
            window_state["drifted"] = False
        return False

    # ------------------------------------------------------------------
    def run_adaptive(
        self,
        requests: Sequence[IORequest],
        *,
        horizon_us: float | None = None,
        drift: DriftConfig | DriftDetector | None = None,
        retrain: RetrainConfig | None = None,
        switch_gap_windows: int = 2,
        switch_margin: float = 0.1,
    ) -> PeriodicRun:
        """Periodic adaptation with the full hardening layer armed.

        Convenience entry point: drift detection, guarded incremental
        retraining, and the switch-rate limiter all default on (pass
        explicit configs to tune them).  See :meth:`run_periodic` for the
        semantics of each knob.
        """
        return self.run_periodic(
            requests,
            horizon_us=horizon_us,
            drift=drift if drift is not None else DriftConfig(),
            retrain=retrain if retrain is not None else RetrainConfig(),
            switch_gap_windows=switch_gap_windows,
            switch_margin=switch_margin,
        )

    # ------------------------------------------------------------------
    def baseline_run(
        self,
        requests: Sequence[IORequest],
        strategy: Strategy,
        features: FeatureVector,
        *,
        page_policy: PagePolicy | None = None,
    ) -> SimulationResult:
        """Run the same trace under one fixed strategy (no adaptation).

        Used by the Figure-5 comparisons: Shared / Isolated baselines with
        the device's default static placement, or SSDKeeper's chosen
        strategy with hybrid placement.
        """
        channel_sets = strategy.channel_sets(
            self.config.channels, features.write_dominated()
        )
        modes = (
            page_modes_for(page_policy, features) if page_policy is not None else None
        )
        sim = SSDSimulator(
            self.config,
            channel_sets,
            page_modes=modes,
            record_latencies=self.record_latencies,
            obs=self.obs,
            faults=self.faults,
        )
        return sim.run(requests)
