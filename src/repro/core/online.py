"""Guarded incremental retraining from the keeper's own decision stream.

The offline learner is frozen at deployment; this module lets the
adaptive keeper refresh it **without ever trusting a fresh model
blindly**:

* a :class:`ReplayBuffer` harvests one :class:`ReplayWindow` per
  adaptation window — the observed feature vector, the requests of the
  window, the strategy that was actually deployed, and the realised mean
  latency;
* on a retrain trigger the :class:`RetrainGovernor` labels the buffered
  training windows by an exhaustive fast-model sweep (the same
  Algorithm-1 objective the offline labeler uses), fine-tunes a **clone**
  of the live learner on them, and then *shadow-validates* the candidate
  against the incumbent on held-back replay windows the candidate never
  trained on: each model predicts a strategy per window and the window's
  requests are replayed under it with the fast model;
* the candidate is **promoted** only when its held-back cost is no worse
  than the incumbent's (within ``promote_margin``) and its predictions
  are healthy; otherwise it is **rolled back** and the live model is
  untouched.

Everything is seeded and free of wall-clock reads, so two runs over the
same decision stream retrain identically; the keeper records the
returned :class:`RetrainEvent` and hands it to its probe's
``on_retrain`` hook (``keeper.retrains`` / ``keeper.promotions`` /
``keeper.rollbacks`` under :class:`repro.obs.Observability`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..nn.training import Trainer
from ..ssd.config import SSDConfig
from ..ssd.fastmodel import fast_simulate
from ..ssd.request import IORequest
from .allocator import ChannelAllocator
from .features import FeatureVector
from .hybrid import PagePolicy, page_modes_for
from .labeler import pick_label
from .learner import StrategyLearner

__all__ = [
    "ReplayWindow",
    "ReplayBuffer",
    "RetrainConfig",
    "RetrainEvent",
    "RetrainGovernor",
]


@dataclass
class ReplayWindow:
    """One adaptation window harvested from the live decision stream."""

    time_us: float
    features: FeatureVector
    #: label of the strategy that was live during the window
    deployed: str
    realised_mean_us: float | None
    requests: tuple[IORequest, ...]
    #: best-strategy class index from the fast-model sweep (labelled
    #: lazily at retrain time, then memoised)
    label: int | None = None


class ReplayBuffer:
    """Bounded FIFO of the most recent replay windows."""

    def __init__(self, capacity: int) -> None:
        if capacity < 2:
            raise ValueError("capacity must be >= 2")
        self._windows: deque[ReplayWindow] = deque(maxlen=capacity)

    def add(self, window: ReplayWindow) -> None:
        self._windows.append(window)

    def __len__(self) -> int:
        return len(self._windows)

    @property
    def windows(self) -> list[ReplayWindow]:
        return list(self._windows)

    def split(self, holdback: int) -> tuple[list[ReplayWindow], list[ReplayWindow]]:
        """(training windows, held-back windows); newest go to holdback."""
        windows = self.windows
        holdback = min(holdback, max(len(windows) - 1, 0))
        if holdback == 0:
            return windows, []
        return windows[:-holdback], windows[-holdback:]


@dataclass(frozen=True)
class RetrainConfig:
    """Tuning knobs of the guarded retraining flow."""

    #: replay-buffer capacity in windows
    capacity: int = 32
    #: newest windows held back from training for shadow validation
    holdback: int = 3
    #: minimum labelled training windows before an attempt is made
    min_train_windows: int = 5
    #: fine-tuning epochs over the replay dataset
    iterations: int = 40
    batch_size: int = 8
    #: minibatch-shuffle seed (training is deterministic given it)
    seed: int = 0
    #: also retrain every this many windows, drift or not (None = only
    #: on drift detections)
    interval_windows: int | None = None
    #: minimum windows between two attempts
    min_gap_windows: int = 3
    #: candidate must achieve held-back cost <= incumbent * (1 + margin)
    promote_margin: float = 0.0
    #: indifference band when picking sweep labels (mirrors the labeler)
    tie_epsilon: float = 1e-9
    #: test hook: corrupt the candidate after training (non-finite
    #: weights) so the shadow-validation rollback path is provable
    poison: bool = False

    def __post_init__(self) -> None:
        if self.capacity < 2:
            raise ValueError("capacity must be >= 2")
        if self.holdback < 1:
            raise ValueError("holdback must be >= 1")
        if self.min_train_windows < 1:
            raise ValueError("min_train_windows must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.interval_windows is not None and self.interval_windows < 1:
            raise ValueError("interval_windows must be >= 1")
        if self.min_gap_windows < 0:
            raise ValueError("min_gap_windows must be non-negative")
        if self.promote_margin < 0:
            raise ValueError("promote_margin must be non-negative")
        if self.tie_epsilon < 0:
            raise ValueError("tie_epsilon must be non-negative")


@dataclass(frozen=True)
class RetrainEvent:
    """Outcome of one guarded retraining attempt."""

    time_us: float
    window_index: int
    train_windows: int
    holdback_windows: int
    #: mean held-back cost (read + write mean latency) per model;
    #: ``None`` when validation never ran (unhealthy candidate)
    candidate_cost_us: float | None
    incumbent_cost_us: float | None
    #: ``"promoted"`` or ``"rolled-back"``
    outcome: str
    reason: str

    @property
    def promoted(self) -> bool:
        return self.outcome == "promoted"

    def to_dict(self) -> dict:
        return {
            "time_us": self.time_us,
            "window_index": self.window_index,
            "train_windows": self.train_windows,
            "holdback_windows": self.holdback_windows,
            "candidate_cost_us": self.candidate_cost_us,
            "incumbent_cost_us": self.incumbent_cost_us,
            "outcome": self.outcome,
            "reason": self.reason,
        }


class RetrainGovernor:
    """Labels replay windows, trains candidates, and arbitrates promotion."""

    def __init__(
        self,
        config: SSDConfig,
        retrain: RetrainConfig,
        *,
        page_policy: PagePolicy = PagePolicy.HYBRID,
        faults=None,
    ) -> None:
        self.config = config
        self.retrain = retrain
        self.page_policy = page_policy
        self.faults = faults
        self._last_attempt_window: int | None = None

    # ------------------------------------------------------------------
    def due(self, window_index: int, drift_fired: bool) -> bool:
        """Whether an attempt should run at this adaptation window."""
        cfg = self.retrain
        if (
            self._last_attempt_window is not None
            and window_index - self._last_attempt_window < cfg.min_gap_windows
        ):
            return False
        if drift_fired:
            return True
        return (
            cfg.interval_windows is not None
            and (window_index + 1) % cfg.interval_windows == 0
        )

    # ------------------------------------------------------------------
    def _window_cost_us(
        self, window: ReplayWindow, strategy_sets, page_modes
    ) -> float:
        result = fast_simulate(
            list(window.requests), self.config, strategy_sets, page_modes,
            faults=self.faults,
        )
        return result.read.mean_us + result.write.mean_us

    def _label_window(self, window: ReplayWindow, space) -> int:
        """Best strategy index for the window by exhaustive fast sweep."""
        if window.label is not None:
            return window.label
        write_dominated = window.features.write_dominated()
        page_modes = page_modes_for(self.page_policy, window.features)
        costs = []
        for strategy in space:
            sets = strategy.channel_sets(space.n_channels, write_dominated)
            costs.append(self._window_cost_us(window, sets, page_modes))
        window.label = pick_label(costs, self.retrain.tie_epsilon)
        return window.label

    def _model_cost_us(
        self, learner: StrategyLearner, windows: Sequence[ReplayWindow]
    ) -> float:
        """Mean held-back cost of deploying ``learner``'s predictions."""
        total_us = 0.0
        for window in windows:
            strategy = learner.predict(window.features)
            sets = strategy.channel_sets(
                learner.space.n_channels, window.features.write_dominated()
            )
            page_modes = page_modes_for(self.page_policy, window.features)
            total_us += self._window_cost_us(window, sets, page_modes)
        return total_us / len(windows)

    # ------------------------------------------------------------------
    def attempt(
        self,
        allocator: ChannelAllocator,
        buffer: ReplayBuffer,
        *,
        time_us: float,
        window_index: int,
    ) -> RetrainEvent | None:
        """One guarded retraining attempt; ``None`` when data is short.

        On promotion the allocator's live learner is swapped for the
        candidate; on rollback the live model is untouched — the only
        side effect is the returned event.
        """
        cfg = self.retrain
        train_windows, holdback = buffer.split(cfg.holdback)
        train_windows = [w for w in train_windows if w.requests]
        holdback = [w for w in holdback if w.requests]
        if len(train_windows) < cfg.min_train_windows or not holdback:
            return None
        self._last_attempt_window = window_index

        incumbent = allocator.learner
        space = allocator.space
        labels = np.array(
            [self._label_window(w, space) for w in train_windows]
        )
        features = np.vstack([w.features.to_array() for w in train_windows])

        candidate = incumbent.clone()
        trainer = Trainer(
            candidate.network,
            "adam",
            batch_size=min(cfg.batch_size, len(train_windows)),
            seed=cfg.seed,
        )
        trainer.fit(
            candidate.scaler.transform(features), labels,
            iterations=cfg.iterations,
        )
        if cfg.poison:
            # Test hook: a catastrophically bad candidate (non-finite
            # weights) must be caught by the health probe below.
            for param in candidate.network.parameters():
                param.fill(np.nan)

        health = ChannelAllocator(candidate).prediction_health(
            holdback[0].features
        )
        if health is not None:
            return RetrainEvent(
                time_us=time_us,
                window_index=window_index,
                train_windows=len(train_windows),
                holdback_windows=len(holdback),
                candidate_cost_us=None,
                incumbent_cost_us=None,
                outcome="rolled-back",
                reason=f"unhealthy candidate: {health}",
            )

        candidate_cost_us = self._model_cost_us(candidate, holdback)
        incumbent_cost_us = self._model_cost_us(incumbent, holdback)
        if candidate_cost_us <= incumbent_cost_us * (1.0 + cfg.promote_margin):
            allocator.adopt(candidate)
            outcome, reason = "promoted", (
                f"held-back cost {candidate_cost_us:.1f}us <= "
                f"incumbent {incumbent_cost_us:.1f}us"
            )
        else:
            outcome, reason = "rolled-back", (
                f"held-back cost {candidate_cost_us:.1f}us > "
                f"incumbent {incumbent_cost_us:.1f}us"
            )
        return RetrainEvent(
            time_us=time_us,
            window_index=window_index,
            train_windows=len(train_windows),
            holdback_windows=len(holdback),
            candidate_cost_us=candidate_cost_us,
            incumbent_cost_us=incumbent_cost_us,
            outcome=outcome,
            reason=reason,
        )
