"""Typed recovery policy: the degradation ladder's configuration.

The paper's target machine loses nodes often enough at 16 k cores that
failure handling cannot stay a caller-configured retry loop.  This
module holds the *policy* side of the closed loop
:class:`repro.dft.recovery.RecoveryController` drives:

* :class:`DegradationPolicy` — how far a run may degrade (the restart
  budget) and how checkpoint cadence adapts (the MTBF prior).
* :class:`AdaptiveCadence` — the live checkpoint-interval decision:
  :func:`~repro.analysis.resilience.optimal_checkpoint_interval` seconds
  converted to whole iterations from the measured per-iteration wall
  time.  Thread-safe and memoized per iteration, so the SPMD rank
  threads all take the identical decision.
* :class:`DegradationStep` — one rung of the ladder actually taken,
  recorded for observability and tests.
* :class:`DegradationError` — the typed terminal failure: no surviving
  resource count admits any feasible layout; carries every
  :class:`~repro.core.planner.Rejection` the planner produced.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "AdaptiveCadence",
    "DegradationError",
    "DegradationPolicy",
    "DegradationStep",
]


@dataclass(frozen=True)
class DegradationPolicy:
    """How a recovery-controlled run degrades and checkpoints.

    ``max_restarts`` bounds the total restart attempts (transient and
    fatal combined).  ``expected_mtbf`` seeds the cadence before any
    failure has been observed; measurements override it as they arrive.
    """

    max_restarts: int = 3
    adaptive_cadence: bool = True
    #: prior MTBF seconds used until a failure rate has been observed
    #: (``None``: keep the static ``checkpoint_every`` until then)
    expected_mtbf: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValueError(
                f"max_restarts must be >= 0, got {self.max_restarts}"
            )
        if self.expected_mtbf is not None and not self.expected_mtbf > 0:
            raise ValueError(
                f"expected_mtbf must be > 0, got {self.expected_mtbf}"
            )


@dataclass(frozen=True)
class DegradationStep:
    """One rung of the ladder: what failed and what the run became."""

    attempt: int
    failed_rank: Optional[int]
    error_type: str
    transient: bool
    from_ranks: int
    from_groups: int
    to_ranks: int
    to_groups: int
    batch_size: int
    resumed_iteration: int
    #: iterations between checkpoints in force for the next attempt
    checkpoint_every: int
    #: planner rejections collected while finding this rung
    rejections: tuple = ()


class DegradationError(ValueError):
    """No surviving resource count admits any feasible layout.

    Raised by the controller once the ladder runs out of rungs:
    ``survivors`` is the largest rank count that was available and
    :attr:`rejections` the typed :class:`~repro.core.planner.Rejection`
    list explaining why every candidate below it was infeasible.
    """

    def __init__(self, survivors: int, rejections) -> None:
        self.survivors = survivors
        self.rejections = tuple(rejections)
        detail = "; ".join(
            f"{r.approach} nb={r.n_band_groups}: {r.reason}"
            for r in self.rejections
        ) or "no candidates were enumerable"
        super().__init__(
            f"no feasible degraded layout on <= {survivors} surviving "
            f"ranks: {detail}"
        )


class AdaptiveCadence:
    """Daly-optimal checkpoint cadence, recomputed from live inputs.

    ``optimal_checkpoint_interval(checkpoint_seconds, mtbf)`` gives the
    optimal seconds between snapshots; dividing by the measured
    per-iteration wall time converts it to whole SCF iterations, clamped
    to ``[1, 1000]``.  :meth:`due` is called by every rank
    thread with the identical (allreduced) iteration time — the decision
    is computed once per iteration under a lock and memoized, so the
    SPMD deposit stays collective even if float inputs were to differ.
    """

    #: the interval clamp, in iterations
    min_every = 1
    max_every = 1000

    def __init__(self, checkpoint_seconds: float, mtbf: float) -> None:
        if not checkpoint_seconds > 0:
            raise ValueError(
                f"checkpoint_seconds must be > 0, got {checkpoint_seconds}"
            )
        if not mtbf > 0:
            raise ValueError(f"mtbf must be > 0, got {mtbf}")
        self.checkpoint_seconds = float(checkpoint_seconds)
        self.mtbf = float(mtbf)
        self._lock = threading.Lock()
        self._decisions: dict[int, bool] = {}
        self._last_checkpoint = 0
        #: last interval (iterations) actually applied — telemetry hook
        self.last_interval: int = self.min_every

    def optimal_seconds(self) -> float:
        """Daly's optimal seconds between snapshots for current inputs."""
        from repro.analysis.resilience import optimal_checkpoint_interval

        return optimal_checkpoint_interval(self.checkpoint_seconds, self.mtbf)

    def interval_iterations(self, iteration_seconds: float) -> int:
        """The optimal interval as whole iterations, clamped."""
        if not iteration_seconds > 0:
            return self.max_every
        raw = self.optimal_seconds() / iteration_seconds
        return max(self.min_every, min(self.max_every, int(round(raw)) or 1))

    def due(self, iteration: int, iteration_seconds: float) -> bool:
        """Should the snapshot at ``iteration`` be taken?

        First caller computes (and records a taken checkpoint); the
        other rank threads of the same iteration read the memo.
        """
        with self._lock:
            if iteration in self._decisions:
                return self._decisions[iteration]
            every = self.interval_iterations(iteration_seconds)
            self.last_interval = every
            due = iteration - self._last_checkpoint >= every
            if due:
                self._last_checkpoint = iteration
            self._decisions[iteration] = due
            return due
