"""Result value objects returned by the interpolation front-ends."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.core.realization import RealizationDiagnostics
from repro.core.tangential import TangentialData
from repro.data.dataset import FrequencyData
from repro.metrics.errors import model_aggregate_error, model_errors
from repro.systems.statespace import DescriptorSystem

__all__ = ["MacromodelResult", "RecursiveDiagnostics", "RecursiveIteration"]


@dataclass(frozen=True)
class MacromodelResult:
    """A recovered macromodel plus everything needed to analyse how it was obtained.

    Attributes
    ----------
    system:
        The recovered descriptor system.
    method:
        ``"mfti"``, ``"mfti-recursive"``, ``"vfti"`` or ``"vector-fitting"``.
    realization:
        SVD diagnostics of the final projection (``None`` for vector fitting).
    tangential:
        The tangential data the model was built from, stored once per side
        with the conjugate ``-j omega`` blocks implied (``None`` for vector
        fitting and for fits replayed from a cache).  The result keeps no
        Loewner pencil; ``build_loewner_pencil(result.tangential)`` rebuilds
        the complex one, and ``build_loewner_pencil(result.tangential,
        real=True)`` the real one a real fit realizes.
    n_samples_used:
        How many sampled matrices contributed to the model (relevant for the
        recursive algorithm, which may stop before using every sample).
    elapsed_seconds:
        Wall-clock time of the front-end call, stamped by the timer
        :func:`~repro.core._pipeline.register_frontend` puts around every
        front-end.
    metadata:
        Free-form extras recorded by the front-end (options, weights, ...).
    """

    system: DescriptorSystem
    method: str
    realization: Optional[RealizationDiagnostics] = None
    tangential: Optional[TangentialData] = None
    n_samples_used: int = 0
    elapsed_seconds: float = 0.0
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def order(self) -> int:
        """Order (state dimension) of the recovered model."""
        return self.system.order

    def frequency_response(self, frequencies_hz) -> np.ndarray:
        """Evaluate the recovered model along a frequency grid (Hz)."""
        return self.system.frequency_response(frequencies_hz)

    def errors_against(self, reference: FrequencyData) -> np.ndarray:
        """Per-frequency relative errors of the model against reference data."""
        return model_errors(self.system, reference)

    def aggregate_error(self, reference: FrequencyData) -> float:
        """The paper's ``ERR`` metric of the model against reference data."""
        return model_aggregate_error(self.system, reference)

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.method}: order={self.order}, samples={self.n_samples_used}, "
            f"time={self.elapsed_seconds:.3f}s"
        )


@dataclass(frozen=True)
class RecursiveIteration:
    """Record of one refinement iteration of the recursive algorithm.

    Attributes
    ----------
    iteration:
        0-based iteration counter.
    n_samples_used:
        Number of sample pairs included in the model after this iteration.
    model_order:
        Order of the model realized in this iteration.
    holdout_error_mean, holdout_error_max:
        Mean / max tangential residual over the samples not yet used.
    """

    iteration: int
    n_samples_used: int
    model_order: int
    holdout_error_mean: float
    holdout_error_max: float


@dataclass(frozen=True)
class RecursiveDiagnostics:
    """Full refinement history of the recursive algorithm (Algorithm 2)."""

    iterations: tuple[RecursiveIteration, ...]
    converged: bool
    threshold: float

    @property
    def n_iterations(self) -> int:
        """Number of refinement iterations performed."""
        return len(self.iterations)
