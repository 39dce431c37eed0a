"""Error metrics and model-validation helpers.

The paper compares algorithms with a per-frequency relative matrix error and
the aggregate ``ERR`` defined in Section 5; this package implements those
exact metrics, a one-call validation routine that evaluates a recovered
model against a reference data set (its report includes the worst
per-frequency error), and the time-domain metrics of the batched spectral
pathway.
"""

from repro.metrics.errors import (
    aggregate_error,
    model_aggregate_error,
    model_errors,
    relative_error_per_frequency,
)
from repro.metrics.timedomain import (
    TIME_DOMAIN_METRIC_KEYS,
    TimeDomainSpec,
    delay_estimate,
    impulse_error_norms,
    ringing_ratio,
    time_domain_metrics,
)
from repro.metrics.validation import ValidationReport, validate_model

__all__ = [
    "relative_error_per_frequency",
    "aggregate_error",
    "model_errors",
    "model_aggregate_error",
    "ValidationReport",
    "validate_model",
    "TimeDomainSpec",
    "time_domain_metrics",
    "impulse_error_norms",
    "delay_estimate",
    "ringing_ratio",
    "TIME_DOMAIN_METRIC_KEYS",
]
