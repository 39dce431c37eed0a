"""Experiment drivers that regenerate every figure and table of the paper.

Each module corresponds to one evaluation artifact (see the per-experiment
index in ``DESIGN.md``):

* :mod:`repro.experiments.example1` -- Example 1: the under-sampled order-150,
  30-port system; singular-value profiles (Fig. 1), Bode comparison (Fig. 2)
  and the sample-requirement sweep behind the "~30x fewer samples" claim.
* :mod:`repro.experiments.example2` -- Example 2: the 14-port PDN workload and
  the noisy-data comparison of Table 1 (VF / VFTI / MFTI-1 / MFTI-2).
* :mod:`repro.experiments.minimal_sampling` -- the Theorem 3.5 validation.
* :mod:`repro.experiments.ablations` -- ablations over the design choices
  (block size ``t``, SVD mode, recursive parameters).
* :mod:`repro.experiments.reporting` -- plain-text table / series formatting
  shared by the benchmarks and the example scripts.
"""

from repro.experiments.example1 import (
    Example1Config,
    Figure1Data,
    Figure2Data,
    bode_experiment,
    sample_requirement_sweep,
    singular_value_experiment,
    singular_value_profiles,
)
from repro.experiments.example2 import (
    Example2Config,
    Table1Data,
    Table1Row,
    build_pdn_datasets,
    table1_experiment,
)
from repro.experiments.minimal_sampling import (
    MinimalSamplingResult,
    minimal_sampling_experiment,
)
from repro.experiments.ablations import (
    recursive_parameter_ablation,
    svd_mode_ablation,
    weighting_ablation,
)
from repro.experiments.reporting import format_series, format_table
from repro.experiments.workloads import (
    WORKLOADS,
    mixed_batch_jobs,
    monte_carlo_jobs,
    port_sweep_jobs,
    workload_jobs,
)

__all__ = [
    "Example1Config",
    "Figure1Data",
    "Figure2Data",
    "singular_value_experiment",
    "singular_value_profiles",
    "bode_experiment",
    "sample_requirement_sweep",
    "Example2Config",
    "Table1Row",
    "Table1Data",
    "build_pdn_datasets",
    "table1_experiment",
    "MinimalSamplingResult",
    "minimal_sampling_experiment",
    "weighting_ablation",
    "svd_mode_ablation",
    "recursive_parameter_ablation",
    "format_table",
    "format_series",
    "mixed_batch_jobs",
    "monte_carlo_jobs",
    "port_sweep_jobs",
    "WORKLOADS",
    "workload_jobs",
]
