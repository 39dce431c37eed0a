"""MFTI reproduction: matrix-format tangential interpolation for multi-port macromodeling.

This package is a from-scratch Python reproduction of

    Y. Wang, C.-U. Lei, G. K. H. Pang, N. Wong,
    "MFTI: Matrix-Format Tangential Interpolation for Modeling Multi-Port
    Systems", DAC 2010, pp. 683-686.

Top-level layout
----------------
``repro.core``
    The paper's contribution: matrix-format tangential data, block Loewner
    matrices, the real transform, SVD realization, Algorithm 1 (:func:`mfti`),
    Algorithm 2 (:func:`recursive_mfti`) and the VFTI baseline (:func:`vfti`).
``repro.vectorfitting``
    The Vector Fitting baseline used in the paper's Table 1.
``repro.systems``
    Descriptor-system substrate: model classes, pole analysis, random
    benchmark systems, network-parameter conversions, simulation.
``repro.circuits``
    Circuit substrate: netlists, MNA assembly, RLC/transmission-line/PDN
    benchmark networks.
``repro.data``
    Frequency grids, samplers, noise models, Touchstone I/O and the
    :class:`~repro.data.dataset.FrequencyData` container.
``repro.metrics``
    The paper's error metrics and model validation.
``repro.batch``
    Batch macromodeling engine: declarative fit jobs run through serial /
    thread / process executors with per-job error capture and JSON reports.
``repro.cache``
    Content-addressed fit cache: dataset/options fingerprints, memory and
    disk stores, transparent replay through ``run_fit`` and the batch engine.
``repro.experiments``
    Drivers that regenerate every figure and table of the paper.
``repro.serve``
    Asyncio fit service (in-flight dedupe, admission control), shard
    dispatcher and the synchronous :class:`Client` / :func:`submit` facade.
``repro.api``
    The stable public surface; what it exports (and this module re-exports)
    is the compatibility contract, everything else is internal.

The umbrella CLI is ``python -m repro {fit,batch,shard,serve}``.

Quickstart
----------
>>> from repro import mfti, sample_scattering, linear_frequencies
>>> from repro.systems import random_stable_system
>>> system = random_stable_system(order=40, n_ports=6, seed=7)
>>> data = sample_scattering(system, linear_frequencies(1e2, 1e5, 10))
>>> model = mfti(data)
>>> round(model.aggregate_error(data), 6) <= 1e-6
True
"""

from repro.api import (
    Client,
    JobRecord,
    merge_shard_results,
    plan_shards,
    submit,
)
from repro.batch import BatchEngine, BatchResult, FitJob
from repro.cache import DiskStore, FitCache, MemoryStore, dataset_fingerprint, fit_key
from repro.core import (
    MacromodelResult,
    MftiOptions,
    RecursiveOptions,
    VftiOptions,
    available_methods,
    mfti,
    minimal_sample_count,
    recursive_mfti,
    run_fit,
    vfti,
)
from repro.data import (
    FrequencyData,
    add_measurement_noise,
    clustered_frequencies,
    linear_frequencies,
    log_frequencies,
    read_touchstone,
    sample_scattering,
    sample_system,
    write_touchstone,
)
from repro.metrics import aggregate_error, relative_error_per_frequency, validate_model
from repro.systems import DescriptorSystem, StateSpace
from repro.vectorfitting import vector_fit

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "mfti",
    "recursive_mfti",
    "vfti",
    "vector_fit",
    "run_fit",
    "available_methods",
    "BatchEngine",
    "BatchResult",
    "FitJob",
    "JobRecord",
    "Client",
    "submit",
    "plan_shards",
    "merge_shard_results",
    "FitCache",
    "MemoryStore",
    "DiskStore",
    "dataset_fingerprint",
    "fit_key",
    "minimal_sample_count",
    "MacromodelResult",
    "MftiOptions",
    "VftiOptions",
    "RecursiveOptions",
    "FrequencyData",
    "linear_frequencies",
    "log_frequencies",
    "clustered_frequencies",
    "sample_system",
    "sample_scattering",
    "add_measurement_noise",
    "read_touchstone",
    "write_touchstone",
    "aggregate_error",
    "relative_error_per_frequency",
    "validate_model",
    "DescriptorSystem",
    "StateSpace",
]
