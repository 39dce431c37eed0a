"""Shared batch-workload builders (the *named grids* of the batch layer).

The batch layer's acceptance workload -- a mixed MFTI/VFTI job grid over the
noisy 14-port PDN of Example 2 and a lossy lumped transmission line -- is used
both by ``benchmarks/bench_batch_engine.py`` and by ``examples/batch_sweep.py``.
Building it here keeps the two in sync by construction (the same pattern as
:func:`repro.experiments.example2.loewner_table1_jobs` for Table 1).

Every builder in :data:`WORKLOADS` is a **shardable entry point**: it is
deterministic (same kwargs, bitwise-identical datasets -- all randomness is
seeded, and :func:`~repro.data.sampler.sample_system` pins BLAS to one
thread while it samples), so a shard manifest (:mod:`repro.batch.sharding`) only needs to
record the builder's name and kwargs for a worker machine to rebuild exactly
the planned jobs, verified by content fingerprint.  Keep new grids seeded
and JSON-safe in their kwargs to stay shardable.
"""

from __future__ import annotations

from typing import Callable

from repro.batch.jobs import FitJob
from repro.circuits.mna import netlist_to_descriptor
from repro.circuits.pdn import PdnConfiguration, power_distribution_network
from repro.circuits.rlc_networks import rlc_grid
from repro.circuits.transmission_line import lumped_transmission_line
from repro.core.options import MftiOptions, RecursiveOptions, VftiOptions
from repro.data import (
    add_measurement_noise,
    linear_frequencies,
    sample_impedance,
    sample_scattering,
)
from repro.experiments.example2 import Example2Config, build_pdn_measurement
from repro.metrics.timedomain import TimeDomainSpec
from repro.vectorfitting.enforcement import PassivitySpec

__all__ = ["mixed_batch_jobs", "monte_carlo_jobs", "port_sweep_jobs",
           "time_domain_jobs", "passive_macromodel_jobs", "WORKLOADS",
           "workload_jobs"]


def mixed_batch_jobs(
    *,
    pdn_samples: int = 140,
    pdn_validation: int = 160,
    line_sections: int = 40,
    line_samples: int = 100,
    line_validation: int = 200,
    mfti_block_sizes: tuple[int, ...] = (2, 3),
) -> list[FitJob]:
    """Mixed MFTI/VFTI jobs over a noisy PDN and a transmission-line dataset.

    With the defaults this is an 8-job grid: for each of the two workloads one
    VFTI job, one MFTI job per entry of ``mfti_block_sizes``, and one
    recursive-MFTI job -- every job with a clean dense validation sweep
    attached so records carry a ground-truth error.  Block sizes are clamped
    to each workload's port count, de-duplicated, and backfilled with unused
    smaller sizes, so the per-workload job count is preserved whenever the
    port count offers enough distinct sizes.
    """
    cfg = Example2Config(n_samples=pdn_samples, n_validation=pdn_validation)
    _, pdn_data, pdn_reference = build_pdn_measurement(cfg)

    line = netlist_to_descriptor(lumped_transmission_line(0.1, line_sections))
    line_data = add_measurement_noise(
        sample_scattering(line, linear_frequencies(1e6, 5e9, line_samples),
                          label="transmission line"),
        relative_level=1e-6, seed=5)
    line_reference = sample_scattering(
        line, linear_frequencies(1e6, 5e9, line_validation), label="tl validation")

    jobs: list[FitJob] = []
    for name, data, reference, tolerance in (
        ("pdn", pdn_data, pdn_reference, cfg.rank_tolerance),
        ("tline", line_data, line_reference, 1e-7),
    ):
        jobs.append(FitJob(data, method="vfti",
                           options=VftiOptions(rank_method="tolerance",
                                               rank_tolerance=tolerance),
                           label=f"{name}/vfti", tags={"workload": name},
                           reference=reference))
        # clamp the requested block sizes to the port count and de-duplicate
        # (a 2-port line would otherwise run t=2 twice, once labelled t=3),
        # then backfill with unused smaller sizes to preserve the job count
        # where the port count allows it
        blocks = list(dict.fromkeys(min(block, data.n_ports)
                                    for block in mfti_block_sizes))
        unused = [t for t in range(data.n_ports, 0, -1) if t not in blocks]
        while len(blocks) < len(mfti_block_sizes) and unused:
            blocks.insert(0, unused.pop())
        for block in blocks:
            jobs.append(FitJob(data, method="mfti",
                               options=MftiOptions(block_size=block,
                                                   rank_method="tolerance",
                                                   rank_tolerance=tolerance),
                               label=f"{name}/mfti-t{block}", tags={"workload": name},
                               reference=reference))
        jobs.append(FitJob(data, method="mfti-recursive",
                           options=RecursiveOptions(block_size=2,
                                                    samples_per_iteration=8,
                                                    initial_samples=16,
                                                    rank_method="tolerance",
                                                    rank_tolerance=tolerance),
                           label=f"{name}/mfti-recursive", tags={"workload": name},
                           reference=reference))
    return jobs


def monte_carlo_jobs(
    *,
    n_draws: int = 8,
    methods: tuple[str, ...] = ("mfti", "vfti"),
    pdn_samples: int = 80,
    pdn_validation: int = 120,
    noise_level: float = 2e-4,
    base_seed: int = 1000,
    mfti_block_size: int = 2,
    grid_rows: int = 6,
    grid_cols: int = 6,
) -> list[FitJob]:
    """Named Monte-Carlo noise-study grid over the 14-port PDN.

    One clean measurement sweep of the PDN is drawn once; every Monte-Carlo
    *draw* injects an independent but **seeded** noise realization
    (``seed = base_seed + draw``) into that sweep, and every method in
    ``methods`` fits every draw.  Each job carries a clean dense validation
    sweep as reference and is tagged with ``study="monte-carlo"``, the draw
    index, the noise seed and the method, so :class:`~repro.batch.results.
    BatchResult` filters (``with_tag``) slice the study along any axis.

    The grid is cache-friendly *by construction*: seeded draws make every
    dataset content-deterministic, so all methods fitting draw ``i`` share
    one dataset fingerprint, and re-running the study (or extending
    ``methods`` / ``n_draws``) replays every previously computed fit and
    evaluation from a shared :class:`~repro.cache.FitCache` instead of
    recomputing it.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    if not methods:
        raise ValueError("methods must name at least one registered front-end")
    cfg = Example2Config(
        pdn=PdnConfiguration(grid_rows=grid_rows, grid_cols=grid_cols),
        n_samples=pdn_samples,
        n_validation=pdn_validation,
        noise_level=noise_level,
    )
    system = power_distribution_network(cfg.pdn)
    measurement_freqs = linear_frequencies(cfg.f_min_hz, cfg.f_max_hz, cfg.n_samples)
    validation_freqs = linear_frequencies(cfg.f_min_hz, cfg.f_max_hz, cfg.n_validation)
    clean = sample_scattering(system, measurement_freqs, system_kind="Z",
                              label="pdn monte-carlo clean")
    reference = sample_scattering(system, validation_freqs, system_kind="Z",
                                  label="pdn monte-carlo validation")

    def options_for(method: str):
        if method == "mfti":
            return MftiOptions(block_size=mfti_block_size, rank_method="tolerance",
                               rank_tolerance=cfg.rank_tolerance)
        if method == "vfti":
            return VftiOptions(rank_method="tolerance",
                               rank_tolerance=cfg.rank_tolerance)
        if method == "mfti-recursive":
            return RecursiveOptions(block_size=2, samples_per_iteration=8,
                                    initial_samples=16, rank_method="tolerance",
                                    rank_tolerance=cfg.rank_tolerance)
        raise ValueError(f"no Monte-Carlo options preset for method {method!r}")

    jobs: list[FitJob] = []
    for draw in range(n_draws):
        seed = base_seed + draw
        noisy = add_measurement_noise(clean, relative_level=noise_level, seed=seed)
        for method in methods:
            jobs.append(FitJob(
                noisy,
                method=method,
                options=options_for(method),
                label=f"mc/draw{draw:02d}/{method}",
                tags={"study": "monte-carlo", "draw": draw, "seed": seed,
                      "workload": "pdn", "method": method},
                reference=reference,
            ))
    return jobs


def port_sweep_jobs(
    *,
    port_counts: tuple[int, ...] = (2, 4, 8),
    block_sizes: tuple[int, ...] = (1, 2, 3),
    order: int = 24,
    n_samples: int = 30,
    n_validation: int = 60,
    f_min_hz: float = 1e2,
    f_max_hz: float = 1e6,
    noise_level: float = 1e-6,
    base_seed: int = 400,
) -> list[FitJob]:
    """Named port-sweep grid: vary the port count and the direction count.

    The ROADMAP's second realistic named grid (after the Monte-Carlo study):
    how do accuracy, model order and cost move as the number of ports ``p``
    grows and as the tangential block size ``t`` (the per-sample *direction
    count*, the paper's central knob) sweeps from the VFTI information
    content (``t = 1``) towards full matrix interpolation?  For every port
    count one seeded random stable system is drawn
    (``seed = base_seed + p``), lightly noised samples are fitted with VFTI,
    one MFTI job per block size in ``block_sizes`` (clamped to ``p`` and
    de-duplicated, like :func:`mixed_batch_jobs`), and one full-information
    MFTI job (``block_size=None``); every job carries a clean dense
    validation sweep.

    Tags: ``study="port-sweep"``, ``n_ports``, ``directions`` (the effective
    ``t``; ``"full"`` for the unrestricted job) and ``method``, so
    :meth:`~repro.batch.results.BatchResult.with_tag` slices the sweep along
    either axis.  Deterministic by construction (seeded system and noise), so
    the grid is shardable and cache-stable across rebuilds.
    """
    from repro.systems.random_systems import random_stable_system

    if not port_counts:
        raise ValueError("port_counts must name at least one port count")
    if any(p < 1 for p in port_counts):
        raise ValueError("port counts must be >= 1")
    if not block_sizes:
        raise ValueError("block_sizes must name at least one direction count")

    jobs: list[FitJob] = []
    for n_ports in port_counts:
        seed = base_seed + n_ports
        system = random_stable_system(order=order, n_ports=n_ports,
                                      feedthrough=0.1, seed=seed)
        freqs = linear_frequencies(f_min_hz, f_max_hz, n_samples)
        data = add_measurement_noise(
            sample_scattering(system, freqs, label=f"port-sweep p={n_ports}"),
            relative_level=noise_level, seed=seed)
        reference = sample_scattering(
            system, linear_frequencies(f_min_hz, f_max_hz, n_validation),
            label=f"port-sweep p={n_ports} validation")

        common = {"study": "port-sweep", "n_ports": n_ports, "seed": seed}
        jobs.append(FitJob(data, method="vfti", options=VftiOptions(),
                           label=f"ports{n_ports}/vfti",
                           tags={**common, "method": "vfti", "directions": 1},
                           reference=reference))
        blocks = list(dict.fromkeys(min(block, n_ports) for block in block_sizes))
        for block in blocks:
            jobs.append(FitJob(data, method="mfti",
                               options=MftiOptions(block_size=block),
                               label=f"ports{n_ports}/mfti-t{block}",
                               tags={**common, "method": "mfti", "directions": block},
                               reference=reference))
        jobs.append(FitJob(data, method="mfti", options=MftiOptions(block_size=None),
                           label=f"ports{n_ports}/mfti-full",
                           tags={**common, "method": "mfti", "directions": "full"},
                           reference=reference))
    return jobs


def time_domain_jobs(
    *,
    system_orders: tuple[int, ...] = (12, 20),
    n_ports: int = 2,
    methods: tuple[str, ...] = ("mfti", "vfti"),
    n_samples: int = 60,
    n_validation: int = 120,
    f_min_hz: float = 1e2,
    f_max_hz: float = 1e6,
    noise_level: float = 1e-6,
    base_seed: int = 700,
    t_final: float = 2e-2,
    time_points: int = 128,
    oversample: int = 8,
) -> list[FitJob]:
    """Named time-domain validation grid over seeded random stable systems.

    For every order in ``system_orders`` one seeded random stable system is
    drawn (``seed = base_seed + order``), its lightly noised scattering sweep
    is fitted with every method in ``methods``, and each job carries a clean
    dense validation sweep **plus a** :class:`~repro.metrics.timedomain.
    TimeDomainSpec` -- so every record comes back with the spectral-pathway
    impulse/step error columns (:data:`~repro.metrics.timedomain.
    TIME_DOMAIN_METRIC_KEYS`) filled in, computed worker-side through the
    batched inverse-FFT path of :mod:`repro.systems.spectral`.

    The horizon defaults (``t_final``, ``time_points``, ``oversample``) are
    matched to the default band: ``t_final = 2e-2`` s covers many periods of
    the slowest default dynamics while the FFT grid's Nyquist rate stays well
    above ``f_max_hz``.  Tags: ``study="time-domain"``, ``order``, ``method``.
    Deterministic by construction (seeded system and noise, scalar spec
    kwargs), so the grid is shardable and cache-stable across rebuilds.
    """
    from repro.systems.random_systems import random_stable_system

    if not system_orders:
        raise ValueError("system_orders must name at least one model order")
    if not methods:
        raise ValueError("methods must name at least one registered front-end")
    spec = TimeDomainSpec(t_final=t_final, n_points=time_points,
                          oversample=oversample)

    def options_for(method: str):
        if method == "mfti":
            return MftiOptions(block_size=2)
        if method == "vfti":
            return VftiOptions()
        if method == "mfti-recursive":
            return RecursiveOptions(block_size=2, samples_per_iteration=8,
                                    initial_samples=16)
        raise ValueError(f"no time-domain options preset for method {method!r}")

    jobs: list[FitJob] = []
    for order in system_orders:
        seed = base_seed + order
        system = random_stable_system(order=order, n_ports=n_ports,
                                      feedthrough=0.1, seed=seed)
        freqs = linear_frequencies(f_min_hz, f_max_hz, n_samples)
        data = add_measurement_noise(
            sample_scattering(system, freqs, label=f"time-domain n={order}"),
            relative_level=noise_level, seed=seed)
        reference = sample_scattering(
            system, linear_frequencies(f_min_hz, f_max_hz, n_validation),
            label=f"time-domain n={order} validation")
        for method in methods:
            jobs.append(FitJob(
                data,
                method=method,
                options=options_for(method),
                label=f"td/n{order}/{method}",
                tags={"study": "time-domain", "order": order, "seed": seed,
                      "method": method},
                reference=reference,
                time_domain=spec,
            ))
    return jobs


def passive_macromodel_jobs(
    *,
    n_samples: int = 40,
    n_validation: int = 100,
    noise_levels: tuple[float, ...] = (1e-6, 3e-5),
    band_factors: tuple[float, ...] = (1.5, 1.25),
    n_check: int = 64,
    max_iterations: int = 25,
    max_error_growth: float = 5.0,
    holdout_oversample: int = 2,
    line_sections: int = 20,
    mesh_rows: int = 3,
    mesh_cols: int = 3,
    base_seed: int = 42,
) -> list[FitJob]:
    """Named scenario zoo feeding the passivity-enforcement pipeline.

    The ROADMAP's "production model" grid: every job fits a noisy sweep of a
    physical circuit and carries a :class:`~repro.vectorfitting.enforcement.
    PassivitySpec`, so every record comes back with a passing
    :class:`~repro.vectorfitting.enforcement.PassivityCertificate` (or fails
    loudly) -- the certified artifact a downstream SI/PI user would deploy.

    Scenarios span three circuit families times two representations: a small
    power-distribution network as scattering data (``"S"``, converted from
    the impedance sweep of its MNA system) and as that raw impedance sweep
    (``"Z"``, positive-real condition); a lossy lumped
    transmission line (S); and an RLC grid mesh (S).  ``noise_levels`` and
    ``band_factors`` are paired element-wise into noise x band regimes: higher
    measurement noise is checked over a tighter out-of-band guard band, which
    keeps the out-of-band extrapolation of the noisier fits inside what
    residue perturbation can repair.

    Tags: ``study="passive-macromodel"``, ``circuit``, ``representation``,
    ``noise``, ``band``, ``seed``.  Deterministic by construction (seeded
    noise, scalar spec kwargs), so the grid is shardable and cache-stable
    across rebuilds.
    """
    if not noise_levels:
        raise ValueError("noise_levels must name at least one noise level")
    if len(noise_levels) != len(band_factors):
        raise ValueError(
            "noise_levels and band_factors pair element-wise into regimes; "
            f"got {len(noise_levels)} noise level(s) for "
            f"{len(band_factors)} band factor(s)"
        )

    pdn = power_distribution_network(PdnConfiguration(
        n_ports=3, grid_rows=3, grid_cols=3, n_decaps=3, n_bulk_caps=1))
    tline = netlist_to_descriptor(lumped_transmission_line(0.1, line_sections))
    mesh = netlist_to_descriptor(rlc_grid(mesh_rows, mesh_cols))
    bands = {"pdn": (pdn, 1e6, 2.5e9), "tline": (tline, 1e6, 5e9), "mesh": (mesh, 1e6, 2e9)}
    # All three generators build impedance-type MNA/descriptor systems: each
    # circuit's impedance is swept once, and its scattering data is
    # *converted* from that sweep (what sample_scattering(system_kind="Z")
    # does), not sampled raw, or the "S" sweep would carry impedance-scale
    # entries.
    impedance = {
        name: tuple(
            sample_impedance(system, linear_frequencies(f_lo, f_hi, count), label=label)
            for count, label in ((n_samples, f"passive {name}"),
                                 (n_validation, f"passive {name} validation"))
        )
        for name, (system, f_lo, f_hi) in bands.items()
    }

    jobs: list[FitJob] = []
    for name, representation in (("pdn", "S"), ("tline", "S"), ("mesh", "S"), ("pdn", "Z")):
        clean, reference = impedance[name]
        if representation == "S":
            clean, reference = (data.converted("S", z0=50.0) for data in (clean, reference))
        for noise, band_factor in zip(noise_levels, band_factors):
            data = add_measurement_noise(clean, relative_level=noise,
                                         seed=base_seed)
            spec = PassivitySpec(
                representation=representation,
                n_check=n_check,
                band_factor=band_factor,
                max_iterations=max_iterations,
                max_error_growth=max_error_growth,
                holdout_oversample=holdout_oversample,
            )
            jobs.append(FitJob(
                data,
                method="mfti",
                options=MftiOptions(block_size=2, rank_method="tolerance",
                                    rank_tolerance=1e-7),
                label=(f"passive/{name}-{representation.lower()}"
                       f"/noise{noise:g}-band{band_factor:g}"),
                tags={"study": "passive-macromodel", "circuit": name,
                      "representation": representation, "noise": noise,
                      "band": band_factor, "seed": base_seed},
                reference=reference,
                passivity=spec,
            ))
    return jobs


#: The shardable named grids: every entry is deterministic for fixed kwargs,
#: which is what lets a shard manifest reference jobs by (name, kwargs) and a
#: worker machine rebuild them bit-exactly (``python -m repro shard run``).
WORKLOADS: dict[str, Callable[..., list[FitJob]]] = {
    "mixed_batch_jobs": mixed_batch_jobs,
    "monte_carlo_jobs": monte_carlo_jobs,
    "port_sweep_jobs": port_sweep_jobs,
    "time_domain_jobs": time_domain_jobs,
    "passive_macromodel_jobs": passive_macromodel_jobs,
}


def workload_jobs(name: str, **kwargs) -> list[FitJob]:
    """Build the named workload grid (the CLI's entry point into the registry)."""
    try:
        builder = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; known grids: {', '.join(sorted(WORKLOADS))}"
        ) from None
    return builder(**kwargs)
