"""Differential tests of the passivity-enforcement stage, end to end.

Five layers of coverage, mirroring how a certificate travels through the
repository:

* **Kernel regressions** -- the empty-sweep / bad-tolerance guards of
  :mod:`repro.vectorfitting.passivity` (a vacuous pass used to slip through
  both the batched and the reference checker) and the batched-vs-loop margin
  equivalences the enforcement stage leans on.
* **Enforcement** -- :func:`~repro.vectorfitting.enforcement.enforce_passivity`
  on a seeded, genuinely violating model: certified on a 10x-denser sweep,
  bitwise-deterministic, a bitwise no-op for already-passive inputs, and
  loudly :class:`~repro.vectorfitting.enforcement.EnforcementFailed` for
  non-passive feed-through, exhausted budgets and fit-error growth.
* **Constraint placement** -- every perturbation round constrains exactly the
  margin minima of its violation bands, the pole anchors reach each
  resonance's skirt, and every default-zoo model passes an independent
  20,000-point sweep.
* **Identity** -- hypothesis properties pinning the pre-enforcement
  ``job_fingerprint`` / ``request_key`` byte-for-byte for every job without a
  :class:`~repro.vectorfitting.enforcement.PassivitySpec` (caches and dedupe
  keys must not churn), while a spec appends a distinguishing component.
* **Acceptance** -- the ``passive_macromodel_jobs`` scenario zoo through the
  BatchEngine, a 2-shard CLI round trip and a live served run, all merging
  bitwise-identical certificates with every job certified.
"""

from __future__ import annotations

import dataclasses
import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import (
    BatchEngine,
    FitJob,
    JobRecord,
    comparable_json,
    job_fingerprint,
    merge_shard_results,
    numerical_differences,
)
from repro.batch.jobs import record_from_document, record_to_document
from repro.cache.fingerprint import (
    combined_fingerprint,
    dataset_fingerprint,
    options_fingerprint,
)
from repro.cli import cli_subprocess
from repro.core import run_fit
from repro.core.options import MftiOptions, canonical_token
from repro.data.dataset import FrequencyData
from repro.experiments.workloads import passive_macromodel_jobs
from repro.serve.app import FitService, ThreadedServer
from repro.serve.client import Client
from repro.serve.protocol import decode_record, encode_record, request_key
from repro.systems.random_systems import random_stable_system
from repro.vectorfitting import enforcement
from repro.vectorfitting.enforcement import (
    PASSIVITY_METRIC_KEYS,
    EnforcementFailed,
    PassivitySpec,
    as_pole_residue,
    enforce_passivity,
    passivity_margins,
    refine_violation_bands,
)
from repro.vectorfitting.passivity import passivity_violations
from repro.vectorfitting.rational import PoleResidueModel

from oracles import passivity_violations_reference

run_cli = functools.partial(cli_subprocess, "shard")

#: Both passivity checkers must share the validation behaviour: the batched
#: kernel path and the per-frequency oracle loop.
BOTH_CHECKERS = (passivity_violations, passivity_violations_reference)

#: Scaled-down scenario zoo (8 jobs): every noise x band regime certifies in
#: about a second while still spanning S and Z representations.
GRID_KWARGS = dict(
    n_samples=32, n_validation=64, n_check=48, line_sections=10, mesh_rows=2, mesh_cols=3
)


def _violating_model(
    seed: int, *, n_ports: int = 2, n_pairs: int = 5, sigma_max: float = 1.04
) -> PoleResidueModel:
    """A seeded stable pole-residue model normalized to ``sigma_max`` (default 1.04)."""
    rng = np.random.default_rng(seed)
    f0 = rng.uniform(1e6, 1e9, n_pairs)
    zeta = rng.uniform(0.05, 0.3, n_pairs)
    w0 = 2.0 * np.pi * f0
    half = -zeta * w0 + 1j * w0 * np.sqrt(1.0 - zeta**2)
    poles = np.concatenate([half, half.conj()])
    shape = (n_pairs, n_ports, n_ports)
    r_half = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    residues = np.concatenate([r_half, r_half.conj()]) * 1e8
    d = 0.2 * np.eye(n_ports)
    model = PoleResidueModel(poles, residues, d=d)
    probe = np.geomspace(1e5, 5e9, 2048)
    response = np.asarray(model.frequency_response(probe))
    peak = float(np.linalg.svd(response, compute_uv=False)[:, 0].max())
    return PoleResidueModel(poles, residues * (sigma_max / peak), d=d)


def _sampled(model: PoleResidueModel) -> FrequencyData:
    """The fixture's fit data: 40 log-spaced samples over 1 MHz - 1 GHz."""
    freqs = np.geomspace(1e6, 1e9, 40)
    return FrequencyData(freqs, np.asarray(model.frequency_response(freqs)), kind="S")


@pytest.fixture(scope="module")
def violating():
    """(model, fit data, spec): a genuine violator and its enforcement setup."""
    model = _violating_model(7)
    data = _sampled(model)
    spec = PassivitySpec(
        n_check=64, band_factor=2.0, max_iterations=30, max_error_growth=5.0, holdout_oversample=2
    )
    return model, data, spec


@pytest.fixture(scope="module")
def enforced(violating):
    model, data, spec = violating
    return enforce_passivity(model, data, spec)


@pytest.fixture(scope="module")
def grid_jobs():
    return passive_macromodel_jobs(**GRID_KWARGS)


@pytest.fixture(scope="module")
def reference_run(grid_jobs):
    result = BatchEngine().run(grid_jobs)
    assert result.n_failed == 0, result.failures
    return result


# --------------------------------------------------------------------------- #
# kernel regressions: sweep validation and margin equivalences
# --------------------------------------------------------------------------- #
class TestSweepValidationRegression:
    """An empty sweep or a broken tolerance used to yield a vacuous pass."""

    @pytest.mark.parametrize("check", BOTH_CHECKERS)
    def test_empty_sweep_raises_instead_of_passing(self, check, violating):
        model, _, _ = violating
        with pytest.raises(ValueError, match="empty frequency sweep"):
            check(model, [])

    @pytest.mark.parametrize("check", BOTH_CHECKERS)
    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1e-9])
    def test_non_finite_or_negative_tolerance_raises(self, check, tolerance, violating):
        model, _, _ = violating
        with pytest.raises(ValueError, match="tolerance"):
            check(model, np.geomspace(1e6, 1e9, 4), tolerance=tolerance)

    def test_batched_and_reference_checkers_agree_on_the_violator(self, violating):
        model, _, _ = violating
        freqs = np.geomspace(1e5, 5e9, 512)
        fast = passivity_violations(model, freqs)
        slow = passivity_violations_reference(model, freqs)
        assert [v.frequency_hz for v in fast] == [v.frequency_hz for v in slow]
        assert fast and all(v.metric > 1.0 for v in fast)

    def test_immittance_margins_match_the_per_frequency_loop(self):
        model = _violating_model(11, n_ports=3)
        freqs = np.geomspace(1e6, 1e9, 64)
        batched = passivity_margins(model, freqs, representation="Z")
        response = np.asarray(model.frequency_response(freqs))
        for index, matrix in enumerate(response):
            hermitian = 0.5 * (matrix + matrix.conj().T)
            loop = float(np.min(np.linalg.eigvalsh(hermitian)))
            assert batched[index] == pytest.approx(loop, rel=1e-12, abs=1e-15)

    def test_margins_reject_unknown_representations(self, violating):
        model, _, _ = violating
        with pytest.raises(ValueError, match="representation"):
            passivity_margins(model, np.geomspace(1e6, 1e9, 4), representation="T")

    def test_refinement_returns_a_sorted_superset_with_exact_margins(self, violating):
        model, _, spec = violating
        base = np.geomspace(1e6, 1e9, 33)
        freqs, margins = refine_violation_bands(model, base, levels=2, threshold=spec.slack)
        assert np.all(np.diff(freqs) > 0.0)
        assert np.isin(base, freqs).all()
        assert freqs.size > base.size  # the violator forces midpoint insertion
        recomputed = passivity_margins(model, freqs)
        np.testing.assert_array_equal(margins, recomputed)


# --------------------------------------------------------------------------- #
# the spec
# --------------------------------------------------------------------------- #
class TestPassivitySpec:
    def test_defaults_round_trip_through_to_dict(self):
        spec = PassivitySpec()
        assert PassivitySpec(**spec.to_dict()) == spec
        assert [key for key, _ in spec.canonical_items()] == sorted(spec.to_dict())

    def test_fields_are_coerced_to_plain_python_scalars(self):
        spec = PassivitySpec(n_check=np.int64(32), band_factor=np.float64(1.5))
        assert spec.n_check == 32 and type(spec.n_check) is int
        assert spec.band_factor == 1.5 and type(spec.band_factor) is float

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"representation": "T"},
            {"n_check": 1},
            {"n_check": 2.5},
            {"band_factor": 0.99},
            {"band_factor": float("nan")},
            {"slack": 0.0},
            {"slack": 1.0},
            {"tolerance": -1e-12},
            {"tolerance": float("nan")},
            {"max_iterations": 0},
            {"refine_levels": -1},
            {"holdout_oversample": 1},
            {"max_error_growth": -0.5},
        ],
    )
    def test_invalid_specs_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PassivitySpec(**kwargs)


# --------------------------------------------------------------------------- #
# the enforcement stage
# --------------------------------------------------------------------------- #
class TestEnforcement:
    def test_the_fixture_model_genuinely_violates(self, violating):
        model, _, _ = violating
        assert passivity_violations(model, np.geomspace(1e5, 5e9, 512))

    def test_enforced_model_passes_a_10x_denser_sweep(self, violating, enforced):
        _, _, spec = violating
        model, certificate = enforced
        dense = np.concatenate(
            [[0.0], np.geomspace(certificate.f_min_hz, certificate.f_max_hz, 10 * spec.n_check)]
        )
        assert not passivity_violations(model, dense, tolerance=spec.tolerance)
        assert certificate.worst_margin >= -spec.tolerance
        assert 1 <= certificate.iterations <= spec.max_iterations
        assert certificate.perturbation_norm > 0.0
        assert certificate.n_frequencies >= spec.holdout_oversample * spec.n_check

    def test_enforcement_only_touches_residues(self, violating, enforced):
        original, _, _ = violating
        model, _ = enforced
        assert np.array_equal(np.asarray(model.poles), np.asarray(original.poles))
        assert np.array_equal(np.asarray(model.d), np.asarray(original.d))
        assert not np.array_equal(np.asarray(model.residues), np.asarray(original.residues))

    def test_enforcement_is_bitwise_deterministic(self, violating, enforced):
        model, data, spec = violating
        again, certificate_again = enforce_passivity(model, data, spec)
        enforced_model, certificate = enforced
        assert np.array_equal(np.asarray(again.residues), np.asarray(enforced_model.residues))
        assert certificate_again == certificate

    def test_already_passive_model_is_a_bitwise_noop(self, violating):
        model, data, spec = violating
        passive = PoleResidueModel(model.poles, np.asarray(model.residues) * 0.5, d=model.d)
        result, certificate = enforce_passivity(passive, data, spec)
        assert result is passive
        assert certificate.iterations == 0
        assert certificate.perturbation_norm == 0.0
        assert certificate.error_delta == 0.0
        assert certificate.worst_margin > 0.0

    def test_non_passive_feedthrough_fails_loudly(self, violating):
        model, data, spec = violating
        improper = PoleResidueModel(model.poles, model.residues, d=1.5 * np.eye(2))
        with pytest.raises(EnforcementFailed, match="feed-through"):
            enforce_passivity(improper, data, spec)

    def test_exhausted_iteration_budget_fails_loudly(self):
        # sigma_max 1.3 is deeper than one round's margin step can close
        model = _violating_model(7, sigma_max=1.3)
        data = _sampled(model)
        impatient = PassivitySpec(
            n_check=64,
            band_factor=2.0,
            max_iterations=1,
            max_error_growth=5.0,
            holdout_oversample=2,
        )
        with pytest.raises(EnforcementFailed, match="violations remain"):
            enforce_passivity(model, data, impatient)

    def test_fit_error_growth_beyond_budget_fails_loudly(self, violating):
        model, data, _ = violating
        strict = PassivitySpec(
            n_check=64,
            band_factor=2.0,
            max_iterations=30,
            max_error_growth=0.0,
            holdout_oversample=2,
        )
        with pytest.raises(EnforcementFailed, match="fit error"):
            enforce_passivity(model, data, strict)

    def test_as_pole_residue_unwraps_and_rejects(self, violating):
        model, _, _ = violating
        assert as_pole_residue(model) is model

        class Wrapper:
            def __init__(self, inner):
                self.model = inner

        assert as_pole_residue(Wrapper(model)) is model
        with pytest.raises(TypeError, match="pole-residue"):
            as_pole_residue(object())

    def test_as_pole_residue_matches_the_descriptor_response(self):
        system = random_stable_system(4, n_ports=2, seed=5)
        converted = as_pole_residue(system)
        freqs = np.geomspace(1e1, 1e5, 32)
        original = np.asarray(system.frequency_response(freqs))
        rebuilt = np.asarray(converted.frequency_response(freqs))
        scale = float(np.abs(original).max())
        assert float(np.abs(rebuilt - original).max()) <= 1e-9 * scale


# --------------------------------------------------------------------------- #
# where the constraints and check points go
# --------------------------------------------------------------------------- #
def _band_minima_loop(margins: np.ndarray, threshold: float) -> list[int]:
    """Per-point oracle: a sub-threshold point is kept unless the nearest
    different margin on either side, inside its run, is lower."""
    inside = np.asarray(margins) < threshold
    keep = []
    for i in np.flatnonzero(inside):
        undercut = False
        for step in (-1, 1):
            j = i + step
            while 0 <= j < len(margins) and inside[j] and margins[j] == margins[i]:
                j += step
            undercut |= bool(0 <= j < len(margins) and inside[j] and margins[j] < margins[i])
        if not undercut:
            keep.append(int(i))
    return keep


class TestConstraintPlacement:
    def test_band_minima_of_a_hand_made_sweep(self):
        margins = np.array([0.5, -0.1, -0.3, -0.2, 0.5, -0.4, -0.4, -0.1, -0.6, 0.5])
        # run 1..3 has its minimum inside; run 5..8 opens on a flat minimum
        # (kept whole) and closes on a lower minimum at its edge
        assert enforcement._band_minima(margins, 1e-3).tolist() == [2, 5, 6, 8]
        # a flat step on a slope (two points one ulp apart) is not a minimum
        slope = np.array([-0.1, -0.2, -0.2, -0.3])
        assert enforcement._band_minima(slope, 0.0).tolist() == [3]
        for sweep in (margins, slope):
            assert enforcement._band_minima(sweep, 1e-3).tolist() == _band_minima_loop(sweep, 1e-3)
        assert enforcement._band_minima(np.array([0.5, 1e-3, 0.2]), 1e-3).size == 0

    def test_each_round_constrains_exactly_its_band_minima(self, monkeypatch):
        model = _violating_model(7, sigma_max=1.3)
        data = _sampled(model)
        spec = PassivitySpec(
            n_check=64,
            band_factor=2.0,
            max_iterations=30,
            max_error_growth=50.0,
            holdout_oversample=2,
        )
        rounds = []
        solve = enforcement._solve_perturbation

        def recording(current, constraint_freqs, *args):
            rounds.append((current, constraint_freqs.copy()))
            return solve(current, constraint_freqs, *args)

        monkeypatch.setattr(enforcement, "_solve_perturbation", recording)
        _, certificate = enforce_passivity(model, data, spec)
        assert len(rounds) == certificate.iterations >= 2

        f_lo, f_hi = enforcement._check_band(data.frequencies_hz, spec)
        base = enforcement._check_grid(f_lo, f_hi, spec.n_check, model.poles)
        oversample = spec.holdout_oversample
        holdout = enforcement._check_grid(
            f_lo, f_hi, oversample * spec.n_check, model.poles, anchor_density=oversample
        )
        sub_slack_points = 0
        for k, (current, constraint_freqs) in enumerate(rounds):
            freqs, margins = refine_violation_bands(
                current, base, levels=spec.refine_levels, threshold=spec.slack
            )
            if k:  # from round 2 on, the last hold-out violations join the sweep
                holdout_margins = passivity_margins(current, holdout)
                extra = (holdout_margins < -spec.tolerance) & ~np.isin(holdout, freqs)
                order = np.argsort(np.concatenate([freqs, holdout[extra]]))
                freqs = np.concatenate([freqs, holdout[extra]])[order]
                margins = np.concatenate([margins, holdout_margins[extra]])[order]
            expected = freqs[_band_minima_loop(margins, spec.slack)]
            assert expected.size
            assert np.array_equal(constraint_freqs, expected)
            sub_slack_points += int(np.count_nonzero(margins < spec.slack))
        assert sum(chosen.size for _, chosen in rounds) < sub_slack_points

    def test_pole_anchors_reach_each_resonance_skirt(self):
        f0, zeta = 1e9, 1e-3
        w0 = 2.0 * np.pi * f0
        pole = np.array([-zeta * w0 + 1j * w0 * np.sqrt(1.0 - zeta**2)])
        skirt = np.array([0.25, 0.5, 1.0, 2.0, 3.0, 6.0, 12.0, 24.0, 48.0, 96.0])
        offsets = np.concatenate([-skirt[::-1], [0.0], skirt])
        anchors = enforcement._pole_anchor_points(pole, 1e8, 1e10)
        np.testing.assert_allclose(anchors, f0 * (1.0 + offsets * zeta), rtol=1e-12)
        assert anchors[0] == pytest.approx(f0 * (1.0 - 96.0 * zeta), rel=1e-12)
        assert anchors[-1] == pytest.approx(f0 * (1.0 + 96.0 * zeta), rel=1e-12)
        # density 2 adds the midpoint of every adjacent offset pair
        midpoints = 0.5 * (offsets[:-1] + offsets[1:])
        dense = enforcement._pole_anchor_points(pole, 1e8, 1e10, density=2)
        np.testing.assert_allclose(
            dense, f0 * (1.0 + np.sort(np.concatenate([offsets, midpoints])) * zeta), rtol=1e-12
        )

    def test_default_zoo_models_pass_an_independent_dense_sweep(self):
        # margins straight from LAPACK, not from the margin kernels the enforcer shares
        for job in passive_macromodel_jobs():
            spec = job.passivity
            fitted = run_fit(job.data, method=job.method, options=job.options)
            model, certificate = enforce_passivity(fitted, job.data, spec, reference=job.reference)
            dense = np.concatenate(
                [[0.0], np.geomspace(certificate.f_min_hz, certificate.f_max_hz, 20_000)]
            )
            response = model.frequency_response(dense)
            if spec.representation == "S":
                margins = 1.0 - np.linalg.svd(response, compute_uv=False)[:, 0]
            else:
                hermitian = 0.5 * (response + np.conj(np.swapaxes(response, 1, 2)))
                margins = np.linalg.eigvalsh(hermitian)[:, 0]
            violating = margins < -spec.tolerance
            assert not violating.any(), (job.label, dense[violating][:3], margins.min())


# --------------------------------------------------------------------------- #
# certificate round trips: metrics dict, shard meta, wire protocol
# --------------------------------------------------------------------------- #
class TestCertificateRoundTrip:
    def test_to_metrics_covers_exactly_the_exported_columns(self, enforced):
        _, certificate = enforced
        assert tuple(certificate.to_metrics()) == PASSIVITY_METRIC_KEYS

    def test_certificate_columns_survive_the_shard_meta_round_trip(self, enforced):
        _, certificate = enforced
        record = JobRecord(
            index=3,
            label="probe",
            method="mfti",
            tags={"study": "passive"},
            status="ok",
            passivity=certificate.to_metrics(),
        )
        rebuilt = record_from_document(json.loads(json.dumps(record_to_document(record))))
        assert rebuilt.passivity == record.passivity

    def test_certificate_columns_survive_the_wire_round_trip(self, enforced):
        _, certificate = enforced
        record = JobRecord(
            index=0,
            label="probe",
            method="mfti",
            tags={},
            status="ok",
            passivity=certificate.to_metrics(),
        )
        rebuilt = decode_record(json.loads(json.dumps(encode_record(record))))
        assert rebuilt.passivity == record.passivity


# --------------------------------------------------------------------------- #
# identity: pre-enforcement fingerprints must not churn
# --------------------------------------------------------------------------- #
def _pre_enforcement_job_fingerprint(job: FitJob) -> str:
    """The ``job_fingerprint`` formula exactly as it stood before specs existed."""
    tag_items = [
        f"{canonical_token(key)}={canonical_token(job.tags[key])}" for key in sorted(job.tags)
    ]
    reference = dataset_fingerprint(job.reference) if job.reference is not None else "none"
    return combined_fingerprint(
        "shard-job",
        [
            "data:" + dataset_fingerprint(job.data),
            "method:" + canonical_token(job.method),
            "options:" + options_fingerprint(job.method, job.options),
            "label:" + canonical_token(job.label),
            "tags:" + "{" + ",".join(tag_items) + "}",
            "reference:" + reference,
        ],
    )


def _pre_enforcement_request_key(job: FitJob) -> str:
    """The ``request_key`` formula exactly as it stood before specs existed."""
    reference = dataset_fingerprint(job.reference) if job.reference is not None else "none"
    return combined_fingerprint(
        "serve-request",
        [
            "data:" + dataset_fingerprint(job.data),
            "method:" + str(job.method),
            "options:" + options_fingerprint(job.method, job.options),
            "reference:" + reference,
        ],
    )


_DIMS = st.integers(min_value=1, max_value=2)
_COUNTS = st.integers(min_value=2, max_value=4)
_FINITE = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
_TAGS = st.dictionaries(
    st.text(alphabet="abcxyz", min_size=1, max_size=4),
    st.one_of(st.integers(min_value=-5, max_value=5), st.text(alphabet="pq", max_size=3)),
    max_size=2,
)


@st.composite
def datasets(draw) -> FrequencyData:
    """A small random-but-valid FrequencyData."""
    k, p, m = draw(_COUNTS), draw(_DIMS), draw(_DIMS)
    gaps = draw(st.lists(st.floats(min_value=0.5, max_value=10.0), min_size=k, max_size=k))
    freqs = np.cumsum(np.asarray(gaps, dtype=float)) + 1.0
    real = draw(st.lists(_FINITE, min_size=k * p * m, max_size=k * p * m))
    imag = draw(st.lists(_FINITE, min_size=k * p * m, max_size=k * p * m))
    samples = (np.asarray(real) + 1j * np.asarray(imag)).reshape(k, p, m)
    kind = draw(st.sampled_from(["S", "Z"]))
    return FrequencyData(freqs, samples, kind=kind, label="generated")


class TestFingerprintCompatibility:
    @settings(max_examples=25, deadline=None)
    @given(
        data=datasets(),
        with_reference=st.booleans(),
        label=st.text(alphabet="abc-", max_size=6),
        tags=_TAGS,
        block_size=st.integers(min_value=1, max_value=3),
    )
    def test_jobs_without_a_spec_keep_their_pre_enforcement_identity(
        self, data, with_reference, label, tags, block_size
    ):
        job = FitJob(
            data,
            method="mfti",
            options=MftiOptions(block_size=block_size),
            label=label,
            tags=tags,
            reference=data if with_reference else None,
        )
        assert job_fingerprint(job) == _pre_enforcement_job_fingerprint(job)
        assert request_key(job) == _pre_enforcement_request_key(job)

    def test_a_spec_appends_a_fingerprint_component(self, grid_jobs):
        job = grid_jobs[0]
        assert job.passivity is not None
        stripped = dataclasses.replace(job, passivity=None)
        assert job_fingerprint(job) != job_fingerprint(stripped)
        assert request_key(job) != request_key(stripped)
        assert job_fingerprint(stripped) == _pre_enforcement_job_fingerprint(stripped)
        assert request_key(stripped) == _pre_enforcement_request_key(stripped)

    def test_different_specs_get_different_identities(self, grid_jobs):
        job = grid_jobs[0]
        loosened = dataclasses.replace(
            job, passivity=dataclasses.replace(job.passivity, slack=2e-3)
        )
        assert job_fingerprint(job) != job_fingerprint(loosened)
        assert request_key(job) != request_key(loosened)


# --------------------------------------------------------------------------- #
# the acceptance contract: scenario zoo through engine, shards and serve
# --------------------------------------------------------------------------- #
class TestPassiveMacromodelAcceptance:
    def test_every_job_emits_a_passing_certificate(self, grid_jobs, reference_run):
        assert len(grid_jobs) == 8
        assert reference_run.n_failed == 0
        for job, record in zip(grid_jobs, reference_run.records):
            spec = job.passivity
            assert spec is not None and job.reference is not None
            assert tuple(record.passivity) == PASSIVITY_METRIC_KEYS
            certificate = record.passivity
            assert certificate["worst_margin"] >= -spec.tolerance
            assert 0 <= certificate["iterations"] <= spec.max_iterations
            assert certificate["n_frequencies"] >= spec.holdout_oversample * spec.n_check
            assert 0.0 < certificate["f_min_hz"] < certificate["f_max_hz"]

    def test_two_shard_cli_round_trip_merges_bitwise(self, grid_jobs, reference_run, tmp_path):
        shard_dir = tmp_path / "shards"
        plan = run_cli(
            "plan",
            "--workload",
            "passive_macromodel_jobs",
            "--workload-args",
            json.dumps(GRID_KWARGS),
            "--shards",
            "2",
            "--out-dir",
            str(shard_dir),
        )
        assert plan.returncode == 0, plan.stderr
        manifests = sorted(shard_dir.glob("*.manifest.json"))
        assert len(manifests) == 2
        shard_files = []
        for manifest in manifests:
            run = run_cli("run", str(manifest))
            assert run.returncode == 0, run.stderr
            shard_files.append(str(manifest).replace(".manifest.json", ".result.npz"))
        merged = merge_shard_results(shard_files)
        assert not numerical_differences(reference_run, merged)
        assert comparable_json(reference_run) == comparable_json(merged)
        merged_passivity = [record.passivity for record in merged.records]
        assert merged_passivity == [record.passivity for record in reference_run.records]
        assert all(merged_passivity)

    def test_served_certificates_match_the_local_run_bitwise(self, grid_jobs, reference_run):
        engine = BatchEngine(executor="thread", max_workers=2)
        with ThreadedServer(FitService(engine)) as server:
            served = Client(server.host, server.port).submit(grid_jobs)
        assert comparable_json(served) == comparable_json(reference_run)
        served_passivity = [record.passivity for record in served.records]
        assert served_passivity == [record.passivity for record in reference_run.records]
        assert all(served_passivity)
