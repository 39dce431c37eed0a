"""End-to-end integration tests across the package layers.

These tests exercise the full pipeline a user of the library would run:
circuit -> MNA -> sampling (-> noise / file I/O) -> interpolation ->
validation, mixing modules that the unit tests cover in isolation.
"""

import numpy as np
from repro import (
    add_measurement_noise,
    linear_frequencies,
    log_frequencies,
    mfti,
    read_touchstone,
    recursive_mfti,
    sample_scattering,
    validate_model,
    vector_fit,
    vfti,
    write_touchstone,
)
from repro.circuits import coupled_rlc_lines, netlist_to_descriptor, rlc_ladder
from repro.circuits.pdn import PdnConfiguration, power_distribution_network
from repro.metrics import aggregate_error
from repro.vectorfitting.passivity import passivity_violations


class TestCircuitToMacromodel:
    def test_rlc_ladder_macromodeling(self):
        """Build a ladder circuit, sample its scattering data, recover it with MFTI."""
        circuit = netlist_to_descriptor(rlc_ladder(8, two_port=True))
        freqs = log_frequencies(1e6, 1e10, 30)
        data = sample_scattering(circuit, freqs, system_kind="Z")
        model = mfti(data, rank_method="tolerance", rank_tolerance=1e-8)
        report = validate_model(model.system, data)
        assert report.aggregate_error < 1e-6
        assert model.order <= circuit.order + 2

    def test_coupled_lines_crosstalk_preserved(self):
        """The recovered model reproduces the off-diagonal (crosstalk) entries."""
        circuit = netlist_to_descriptor(coupled_rlc_lines(2, 6))
        freqs = log_frequencies(1e7, 2e10, 24)
        data = sample_scattering(circuit, freqs, system_kind="Z")
        model = mfti(data, rank_method="tolerance", rank_tolerance=1e-8)
        response = model.frequency_response(freqs)
        crosstalk_model = np.abs(response[:, 2, 0])
        crosstalk_true = np.abs(data.samples[:, 2, 0])
        assert np.allclose(crosstalk_model, crosstalk_true, rtol=1e-3, atol=1e-9)

    def test_pdn_workflow_with_noise_and_recursion(self):
        """Small PDN + noise + recursive MFTI, validated against a clean sweep."""
        config = PdnConfiguration(n_ports=4, grid_rows=4, grid_cols=4, n_decaps=4,
                                  n_bulk_caps=1)
        pdn = power_distribution_network(config)
        freqs = linear_frequencies(1e6, 2e9, 40)
        clean = sample_scattering(pdn, freqs, system_kind="Z")
        noisy = add_measurement_noise(clean, relative_level=2e-4, seed=9)
        model = recursive_mfti(noisy, block_size=2, samples_per_iteration=4,
                               error_threshold=1e-2, rank_method="tolerance",
                               rank_tolerance=2e-4)
        err = model.aggregate_error(clean)
        assert err < 0.2
        baseline = vfti(noisy, rank_method="tolerance", rank_tolerance=2e-4)
        assert err < baseline.aggregate_error(clean)


class TestFileRoundtrip:
    def test_touchstone_to_macromodel(self, tmp_path, small_system, small_data, dense_data):
        """Write sampled data to a Touchstone file, read it back, and fit it."""
        path = tmp_path / "device.s4p"
        write_touchstone(small_data, path, fmt="RI", freq_unit="KHZ")
        loaded = read_touchstone(path)
        model = mfti(loaded)
        assert model.aggregate_error(dense_data) < 1e-6


class TestMethodComparison:
    def test_all_methods_agree_on_well_sampled_data(self, small_system):
        """With abundant clean data every method produces an accurate model."""
        freqs = log_frequencies(1e1, 1e5, 60)
        data = sample_scattering(small_system, freqs)
        reference = data

        mfti_model = mfti(data)
        vfti_model = vfti(data)
        vf_model = vector_fit(data, n_poles=24, n_iterations=8)

        assert mfti_model.aggregate_error(reference) < 1e-7
        assert vfti_model.aggregate_error(reference) < 1e-6
        vf_err = aggregate_error(vf_model.frequency_response(freqs), reference.samples)
        assert vf_err < 1e-3

    def test_mfti_model_usable_for_passivity_check(self):
        """The recovered descriptor model feeds into the rest of the toolchain."""
        from repro.systems.random_systems import random_stable_system

        system = random_stable_system(order=16, n_ports=3, feedthrough=None, seed=51)
        data = sample_scattering(system, log_frequencies(1e1, 1e5, 12))
        model = mfti(data)
        assert model.order == system.order
        # scattering passivity check over the sampled band: the random benchmark
        # system is not necessarily passive; the check must simply run and
        # list whatever violations it finds
        freqs = np.logspace(1, 5, 40)
        assert isinstance(passivity_violations(model.system, freqs), list)
