"""Equivalence, golden and edge-case tests of the shared sweep-evaluation kernel.

The kernel (:mod:`repro.systems.evaluation`) replaces four independent
per-point evaluation loops, so its contract is locked from three sides:

* **golden fixtures** -- ``tests/golden/golden_eval.json`` pins literal
  ``H(s)`` values (computed by the per-point reference loop) for a
  deterministic system zoo; every sweep -- the stacked solve, the
  per-point loop and ``evaluate_many``, which takes the plan for long
  sweeps -- must reproduce them to ``<= 1e-10`` relative error per point.  Regenerate after an *intentional*
  numerical change with::

      PYTHONPATH=src python tests/test_evaluation_kernel.py --regenerate

* **hypothesis properties** -- over randomly generated stable systems,
  real and with a complex ``A``, and sweeps spanning several stacked-solve
  chunks, the batched stacked solve is *bitwise identical* to the reference
  loop, and ``evaluate_many`` (the eigendecomposition plan for sweeps of
  ``FAST_PATH_MIN_POINTS`` or more) agrees to ``<= 1e-10`` relative error
  per point;

* **edge cases** -- empty point sets, generator inputs, singular pencils
  taking the least-squares fallback, non-square systems, non-diagonalizable
  pencils rejecting the plan, short sweeps skipping it, and plan-cache
  pickling.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import backends
from repro.circuits.pdn import PdnConfiguration, power_distribution_network
from repro.metrics.errors import relative_error_per_frequency
from repro.systems import DescriptorSystem, StateSpace, evaluation, random_stable_system
from repro.systems.evaluation import (
    FAST_PATH_MIN_POINTS,
    SOLVE_BUFFER_BYTES,
    SOLVE_CHUNK,
    build_evaluation_plan,
    evaluate_cauchy,
    evaluate_pointwise,
)
from repro.vectorfitting.rational import PoleResidueModel

from oracles import interpolation_residuals

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "golden_eval.json")

#: The acceptance bound: every vectorized sweep matches the per-point
#: reference loop to this relative error per evaluation point.
EQUIVALENCE_RTOL = 1e-10


def _solve(system: DescriptorSystem, points) -> np.ndarray:
    """The stacked solve of a sweep, bitwise identical to the per-point loop."""
    return evaluation._evaluate_solve(system.E, system.A, system.B, system.C, system.D,
                                      np.asarray(points, dtype=complex).ravel())


def _pointwise(system: DescriptorSystem, points) -> np.ndarray:
    """The per-point reference loop."""
    return evaluate_pointwise(system.E, system.A, system.B, system.C, system.D, points)


#: Every way a descriptor system is swept: the two kernels ``evaluate_many``
#: chooses between and the reference loop.
SWEEPS = {
    "solve": _solve,
    "evaluate_many": lambda system, points: system.evaluate_many(points),
    "pointwise": _pointwise,
}

#: An order whose complex ``(chunk, n, n)`` pencil buffer the byte budget
#: caps below ``SOLVE_CHUNK`` points, and the chunk it gets.
BUDGET_ORDER = 120
BUDGET_CHUNK = SOLVE_BUFFER_BYTES // (BUDGET_ORDER**2 * np.dtype(complex).itemsize)


# --------------------------------------------------------------------------- #
# deterministic system zoo
# --------------------------------------------------------------------------- #
def _zoo() -> dict[str, tuple[DescriptorSystem, np.ndarray]]:
    """Named deterministic systems with their evaluation points.

    Covers: a standard state-space model, a singular-``E`` descriptor
    (MNA-assembled circuit), and a non-square system -- each with points on
    and off the imaginary axis.
    """
    axis = 1j * 2.0 * np.pi * np.logspace(1.0, 5.0, 12)
    shifted = axis + np.linspace(10.0, 1e4, 12)
    random_sys = random_stable_system(order=24, n_ports=3, feedthrough=0.1, seed=7)
    pdn = power_distribution_network(
        PdnConfiguration(n_ports=2, grid_rows=3, grid_cols=3, n_decaps=2, n_bulk_caps=1)
    )
    pdn_axis = 1j * 2.0 * np.pi * np.logspace(6.0, 9.4, 12)
    square = random_stable_system(order=16, n_ports=4, feedthrough=0.1, seed=21)
    non_square = DescriptorSystem(square.E, square.A, square.B, square.C[[0, 2]],
                                  square.D[[0, 2]])
    return {
        "random-statespace": (random_sys, np.concatenate([axis, shifted])),
        "pdn-descriptor": (pdn, pdn_axis),
        "non-square": (non_square, axis),
    }


def _per_point_relative(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    k = want.shape[0]
    scale = np.maximum(np.linalg.norm(want.reshape(k, -1), axis=1), np.finfo(float).tiny)
    return np.linalg.norm((got - want).reshape(k, -1), axis=1) / scale


def regenerate() -> str:
    """Recompute the golden reference values with the per-point loop."""
    cases = []
    for name, (system, points) in _zoo().items():
        values = evaluate_pointwise(system.E, system.A, system.B, system.C,
                                    system.D, points)
        cases.append({
            "name": name,
            "points_real": points.real.tolist(),
            "points_imag": points.imag.tolist(),
            "values_real": values.real.tolist(),
            "values_imag": values.imag.tolist(),
        })
    document = {
        "description": "reference transfer-function values of the evaluation-kernel zoo",
        "equivalence_rtol": EQUIVALENCE_RTOL,
        "cases": cases,
    }
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return GOLDEN_PATH


@pytest.fixture(scope="module")
def golden():
    if not os.path.exists(GOLDEN_PATH):
        pytest.fail(f"golden fixture missing: {GOLDEN_PATH} "
                    "(run `python tests/test_evaluation_kernel.py --regenerate`)")
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


class TestGoldenEquivalence:
    @pytest.mark.parametrize("sweep", SWEEPS)
    def test_every_strategy_reproduces_golden_values(self, golden, sweep):
        zoo = _zoo()
        assert {case["name"] for case in golden["cases"]} == set(zoo)
        for case in golden["cases"]:
            system, points = zoo[case["name"]]
            stored_points = (np.asarray(case["points_real"])
                             + 1j * np.asarray(case["points_imag"]))
            np.testing.assert_array_equal(stored_points, points,
                                          err_msg=f"{case['name']}: zoo drifted")
            want = (np.asarray(case["values_real"])
                    + 1j * np.asarray(case["values_imag"]))
            got = SWEEPS[sweep](system, points)
            rel = _per_point_relative(got, want)
            assert np.max(rel) <= golden["equivalence_rtol"], (
                f"{case['name']} via {sweep}: max per-point relative error "
                f"{np.max(rel):.2e} exceeds {golden['equivalence_rtol']:g}"
            )

    def test_solve_is_bitwise_identical_to_pointwise(self):
        for name, (system, points) in _zoo().items():
            ref = evaluate_pointwise(system.E, system.A, system.B, system.C,
                                     system.D, points)
            got = _solve(system, points)
            assert np.array_equal(got, ref), f"{name}: solve drifted from the loop"


# --------------------------------------------------------------------------- #
# hypothesis properties
# --------------------------------------------------------------------------- #
@settings(max_examples=20, deadline=None)
@given(order=st.integers(min_value=2, max_value=20),
       n_ports=st.integers(min_value=1, max_value=4),
       seed=st.integers(min_value=0, max_value=2**31 - 1),
       n_points=st.integers(min_value=1, max_value=3 * SOLVE_CHUNK),
       complex_a=st.booleans())
# the stacked solve's pencil buffer reused over full chunks and a partial
# last one, for a real and a complex system, and with chunks the byte
# budget cuts below SOLVE_CHUNK
@example(order=12, n_ports=2, seed=0, n_points=2 * SOLVE_CHUNK + 22, complex_a=False)
@example(order=12, n_ports=2, seed=0, n_points=2 * SOLVE_CHUNK + 22, complex_a=True)
@example(order=BUDGET_ORDER, n_ports=2, seed=0, n_points=2 * BUDGET_CHUNK + 7, complex_a=False)
# the default shift sits three decades above the smallest pole (2.4e5 against
# 82.7 rad/s), which cost the low end of the sweep 1.2e-10
@example(order=16, n_ports=1, seed=17542, n_points=33, complex_a=True)
def test_vectorized_matches_loop_property(order, n_ports, seed, n_points, complex_a):
    """solve == loop bitwise; evaluate_many (the plan) == loop to <= 1e-10 relative.

    ``complex_a`` perturbs ``A`` off the real line, so the plan runs in
    complex arithmetic instead of the real arithmetic of a real system.
    """
    system = random_stable_system(order=order, n_ports=n_ports,
                                  feedthrough=0.05, seed=seed)
    if complex_a:
        system = DescriptorSystem(system.E, system.A + 1e-2j, system.B,
                                  system.C, system.D)
    points = 1j * 2.0 * np.pi * np.logspace(1.0, 5.0, n_points)
    ref = evaluate_pointwise(system.E, system.A, system.B, system.C,
                             system.D, points)
    assert np.array_equal(_solve(system, points), ref)
    fast = system.evaluate_many(points)
    assert np.max(_per_point_relative(fast, ref)) <= EQUIVALENCE_RTOL


def test_stacked_solve_chunk_is_bounded_by_bytes(monkeypatch):
    """A pencil too large for SOLVE_CHUNK points per buffer solves fewer per call."""
    assert 1 <= BUDGET_CHUNK < SOLVE_CHUNK
    numpy_backend = backends.get_backend()
    chunks = []

    def counting_solve(a, b):
        chunks.append(a.shape[0])
        return numpy_backend.solve(a, b)

    monkeypatch.setitem(backends._instances, "numpy",
                        dataclasses.replace(numpy_backend, solve=counting_solve))
    system = random_stable_system(order=BUDGET_ORDER, n_ports=2, feedthrough=0.05, seed=0)
    points = 1j * 2.0 * np.pi * np.logspace(1.0, 5.0, 2 * BUDGET_CHUNK + 7)
    _solve(system, points)
    assert chunks == [BUDGET_CHUNK, BUDGET_CHUNK, 7]


# --------------------------------------------------------------------------- #
# the stacked solve's lanes
# --------------------------------------------------------------------------- #
#: Lane counts the stacked solve is checked with.
LANES = (1, 2, 3, 5)

#: Where the lane property puts a decoupled state's real pole.
POLE = -3.0


def _with_pole(system: DescriptorSystem, pole: float) -> DescriptorSystem:
    """``system`` plus one decoupled state whose pole sits exactly at ``pole``.

    At ``s = pole`` the pencil's last row is exactly zero, so its LU meets a
    zero pivot and the stacked solve falls back to the per-point reference
    for the chunk holding that point.
    """
    n = system.order
    E = np.zeros((n + 1, n + 1))
    E[:n, :n] = system.E
    E[n, n] = 1.0
    A = np.zeros((n + 1, n + 1), dtype=system.A.dtype)
    A[:n, :n] = system.A
    A[n, n] = pole
    B = np.vstack([system.B, np.ones((1, system.n_inputs))])
    C = np.hstack([system.C, np.ones((system.n_outputs, 1))])
    return DescriptorSystem(E, A, B, C, system.D)


@settings(max_examples=20, deadline=None)
@given(order=st.integers(min_value=2, max_value=24),
       n_ports=st.integers(min_value=1, max_value=3),
       seed=st.integers(min_value=0, max_value=2**31 - 1),
       n_points=st.integers(min_value=1, max_value=60),
       pencils=st.integers(min_value=1, max_value=16),
       complex_a=st.booleans(),
       pole_at=st.none() | st.integers(min_value=0, max_value=59))
# 12 pencils of budget cut 50 points into 9, 13 and 25 chunks for 2, 3 and 5
# lanes, and point 7 sits in a chunk that lane 1, 1 and 3 owns: the chunk's
# singular fallback runs off the calling thread
@example(order=20, n_ports=2, seed=0, n_points=50, pencils=12, complex_a=False, pole_at=None)
@example(order=20, n_ports=2, seed=0, n_points=50, pencils=12, complex_a=True, pole_at=None)
@example(order=20, n_ports=2, seed=0, n_points=50, pencils=12, complex_a=False, pole_at=7)
@example(order=20, n_ports=2, seed=0, n_points=50, pencils=12, complex_a=True, pole_at=7)
def test_lanes_match_the_loop_byte_for_byte(order, n_ports, seed, n_points, pencils,
                                            complex_a, pole_at):
    """Any lane count gives the reference loop's bytes, singular points included.

    The byte budget is cut to ``pencils`` pencils of the system, so a sweep
    of a few dozen points spans many chunks; the chunks are dealt
    round-robin, so the lane that owns the pole's chunk, and therefore the
    thread its fallback runs on, is known.
    """
    system = random_stable_system(order=order, n_ports=n_ports, feedthrough=0.05, seed=seed)
    if complex_a:
        system = DescriptorSystem(system.E, system.A + 1e-2j, system.B, system.C, system.D)
    points = 1j * 2.0 * np.pi * np.logspace(1.0, 5.0, n_points)
    if pole_at is not None and pole_at < n_points:
        system = _with_pole(system, POLE)
        points[pole_at] = POLE
    else:
        pole_at = None
    ref = evaluate_pointwise(system.E, system.A, system.B, system.C, system.D, points)
    caller = threading.get_ident()
    fallbacks: list = []

    def recording_pointwise(*args):
        fallbacks.append((threading.get_ident(), args[-1]))
        return evaluate_pointwise(*args)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the lanes' Python code interleaves as finely as it can
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evaluation, "SOLVE_BUFFER_BYTES",
                          pencils * system.A.size * np.dtype(complex).itemsize)
            patch.setattr(evaluation, "evaluate_pointwise", recording_pointwise)
            for lanes in LANES:
                fallbacks.clear()
                got = evaluation._evaluate_solve(system.E, system.A, system.B, system.C,
                                                 system.D, points, workers=lanes)
                assert got.tobytes() == ref.tobytes(), f"{lanes} lanes drifted from the loop"
                if pole_at is None:
                    assert not fallbacks
                    continue
                chunk = min(SOLVE_CHUNK, pencils // min(lanes, pencils))
                owner = (pole_at // chunk) % min(lanes, pencils, -(-n_points // chunk))
                first = pole_at // chunk * chunk
                assert [(thread == caller, list(block)) for thread, block in fallbacks] == [
                    (owner == 0, list(points[first : first + chunk]))]
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("failing_lane", ["calling thread", "worker"])
def test_a_lane_error_propagates_after_every_lane_stops(monkeypatch, failing_lane):
    """No lane thread outlives the sweep, whichever lane raised."""
    numpy_backend = backends.get_backend()
    caller = threading.get_ident()

    def failing_solve(a, b):
        if (threading.get_ident() == caller) == (failing_lane == "calling thread"):
            raise RuntimeError("lane failed")
        return numpy_backend.solve(a, b)

    monkeypatch.setitem(backends._instances, "numpy",
                        dataclasses.replace(numpy_backend, solve=failing_solve))
    system = random_stable_system(order=12, n_ports=2, feedthrough=0.05, seed=0)
    points = 1j * 2.0 * np.pi * np.logspace(1.0, 5.0, 4 * SOLVE_CHUNK)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="lane failed"):
        evaluation._evaluate_solve(system.E, system.A, system.B, system.C, system.D,
                                   points, workers=3)
    assert set(threading.enumerate()) <= before


@pytest.mark.parametrize("lanes", [2, 3])
def test_each_lane_owns_one_buffer_within_its_share_of_the_budget(monkeypatch, lanes):
    """Lanes' buffers are distinct and each holds at most SOLVE_BUFFER_BYTES // lanes."""
    numpy_backend = backends.get_backend()
    caller = threading.get_ident()
    calls = []  # (on the calling thread, buffer id, buffer bytes)

    def recording_solve(a, b):
        calls.append((threading.get_ident() == caller, id(a.base), a.base.nbytes))
        return numpy_backend.solve(a, b)

    monkeypatch.setitem(backends._instances, "numpy",
                        dataclasses.replace(numpy_backend, solve=recording_solve))
    system = random_stable_system(order=BUDGET_ORDER, n_ports=2, feedthrough=0.05, seed=0)
    points = 1j * 2.0 * np.pi * np.logspace(1.0, 5.0, 2 * BUDGET_CHUNK + 7)
    got = evaluation._evaluate_solve(system.E, system.A, system.B, system.C, system.D,
                                     points, workers=lanes)
    assert got.tobytes() == evaluate_pointwise(system.E, system.A, system.B, system.C,
                                               system.D, points).tobytes()
    assert len({buffer for _, buffer, _ in calls}) == lanes
    assert len({buffer for on_caller, buffer, _ in calls if on_caller}) == 1
    assert not all(on_caller for on_caller, _, _ in calls)
    assert max(size for _, _, size in calls) <= SOLVE_BUFFER_BYTES // lanes


@settings(max_examples=20, deadline=None)
@given(n_poles=st.integers(min_value=1, max_value=6),
       p=st.integers(min_value=1, max_value=3),
       m=st.integers(min_value=1, max_value=3),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_cauchy_kernel_matches_per_point_evaluation(n_poles, p, m, seed):
    """The vectorized Cauchy contraction equals scalar pole-residue sums."""
    rng = np.random.default_rng(seed)
    poles = -rng.uniform(0.1, 10.0, n_poles) + 1j * rng.uniform(-5.0, 5.0, n_poles)
    residues = rng.normal(size=(n_poles, p, m)) + 1j * rng.normal(size=(n_poles, p, m))
    d = rng.normal(size=(p, m))
    points = 1j * rng.uniform(0.1, 100.0, 9)
    batched = evaluate_cauchy(poles, residues, d, points)
    for i, s in enumerate(points):
        expected = np.tensordot(1.0 / (s - poles), residues, axes=(0, 0)) + d
        np.testing.assert_allclose(batched[i], expected, rtol=1e-12, atol=0.0)


# --------------------------------------------------------------------------- #
# edge cases (issue satellite: evaluate_many corner behaviour)
# --------------------------------------------------------------------------- #
class TestEvaluateManyEdgeCases:
    @pytest.mark.parametrize("sweep", SWEEPS)
    def test_empty_point_set(self, small_system, sweep):
        out = SWEEPS[sweep](small_system, [])
        assert out.shape == (0, small_system.n_outputs, small_system.n_inputs)
        assert out.dtype == complex

    def test_empty_frequency_response(self, small_system):
        out = small_system.frequency_response([])
        assert out.shape == (0, small_system.n_outputs, small_system.n_inputs)

    def test_generator_input(self, small_system):
        points = [1j * 10.0, 1j * 100.0, 5.0 + 1j]
        from_list = small_system.evaluate_many(points)
        from_generator = small_system.evaluate_many(p for p in points)
        np.testing.assert_array_equal(from_list, from_generator)

    @pytest.mark.parametrize("sweep", SWEEPS)
    def test_singular_pencil_takes_lstsq_fallback(self, sweep):
        """Points where ``sE - A`` is exactly singular match the lstsq loop."""
        system = StateSpace(np.diag([1.0, -2.0]), np.eye(2), np.eye(2),
                            np.zeros((2, 2)))
        # s = 1 makes the pencil exactly singular; surround it with enough
        # regular points that evaluate_many takes the plan
        points = np.concatenate([[1.0 + 0.0j], 1j * np.linspace(1.0, 9.0, 9)])
        ref = evaluate_pointwise(system.E, system.A, system.B, system.C,
                                 system.D, points)
        # the reference itself must have taken the least-squares branch
        lstsq = np.linalg.lstsq(1.0 * np.eye(2) - system.A,
                                system.B.astype(complex), rcond=None)[0]
        np.testing.assert_allclose(ref[0], system.C @ lstsq + system.D,
                                   rtol=1e-12, atol=1e-12)
        got = SWEEPS[sweep](system, points)
        assert np.all(np.isfinite(got))
        rel = _per_point_relative(got, ref)
        assert np.max(rel) <= EQUIVALENCE_RTOL

    @pytest.mark.parametrize("a", [1.0, 0.3, 1.7, 2.5, 3.9, 5.3, 7.7, 11.1])
    def test_singular_point_repaired_with_cached_plan(self, a):
        """Regression: a plan cached from a *regular* sweep must not return
        cancellation garbage when a later sweep hits a pencil eigenvalue.

        The weight denominator ``(s - sigma) lambda - 1`` usually rounds to
        ~1e-16 instead of exactly zero at the singular point, so an
        ``isfinite`` check alone would let ~1e15-magnitude values through;
        the near-singular mask must catch it.
        """
        system = StateSpace(np.diag([a, -2.0]), np.eye(2), np.eye(2),
                            np.zeros((2, 2)))
        regular = 1j * np.linspace(1.0, 9.0, 11) + 0.25  # plan built/verified here
        system.evaluate_many(regular)
        assert system._eval_plan is not None
        sweep = np.concatenate([[complex(a)], 1j * np.linspace(1.0, 9.0, 9)])
        got = system.evaluate_many(sweep)
        ref = evaluate_pointwise(system.E, system.A, system.B, system.C,
                                 system.D, sweep)
        assert np.all(np.isfinite(got))
        assert np.max(_per_point_relative(got, ref)) <= EQUIVALENCE_RTOL

    def test_out_of_band_sweep_uses_the_cached_plan(self, small_system):
        """The plan a narrow sweep caches holds from 1e-2 to 1e11 Hz."""
        system = small_system.copy()
        system.evaluate_many(1j * 2.0 * np.pi * np.logspace(1.0, 2.0, 12))
        assert system._evaluation_plan() is not None
        wide_band = 1j * 2.0 * np.pi * np.logspace(-2.0, 11.0, 66)
        got = system.evaluate_many(wide_band)
        ref = evaluate_pointwise(system.E, system.A, system.B, system.C,
                                 system.D, wide_band)
        assert np.max(_per_point_relative(got, ref)) <= EQUIVALENCE_RTOL

    @pytest.mark.parametrize("sweep", SWEEPS)
    def test_non_square_system(self, sweep):
        base = random_stable_system(order=12, n_ports=4, feedthrough=0.1, seed=3)
        system = DescriptorSystem(base.E, base.A, base.B, base.C[:2], base.D[:2])
        assert system.shape == (2, 4)
        points = 1j * 2.0 * np.pi * np.logspace(1.0, 4.0, 10)
        got = SWEEPS[sweep](system, points)
        assert got.shape == (10, 2, 4)
        ref = evaluate_pointwise(system.E, system.A, system.B, system.C,
                                 system.D, points)
        assert np.max(_per_point_relative(got, ref)) <= EQUIVALENCE_RTOL

    def test_scalar_and_batch_evaluation_agree(self, small_system):
        s = 3.0 + 4.0j
        np.testing.assert_array_equal(
            small_system.evaluate_many([s])[0], small_system.transfer_function(s)
        )

    def test_plan_rejects_non_diagonalizable_pencil(self):
        # a Jordan block is defective: the eigendecomposition fast path must
        # refuse rather than silently return garbage
        a = np.array([[-1.0, 1.0], [0.0, -1.0]])
        system = StateSpace(a, np.eye(2), np.eye(2))
        points = 1j * np.linspace(1.0, 10.0, 12)
        assert build_evaluation_plan(system.E, system.A, system.B, system.C, system.D) is None
        # evaluate_many falls back to the (bitwise-stable) batched solve
        ref = evaluate_pointwise(system.E, system.A, system.B, system.C,
                                 system.D, points)
        np.testing.assert_array_equal(system.evaluate_many(points), ref)

    def test_short_sweeps_take_the_stacked_solve(self, small_system):
        """Below FAST_PATH_MIN_POINTS points no plan is built; from there on it is."""
        points = 1j * 2.0 * np.pi * np.logspace(1.0, 5.0, FAST_PATH_MIN_POINTS)
        system = small_system.copy()  # private plan cache
        short = system.evaluate_many(points[:-1])
        assert system._eval_plan is None
        assert short.tobytes() == _pointwise(system, points[:-1]).tobytes()
        system.evaluate_many(points)
        assert system._eval_plan is not None

    def test_plan_is_cached_and_survives_pickle(self, small_system):
        points = 1j * 2.0 * np.pi * np.logspace(1.0, 5.0, FAST_PATH_MIN_POINTS + 4)
        system = small_system.copy()  # private plan cache
        first = system.evaluate_many(points)
        assert system._eval_plan is not None  # plan (or rejection) memoized
        second = system.evaluate_many(points)
        np.testing.assert_array_equal(first, second)
        clone = pickle.loads(pickle.dumps(system))
        np.testing.assert_array_equal(clone.evaluate_many(points), first)

    def test_rejected_plan_sentinel_survives_pickle(self):
        a = np.array([[-1.0, 1.0], [0.0, -1.0]])
        system = StateSpace(a, np.eye(2), np.eye(2))
        points = 1j * np.linspace(1.0, 10.0, 12)
        ref = system.evaluate_many(points)  # caches the rejection sentinel
        clone = pickle.loads(pickle.dumps(system))
        np.testing.assert_array_equal(clone.evaluate_many(points), ref)


# --------------------------------------------------------------------------- #
# kernel-level API
# --------------------------------------------------------------------------- #
class TestEvaluateDescriptor:
    @pytest.mark.parametrize("perturbation, dtype", [(0.0, np.float64),
                                                     (1e-2j, np.complex128)])
    def test_plan_follows_the_system_dtype(self, small_system, monkeypatch,
                                          perturbation, dtype):
        """A real system's plan runs a real ``eig``; a complex one a complex ``eig``."""
        eig = np.linalg.eig
        seen = []

        def recording_eig(matrix):
            seen.append(matrix.dtype)
            return eig(matrix)

        monkeypatch.setattr(np.linalg, "eig", recording_eig)
        plan = build_evaluation_plan(
            small_system.E, small_system.A + perturbation, small_system.B,
            small_system.C, small_system.D,
        )
        assert plan is not None
        assert seen == [np.dtype(dtype)]
        assert type(plan.sigma) is float

    def test_shift_far_above_the_smallest_pole_moves_to_the_geometric_mean(
            self, small_system):
        """A second plan at ``sqrt(sigma |p_min|)`` is kept when it probes better;
        a system whose poles sit near its shift keeps the default plan."""
        spread = random_stable_system(order=16, n_ports=1, feedthrough=0.05, seed=17542)
        spread = DescriptorSystem(spread.E, spread.A + 1e-2j, spread.B, spread.C, spread.D)
        for system, moves in ((spread, True), (small_system, False)):
            matrices = (system.E, system.A, system.B, system.C, system.D)
            default = evaluation.factor_evaluation_plan(*matrices)
            low = evaluation._pole_magnitudes(default)[0]
            assert (low * evaluation.POLE_SPREAD_LIMIT < default.sigma) == moves
            plan = build_evaluation_plan(*matrices)
            expected = float(np.sqrt(default.sigma * low)) if moves else default.sigma
            assert plan.sigma == expected
            if moves:
                assert (evaluation.plan_probe_ratio(plan, *matrices)[1]
                        < evaluation.plan_probe_ratio(default, *matrices)[1])

    def test_plan_verification_rejects_bad_probes(self, small_system, monkeypatch):
        # an absurdly tight guard rejects every plan -> None
        monkeypatch.setattr(evaluation, "PLAN_GUARD_TOLERANCE", 0.0)
        plan = build_evaluation_plan(
            small_system.E, small_system.A, small_system.B, small_system.C,
            small_system.D,
        )
        assert plan is None


# --------------------------------------------------------------------------- #
# consumers: pole-residue models and vectorized metrics
# --------------------------------------------------------------------------- #
class TestConsumers:
    def test_pole_residue_evaluate_many_matches_scalar(self):
        poles = np.array([-1.0 + 2.0j, -1.0 - 2.0j, -3.0])
        residues = np.stack([
            np.array([[1.0 + 1.0j, 0.5], [0.0, 2.0]]),
            np.array([[1.0 - 1.0j, 0.5], [0.0, 2.0]]),
            np.array([[0.3, 0.0], [0.1, 0.7]]),
        ])
        model = PoleResidueModel(poles, residues, d=np.ones((2, 2)))
        points = 1j * np.linspace(0.5, 20.0, 7)
        batched = model.evaluate_many(points)
        for i, s in enumerate(points):
            np.testing.assert_allclose(batched[i], model.transfer_function(s),
                                       rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(
            model.frequency_response([1.0, 2.0]),
            model.evaluate_many(1j * 2.0 * np.pi * np.array([1.0, 2.0])),
        )

    def test_relative_error_matches_per_sample_loop(self, rng):
        model = rng.normal(size=(9, 3, 3)) + 1j * rng.normal(size=(9, 3, 3))
        reference = model + 1e-3 * rng.normal(size=model.shape)
        reference[4] = 0.0  # zero-reference frequency: absolute error branch
        batched = relative_error_per_frequency(model, reference)
        for i in range(model.shape[0]):
            denom = np.linalg.norm(reference[i], 2)
            num = np.linalg.norm(model[i] - reference[i], 2)
            expected = num if denom == 0.0 else num / denom
            np.testing.assert_allclose(batched[i], expected, rtol=1e-12)

    def test_relative_error_empty_stack(self):
        out = relative_error_per_frequency(np.empty((0, 2, 2)), np.empty((0, 2, 2)))
        assert out.shape == (0,)

    def test_interpolation_residuals_accepts_scalar_only_models(self, small_system,
                                                                small_data):
        from repro.core.mfti import mfti

        result = mfti(small_data)
        tangential = result.tangential

        class ScalarOnly:
            def transfer_function(self, s):
                return result.system.transfer_function(s)

        batched = interpolation_residuals(tangential, result.system)
        scalar = interpolation_residuals(tangential, ScalarOnly())
        np.testing.assert_allclose(batched[0], scalar[0], rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(batched[1], scalar[1], rtol=1e-9, atol=1e-12)


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        print(f"golden fixture written to {regenerate()}")
    else:
        print(__doc__)
