"""Loewner-matrix tangential interpolation: VFTI baseline and the paper's MFTI.

Layout of the subpackage (bottom-up):

* :mod:`repro.core.directions` -- tangential direction generators (unit
  vectors for VFTI, orthonormal ``t_i``-column matrices for MFTI) and the
  block-size / right-left split plumbing the MFTI and recursive front-ends
  share.
* :mod:`repro.core.tangential` -- the :class:`TangentialData` container
  (each side's points, block sizes, directions and values, stacked, with the
  conjugate ``-j omega`` blocks implied) and its construction from
  :class:`~repro.data.dataset.FrequencyData` (eqs. 6-9 of the paper).
* :mod:`repro.core.loewner` -- block-format Loewner and shifted Loewner
  matrices (eqs. 11-12) and the real pencil of Lemma 3.2.
* :mod:`repro.core.realization` -- the SVD realization of Lemma 3.4.
* :mod:`repro.core.sampling` -- the minimal-sampling estimates of Theorem 3.5.
* :mod:`repro.core.mfti` -- Algorithm 1 (MFTI for noise-free / clean data).
* :mod:`repro.core.recursive` -- Algorithm 2 (recursive MFTI for noisy data).
* :mod:`repro.core.vfti` -- the vector-format baseline the paper compares
  against.
* :mod:`repro.core.options` / :mod:`repro.core.results` -- configuration and
  result value objects shared by all front-ends.
"""

from repro.core._pipeline import available_methods, frontend_spec, run_fit
from repro.core.directions import orthonormal_directions, vfti_directions
from repro.core.loewner import LoewnerPencil, build_loewner_pencil
from repro.core.mfti import mfti
from repro.core.options import InterpolationOptions, MftiOptions, RecursiveOptions, VftiOptions
from repro.core.realization import svd_realization
from repro.core.recursive import recursive_mfti
from repro.core.results import MacromodelResult, RecursiveDiagnostics
from repro.core.sampling import minimal_sample_count
from repro.core.tangential import TangentialData, build_tangential_data
from repro.core.vfti import vfti

__all__ = [
    "orthonormal_directions",
    "vfti_directions",
    "TangentialData",
    "build_tangential_data",
    "LoewnerPencil",
    "build_loewner_pencil",
    "svd_realization",
    "minimal_sample_count",
    "mfti",
    "recursive_mfti",
    "vfti",
    "run_fit",
    "available_methods",
    "frontend_spec",
    "InterpolationOptions",
    "MftiOptions",
    "VftiOptions",
    "RecursiveOptions",
    "MacromodelResult",
    "RecursiveDiagnostics",
]
