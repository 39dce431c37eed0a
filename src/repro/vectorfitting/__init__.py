"""Vector fitting (VF) -- the classical iterative rational-fitting baseline.

The paper's Table 1 compares MFTI not only against VFTI but also against the
popular Vector Fitting algorithm of Gustavsen & Semlyen (1999): an iterative
pole-relocation scheme that fits a common-pole rational model

``H(s) = sum_n R_n / (s - a_n) + D``

to the sampled data.  This package provides a from-scratch implementation:

* :mod:`repro.vectorfitting.kernels` -- the batched VF kernels (basis, pole
  relocation, residue reconstruction, the fast-VF solver) over the one
  pole-pairing rule, :class:`PoleGrouping`,
* :mod:`repro.vectorfitting.poles` -- initial pole placement,
* :mod:`repro.vectorfitting.rational` -- the :class:`PoleResidueModel`
  rational-model class (evaluation + conversion to a real state space),
* :mod:`repro.vectorfitting.fitting` -- the fast-VF style fitting loop,
* :mod:`repro.vectorfitting.passivity` -- sampling-based passivity checks for
  the fitted models (:func:`passivity_violations`),
* :mod:`repro.vectorfitting.enforcement` -- post-fit passivity enforcement
  (Gustavsen-style residue perturbation) producing certified passive models.
"""

from repro.vectorfitting.enforcement import (
    EnforcementFailed,
    PassivityCertificate,
    PassivitySpec,
    enforce_passivity,
)
from repro.vectorfitting.fitting import VectorFitResult, vector_fit
from repro.vectorfitting.kernels import PoleGrouping
from repro.vectorfitting.passivity import passivity_violations
from repro.vectorfitting.poles import initial_poles, sort_poles
from repro.vectorfitting.rational import PoleResidueModel

__all__ = [
    "initial_poles",
    "sort_poles",
    "PoleGrouping",
    "PoleResidueModel",
    "vector_fit",
    "VectorFitResult",
    "passivity_violations",
    "PassivitySpec",
    "PassivityCertificate",
    "EnforcementFailed",
    "enforce_passivity",
]
