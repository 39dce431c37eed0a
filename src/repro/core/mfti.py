"""Algorithm 1: matrix-format tangential interpolation (MFTI) of clean data.

The front-end follows the paper's Algorithm 1 step by step:

1. choose the tangential block sizes ``t_i`` and orthonormal matrix-format
   directions ``R_i`` / ``L_i``,
2. build the matrix-format interpolation data of eqs. (6)-(7), including the
   mirrored conjugate samples,
3. assemble the block Loewner and shifted Loewner matrices (eqs. 11-12),
4. apply the real transform of Lemma 3.2,
5. perform the rank-revealing SVD,
6. project to the recovered descriptor model (Lemma 3.4).

The same entry point also covers the paper's "weighting" mode for
ill-conditioned data: pass a per-sample sequence of block sizes to spend more
tangential columns on the samples that matter.
"""

from __future__ import annotations

from typing import Optional

from repro.core._pipeline import realize_from_tangential, register_frontend
from repro.core.directions import prepare_block_directions
from repro.core.options import MftiOptions
from repro.core.results import MacromodelResult
from repro.core.tangential import build_tangential_data
from repro.data.dataset import FrequencyData

__all__ = ["mfti"]


@register_frontend("mfti", options_type=MftiOptions)
def mfti(
    data: FrequencyData,
    *,
    options: Optional[MftiOptions] = None,
    **kwargs,
) -> MacromodelResult:
    """Recover a descriptor-system macromodel from sampled data with MFTI (Algorithm 1).

    Parameters
    ----------
    data:
        Sampled frequency responses (scattering, impedance, admittance or
        generic transfer-function matrices).
    options:
        An :class:`~repro.core.options.MftiOptions` instance; keyword
        arguments are accepted as a shortcut and merged into a fresh options
        object (``options`` and keyword arguments are mutually exclusive).

    Returns
    -------
    MacromodelResult
        The recovered model plus the tangential data and realization
        diagnostics.  The Loewner pencil is not kept:
        ``build_loewner_pencil(result.tangential)`` rebuilds it.

    Examples
    --------
    >>> from repro.systems import example1_system
    >>> from repro.data import linear_frequencies, sample_scattering
    >>> from repro.core import mfti
    >>> system = example1_system(order=20, n_ports=4)
    >>> data = sample_scattering(system, linear_frequencies(1e2, 1e4, 8))
    >>> model = mfti(data)
    >>> model.order <= 8 * 4 * 2
    True
    """
    if options is not None and kwargs:
        raise ValueError("pass either an options object or keyword arguments, not both")
    opts = options if options is not None else MftiOptions(**kwargs)

    k = data.n_samples
    if k < 2:
        raise ValueError("MFTI needs at least two sampled frequencies")

    plan = prepare_block_directions(opts, k, data.n_inputs, data.n_outputs)
    tangential = build_tangential_data(
        data,
        right_directions=plan.right_directions,
        left_directions=plan.left_directions,
        right_indices=plan.right_indices,
        left_indices=plan.left_indices,
        include_conjugates=opts.include_conjugates,
    )
    return realize_from_tangential(
        tangential,
        opts,
        method="mfti",
        n_samples_used=k,
        metadata={"block_sizes": plan.per_sample_sizes},
    )
