"""Vector-format tangential interpolation (VFTI) -- the baseline the paper improves on.

VFTI is the Loewner-framework method of Mayo & Antoulas / Lefteriu & Antoulas:
every sampled matrix contributes a single column (right data ``S(f_i) r_i``)
or a single row (left data ``l_i S(f_i)``), with the probing unit vectors
cycling through the ports.  Structurally it is the ``t_i = 1`` special case of
MFTI, and this front-end indeed reuses the same tangential-data and Loewner
machinery -- only the direction choice differs -- so that every measured
difference between the two methods in the experiments comes from the
information content of the data, not from implementation details.
"""

from __future__ import annotations

from typing import Optional

from repro.core._pipeline import realize_from_tangential, register_frontend
from repro.core.directions import interleaved_indices, vfti_directions
from repro.core.options import VftiOptions
from repro.core.results import MacromodelResult
from repro.core.tangential import build_tangential_data
from repro.data.dataset import FrequencyData

__all__ = ["vfti"]


@register_frontend("vfti", options_type=VftiOptions)
def vfti(
    data: FrequencyData,
    *,
    options: Optional[VftiOptions] = None,
    **kwargs,
) -> MacromodelResult:
    """Recover a macromodel from sampled data with the vector-format baseline.

    Parameters
    ----------
    data:
        Sampled frequency responses.
    options:
        A :class:`~repro.core.options.VftiOptions` instance; keyword arguments
        are accepted as a shortcut (mutually exclusive with ``options``).

    Returns
    -------
    MacromodelResult

    Notes
    -----
    Because each sample contributes only one tangential column or row, the
    Loewner pencil has one row/column per sample (plus the conjugates) --
    recovering a system of order ``n`` therefore needs on the order of ``n``
    samples, versus ``n / min(m, p)`` for MFTI (Theorem 3.5).  The Example-1
    experiment measures exactly this gap.
    """
    if options is not None and kwargs:
        raise ValueError("pass either an options object or keyword arguments, not both")
    opts = options if options is not None else VftiOptions(**kwargs)

    k = data.n_samples
    if k < 2:
        raise ValueError("VFTI needs at least two sampled frequencies")
    n_inputs = data.n_inputs
    n_outputs = data.n_outputs

    right_indices, left_indices = interleaved_indices(k)
    right_dirs = vfti_directions(n_inputs, len(right_indices), start=opts.direction_start)
    left_dirs = vfti_directions(n_outputs, len(left_indices), start=opts.direction_start)

    tangential = build_tangential_data(
        data,
        right_directions=right_dirs,
        left_directions=left_dirs,
        right_indices=right_indices,
        left_indices=left_indices,
        include_conjugates=opts.include_conjugates,
    )
    return realize_from_tangential(
        tangential,
        opts,
        method="vfti",
        n_samples_used=k,
        metadata={"direction_start": opts.direction_start},
    )
