"""Algorithm 2: recursive MFTI for noisy data.

Real measurement data are noisy, so more samples than the Theorem-3.5 minimum
must be folded in to average the noise out -- but using *all* of a large sweep
makes the Loewner matrices (and the SVD that follows) needlessly expensive.
Algorithm 2 of the paper therefore grows the interpolation set incrementally:

1. start from a small set of samples spread over the frequency band,
2. realize a model, evaluate the tangential residual on the samples *not yet
   used* (a hold-out error),
3. if the mean hold-out error is above the threshold ``Th``, move ``k0`` more
   samples from the hold-out set into the interpolation set and repeat.

The paper's listing selects the next samples through the Matlab ``sort`` of
the hold-out errors; this implementation makes the (documented) choice to add
the *worst-fitting* hold-out samples, which is the active-learning variant
that converges fastest, and offers ``selection="spread"`` to keep following
the frequency-strided pattern instead.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core._pipeline import realize_from_tangential, register_frontend
from repro.core.directions import prepare_block_directions
from repro.core.options import RecursiveOptions
from repro.core.results import MacromodelResult, RecursiveDiagnostics, RecursiveIteration
from repro.core.tangential import TangentialData, _block_slices, build_tangential_data
from repro.data.dataset import FrequencyData

__all__ = ["recursive_mfti"]


def _spread_order(n_pairs: int, stride: int) -> list[int]:
    """The paper's strided visiting order: 0, s, 2s, ..., 1, s+1, ... for stride ``s``."""
    stride = max(1, min(stride, n_pairs))
    order: list[int] = []
    for offset in range(stride):
        order.extend(range(offset, n_pairs, stride))
    return order


def _holdout_errors(
    tangential: TangentialData,
    system,
    holdout_pairs: list[int],
    *,
    relative: bool,
) -> np.ndarray:
    """Tangential residual of ``system`` on the held-out sample pairs.

    All hold-out points are evaluated in one batched sweep through the
    shared evaluation kernel, through the model's evaluation plan when the
    sweep is long enough to amortize it.  A plan is a pure function of the
    system, so the residuals, and the active-learning selection that sorts
    them, are deterministic; the final model keeps its plan for the sweeps
    that score it.
    """
    points = np.concatenate([tangential.right_points[holdout_pairs],
                             tangential.left_points[holdout_pairs]])
    h = system.evaluate_many(points)
    columns = _block_slices(tangential.right_sizes)
    rows = _block_slices(tangential.left_sizes)
    n_pairs = len(holdout_pairs)
    errors = np.empty(n_pairs)
    for pos, pair in enumerate(holdout_pairs):
        right_values = tangential.right_values[:, columns[pair]]
        left_values = tangential.left_values[rows[pair]]
        err = (np.linalg.norm(h[pos] @ tangential.right_directions[:, columns[pair]]
                              - right_values)
               + np.linalg.norm(tangential.left_directions[rows[pair]] @ h[n_pairs + pos]
                                - left_values))
        if relative:
            scale = np.linalg.norm(right_values) + np.linalg.norm(left_values)
            err = err / scale if scale > 0 else err
        errors[pos] = err
    return errors


@register_frontend("mfti-recursive", options_type=RecursiveOptions)
def recursive_mfti(
    data: FrequencyData,
    *,
    options: Optional[RecursiveOptions] = None,
    **kwargs,
) -> MacromodelResult:
    """Recover a macromodel from noisy data with recursive MFTI (Algorithm 2).

    Parameters
    ----------
    data:
        Sampled (typically noisy) frequency responses.
    options:
        A :class:`~repro.core.options.RecursiveOptions` instance; keyword
        arguments are accepted as a shortcut (mutually exclusive with
        ``options``).

    Returns
    -------
    MacromodelResult
        The final model.  ``result.n_samples_used`` counts the sampled
        frequencies it was realized from: the selected pairs and any
        unpaired extra right or left sample.  ``result.metadata["recursion"]``
        holds the :class:`~repro.core.results.RecursiveDiagnostics`
        refinement history and ``result.metadata["selected_pairs"]`` the
        indices of the sample pairs that ended up in the interpolation set.
    """
    if options is not None and kwargs:
        raise ValueError("pass either an options object or keyword arguments, not both")
    opts = options if options is not None else RecursiveOptions(**kwargs)

    k = data.n_samples
    if k < 4:
        raise ValueError("recursive MFTI needs at least four sampled frequencies")

    plan = prepare_block_directions(opts, k, data.n_inputs, data.n_outputs)
    full = build_tangential_data(
        data,
        right_directions=plan.right_directions,
        left_directions=plan.left_directions,
        right_indices=plan.right_indices,
        left_indices=plan.left_indices,
        include_conjugates=opts.include_conjugates,
    )

    n_pairs = min(full.n_right_samples, full.n_left_samples)
    extra_right = list(range(n_pairs, full.n_right_samples))
    extra_left = list(range(n_pairs, full.n_left_samples))

    k0 = opts.samples_per_iteration
    initial = opts.initial_samples if opts.initial_samples is not None else k0
    initial = min(max(initial, 1), n_pairs)
    visit_order = _spread_order(n_pairs, k0)

    selected: list[int] = visit_order[:initial]
    remaining: list[int] = [i for i in visit_order if i not in set(selected)]

    history: list[RecursiveIteration] = []
    converged = False
    result: Optional[MacromodelResult] = None

    for iteration in range(opts.max_iterations):
        right_sel = sorted(set(selected) | set(extra_right))
        left_sel = sorted(set(selected) | set(extra_left))
        result = realize_from_tangential(
            full.subset(right_sel, left_sel),
            opts,
            method="mfti-recursive",
            n_samples_used=len(right_sel) + len(left_sel),
            metadata={"block_sizes": plan.per_sample_sizes},
        )
        if not remaining:
            converged = True
            history.append(RecursiveIteration(
                iteration=iteration,
                n_samples_used=len(selected),
                model_order=result.order,
                holdout_error_mean=float("nan"),
                holdout_error_max=float("nan"),
            ))
            break
        errors = _holdout_errors(full, result.system, remaining, relative=opts.relative_error)
        history.append(RecursiveIteration(
            iteration=iteration,
            n_samples_used=len(selected),
            model_order=result.order,
            holdout_error_mean=float(np.mean(errors)),
            holdout_error_max=float(np.max(errors)),
        ))
        if np.mean(errors) <= opts.error_threshold:
            converged = True
            break
        if iteration + 1 == opts.max_iterations:
            break  # no realization is left to use more samples
        # move the next k0 samples from the hold-out set into the interpolation set
        if opts.selection == "worst":
            order = np.argsort(errors)[::-1]
        else:  # "spread": keep following the strided visiting order
            order = np.arange(len(remaining))
        to_add = [remaining[i] for i in order[:k0]]
        selected = selected + to_add
        remaining = [i for i in remaining if i not in set(to_add)]

    assert result is not None  # max_iterations >= 1 guarantees at least one pass
    diagnostics = RecursiveDiagnostics(
        iterations=tuple(history),
        converged=converged,
        threshold=opts.error_threshold,
    )
    metadata = dict(result.metadata)
    metadata["recursion"] = diagnostics
    metadata["selected_pairs"] = tuple(sorted(selected))
    return MacromodelResult(
        system=result.system,
        method="mfti-recursive",
        realization=result.realization,
        tangential=result.tangential,
        n_samples_used=result.n_samples_used,
        metadata=metadata,
    )
