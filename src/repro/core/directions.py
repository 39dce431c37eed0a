"""Tangential interpolation direction generators.

A *direction* tells the interpolation framework which combination of ports a
sample matrix is probed along:

* VFTI probes one column and one row per sample -- its directions are single
  unit vectors cycling through the ports (the convention of Lefteriu &
  Antoulas that the paper uses as the baseline),
* MFTI probes ``t_i`` columns/rows per sample -- its directions are
  ``m x t_i`` / ``t_i x p`` matrices, required by Algorithm 1 to be
  orthonormal (full column/row rank guarantees that interpolating
  ``S(f_i) R_i`` pins down the full matrix when ``t_i = min(m, p)``,
  cf. Lemma 3.1).

All generators return *real* directions.  Real directions keep the conjugate
data at ``-j 2 pi f`` exactly the conjugate of the data at ``+j 2 pi f``,
which is what the real transform of Lemma 3.2 requires: the real pencil
``build_loewner_pencil(data, real=True)`` is written from the ``+j omega``
half alone (:mod:`repro.core.loewner`).

The MFTI and recursive front-ends share one piece of plumbing,
:func:`prepare_block_directions`: it resolves the ``block_size`` option into
one ``t_i`` per sample, splits the samples right/left (interleaved, eqs. 6-7),
generates the directions of the requested kind and zero-pads them into the
input/output spaces of a rectangular system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import check_positive_integer

__all__ = [
    "orthonormal_directions",
    "vfti_directions",
    "DirectionPlan",
    "embed_directions",
    "generate_direction_sets",
    "interleaved_indices",
    "prepare_block_directions",
    "resolve_block_sizes",
]


def orthonormal_directions(
    n_ports: int,
    block_size: int,
    count: int,
    *,
    seed: RandomState = None,
) -> list[np.ndarray]:
    """Random orthonormal direction matrices (QR of Gaussian matrices).

    Random directions spread the probing energy over all ports for every
    sample, which is the robust default for noisy data; the deterministic
    identity columns of :func:`generate_direction_sets` are easier to reason
    about in tests.

    Returns a list of ``count`` matrices of shape ``(n_ports, block_size)``.
    """
    n_ports = check_positive_integer(n_ports, "n_ports")
    block_size = check_positive_integer(block_size, "block_size")
    count = check_positive_integer(count, "count")
    if block_size > n_ports:
        raise ValueError(f"block_size ({block_size}) cannot exceed n_ports ({n_ports})")
    rng = ensure_rng(seed)
    directions = []
    for _ in range(count):
        gaussian = rng.normal(size=(n_ports, block_size))
        q, r = np.linalg.qr(gaussian)
        # fix the sign so the factorisation (and hence the experiment) is
        # deterministic given the generator state
        q = q * np.sign(np.diag(r))[np.newaxis, :]
        directions.append(q)
    return directions


def vfti_directions(n_ports: int, count: int, *, start: int = 0) -> list[np.ndarray]:
    """Cycling unit-vector directions used by the VFTI baseline.

    Sample ``i`` is probed along port ``(start + i) mod n_ports`` -- the
    standard choice in the vector-format Loewner literature.  Returns a list
    of ``count`` column vectors of shape ``(n_ports, 1)``.
    """
    n_ports = check_positive_integer(n_ports, "n_ports")
    count = check_positive_integer(count, "count")
    eye = np.eye(n_ports)
    return [eye[:, [(start + i) % n_ports]].copy() for i in range(count)]


@dataclass(frozen=True)
class DirectionPlan:
    """Resolved per-sample tangential directions for an interleaved split."""

    per_sample_sizes: tuple[int, ...]
    right_indices: tuple[int, ...]
    left_indices: tuple[int, ...]
    right_directions: tuple[np.ndarray, ...]
    left_directions: tuple[np.ndarray, ...]


def interleaved_indices(n_samples: int) -> tuple[list[int], list[int]]:
    """The paper's right/left split: even positions right, odd positions left."""
    return list(range(0, n_samples, 2)), list(range(1, n_samples, 2))


def embed_directions(direction: np.ndarray, dimension: int) -> np.ndarray:
    """Zero-pad a direction matrix generated in ``min(m, p)`` space to ``dimension`` rows."""
    direction = np.asarray(direction, dtype=float)
    if direction.shape[0] == dimension:
        return direction
    padded = np.zeros((dimension, direction.shape[1]))
    padded[: direction.shape[0], :] = direction
    return padded


def resolve_block_sizes(
    block_size: Union[None, int, Sequence[int]],
    n_samples: int,
    max_block: int,
) -> list[int]:
    """Normalise the ``block_size`` option into one ``t_i`` per sampled frequency.

    ``None`` means "use everything" (``t_i = min(m, p)``), an integer applies
    uniformly, and a sequence is used as given (this is the paper's
    per-sample weighting for ill-conditioned data).
    :class:`~repro.core.options.MftiOptions` has already refused anything but
    positive integers; this checks the sizes against the data: one per
    sample, none wider than ``max_block``.
    """
    if block_size is None:
        return [max_block] * n_samples
    if isinstance(block_size, (int, np.integer)):
        sizes = [int(block_size)] * n_samples
    else:
        sizes = [int(t) for t in block_size]
        if len(sizes) != n_samples:
            raise ValueError(
                f"block_size sequence must have one entry per sample ({n_samples}), "
                f"got {len(sizes)}"
            )
    for t in sizes:
        if t > max_block:
            raise ValueError(f"block_size must lie in [1, {max_block}], got {t}")
    return sizes


def generate_direction_sets(
    options,
    n_ports: int,
    right_sizes: Sequence[int],
    left_sizes: Sequence[int],
):
    """Generate the per-sample right/left direction matrices requested by ``options``."""
    if options.direction_kind == "identity":
        # rotate the starting column from sample to sample so every port is probed
        eye = np.eye(n_ports)
        right = [
            eye[:, [(i * t + j) % n_ports for j in range(t)]]
            for i, t in enumerate(right_sizes)
        ]
        left = [
            eye[:, [(i * t + j) % n_ports for j in range(t)]]
            for i, t in enumerate(left_sizes)
        ]
        return right, left
    rng = ensure_rng(options.direction_seed)
    right = [orthonormal_directions(n_ports, t, 1, seed=rng)[0] for t in right_sizes]
    left = [orthonormal_directions(n_ports, t, 1, seed=rng)[0] for t in left_sizes]
    return right, left


def prepare_block_directions(
    options,
    n_samples: int,
    n_inputs: int,
    n_outputs: int,
) -> DirectionPlan:
    """Resolve block sizes, split samples right/left and generate embedded directions.

    The per-sample size/direction plumbing of the MFTI and recursive
    front-ends: directions are generated in the ``min(m, p)``-dimensional
    port space and zero-padded into the input/output spaces when the system
    is rectangular.
    """
    max_block = min(n_inputs, n_outputs)
    per_sample_sizes = resolve_block_sizes(options.block_size, n_samples, max_block)
    right_indices, left_indices = interleaved_indices(n_samples)
    right_sizes = [per_sample_sizes[i] for i in right_indices]
    left_sizes = [per_sample_sizes[i] for i in left_indices]
    right_dirs, left_dirs = generate_direction_sets(options, max_block, right_sizes, left_sizes)
    return DirectionPlan(
        per_sample_sizes=tuple(per_sample_sizes),
        right_indices=tuple(right_indices),
        left_indices=tuple(left_indices),
        right_directions=tuple(embed_directions(d, n_inputs) for d in right_dirs),
        left_directions=tuple(embed_directions(d, n_outputs) for d in left_dirs),
    )
