"""Configuration objects for the interpolation front-ends.

All knobs of the algorithms are collected in small frozen dataclasses so that
experiments can be described declaratively (and compared in ablations) instead
of through long keyword lists.  Every front-end also accepts plain keyword
arguments and builds the options object internally, so casual use stays
lightweight::

    result = mfti(data)                          # defaults
    result = mfti(data, block_size=2)            # paper's "t_i = 2" row
    result = mfti(data, options=MftiOptions(block_size=3, rank_method="tolerance"))
"""

from __future__ import annotations

import cmath
import dataclasses
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.utils.rng import RandomState
from repro.utils.validation import check_nonnegative_integer, check_positive_integer

__all__ = [
    "InterpolationOptions",
    "MftiOptions",
    "VftiOptions",
    "RecursiveOptions",
    "canonical_token",
    "parse_canonical_token",
    "options_from_items",
    "OPTION_TYPES",
]


def canonical_token(value) -> str:
    """Encode one option value into a stable textual token.

    The encoding is exact (floats via ``float.hex`` so distinct values never
    collide and equal values never differ across platforms) and type-prefixed
    (so ``1`` and ``True`` and ``"1"`` stay distinct).  Live random generators
    are rejected: their hidden state cannot be captured, so two "equal"
    options objects could still behave differently.

    Public because every layer that needs a stable textual identity for
    small scalar values reuses this one encoding: the options
    :meth:`~InterpolationOptions.canonical_items` serialization, the cache
    fingerprints built on it, and the job identities
    (:func:`repro.batch.jobs.job_fingerprint`), which also encode job
    labels and tag values through it.
    """
    if value is None:
        return "none"
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return f"bool:{bool(value)}"
    if isinstance(value, (int, np.integer)):
        return f"int:{int(value)}"
    if isinstance(value, (float, np.floating)):
        return f"float:{float(value).hex()}"
    if isinstance(value, (complex, np.complexfloating)):
        value = complex(value)
        return f"complex:{value.real.hex()},{value.imag.hex()}"
    if isinstance(value, str):
        # length-prefixed so strings containing delimiters (',', '|', '=')
        # can never alias neighbouring tokens or fields in the hash stream
        return f"str:{len(value)}:{value}"
    if isinstance(value, (tuple, list)) or (isinstance(value, np.ndarray) and value.ndim == 1):
        return "seq:[" + ",".join(canonical_token(entry) for entry in value) + "]"
    raise TypeError(
        f"option value {value!r} of type {type(value).__name__} has no canonical "
        "serialization (live numpy.random.Generator seeds are deliberately rejected)"
    )


def _check_integer(check, value, name: str) -> None:
    """Run an integer check of :mod:`repro.utils.validation` on an option value.

    Its ``TypeError`` (a float, a bool, a string) becomes a ``ValueError``,
    so every invalid option value raises the one exception type the options
    document and the CLI reports as a usage error.
    """
    try:
        check(value, name)
    except TypeError as exc:
        raise ValueError(str(exc)) from None


def _check_flag(value, name: str) -> None:
    """A flag option is a ``bool`` or ``numpy.bool_``, not a truthy stand-in."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")


def _is_finite_number(value, kind: type) -> bool:
    """Whether ``value`` is a finite ``kind`` (``numbers.Real``/``Complex``), not a bool."""
    if not isinstance(value, kind) or isinstance(value, bool):
        return False
    try:
        return cmath.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _scan_scalar(text: str, pos: int) -> int:
    """Advance ``pos`` past a scalar token body (stops at ``,`` / ``]`` / end)."""
    while pos < len(text) and text[pos] not in ",]":
        pos += 1
    return pos


def _parse_token(text: str, pos: int):
    """Recursive-descent parse of one canonical token starting at ``pos``."""
    if text.startswith("none", pos):
        return None, pos + 4
    if text.startswith("bool:", pos):
        for literal, value in (("True", True), ("False", False)):
            if text.startswith(literal, pos + 5):
                return value, pos + 5 + len(literal)
        raise ValueError(f"malformed bool token at offset {pos}: {text[pos:pos + 16]!r}")
    if text.startswith("int:", pos):
        end = _scan_scalar(text, pos + 4)
        return int(text[pos + 4:end]), end
    if text.startswith("float:", pos):
        end = _scan_scalar(text, pos + 6)
        return float.fromhex(text[pos + 6:end]), end
    if text.startswith("complex:", pos):
        mid = _scan_scalar(text, pos + 8)
        if mid >= len(text) or text[mid] != ",":
            raise ValueError(f"malformed complex token at offset {pos}")
        end = _scan_scalar(text, mid + 1)
        return complex(float.fromhex(text[pos + 8:mid]), float.fromhex(text[mid + 1:end])), end
    if text.startswith("str:", pos):
        colon = text.find(":", pos + 4)
        if colon < 0:
            raise ValueError(f"malformed str token at offset {pos}")
        length = int(text[pos + 4:colon])
        start = colon + 1
        if start + length > len(text):
            raise ValueError(f"str token at offset {pos} claims {length} chars past the end")
        return text[start:start + length], start + length
    if text.startswith("seq:[", pos):
        pos += 5
        items = []
        if pos < len(text) and text[pos] == "]":
            return (), pos + 1
        while True:
            value, pos = _parse_token(text, pos)
            items.append(value)
            if pos >= len(text):
                raise ValueError("unterminated seq token")
            if text[pos] == ",":
                pos += 1
                continue
            if text[pos] == "]":
                return tuple(items), pos + 1
            raise ValueError(f"unexpected character {text[pos]!r} inside seq token")
    raise ValueError(f"unknown canonical token at offset {pos}: {text[pos:pos + 16]!r}")


def parse_canonical_token(token: str):
    """Decode one :func:`canonical_token` encoding back into its value.

    The exact inverse of :func:`canonical_token` for every value that
    encoding accepts, with one deliberate normalisation: sequences come back
    as tuples (the encoding does not distinguish ``list`` / ``tuple`` /
    1-D ``ndarray``, and tuples keep frozen options hashable).  This is what
    lets a wire-format job spec -- a shard manifest or a ``repro.serve``
    request -- rebuild the *identical* options object from its canonical
    items instead of shipping pickles.

    Raises
    ------
    ValueError
        On malformed or trailing input; a truncated token never decodes
        silently.
    """
    value, pos = _parse_token(str(token), 0)
    if pos != len(token):
        raise ValueError(f"trailing data after canonical token: {token[pos:]!r}")
    return value


@dataclass(frozen=True)
class InterpolationOptions:
    """Options shared by every Loewner-based front-end (VFTI and MFTI).

    Attributes
    ----------
    real_output:
        Apply the real transform of Lemma 3.2 so the recovered model has real
        matrices.  Requires conjugate data (``include_conjugates``).
    include_conjugates:
        Add the mirrored samples at ``-j 2 pi f`` (eq. 6-7).  Disabling this
        also disables ``real_output``.
    svd_mode:
        ``"two-sided"`` (SVDs of ``[L, sL]`` / ``[L; sL]``; robust default) or
        ``"pencil"`` (single SVD of ``x0*L - sL``, the paper's literal step 5).
    x0:
        Shift used in pencil mode, a finite real or complex number (not
        ``bool``); ``None`` selects the first right point.
    order:
        Explicit model order, a positive integer (not ``bool``); ``None``
        selects the order automatically from the singular-value profile.
    rank_method:
        Automatic order detection rule: ``"gap"`` or ``"tolerance"``.
    rank_tolerance:
        Relative singular-value tolerance used by the ``"tolerance"`` rule and
        as the fallback of the ``"gap"`` rule: a finite real number ``> 0``
        (not ``bool``).

    The two flags are ``bool`` or ``numpy.bool_``.  Every invalid value
    raises ``ValueError`` here, so the CLI reports it as a usage error.
    """

    real_output: bool = True
    include_conjugates: bool = True
    svd_mode: str = "two-sided"
    x0: Optional[complex] = None
    order: Optional[int] = None
    rank_method: str = "gap"
    rank_tolerance: float = 1e-9

    def __post_init__(self):
        _check_flag(self.real_output, "real_output")
        _check_flag(self.include_conjugates, "include_conjugates")
        if self.svd_mode not in ("two-sided", "pencil"):
            raise ValueError(f"svd_mode must be 'two-sided' or 'pencil', got {self.svd_mode!r}")
        if self.x0 is not None and not _is_finite_number(self.x0, numbers.Complex):
            raise ValueError(f"x0 must be None or a finite number, got {self.x0!r}")
        if self.rank_method not in ("gap", "tolerance"):
            raise ValueError(f"rank_method must be 'gap' or 'tolerance', got {self.rank_method!r}")
        if not (_is_finite_number(self.rank_tolerance, numbers.Real) and self.rank_tolerance > 0):
            raise ValueError(
                f"rank_tolerance must be a finite real number > 0, got {self.rank_tolerance!r}")
        if self.order is not None:
            _check_integer(check_positive_integer, self.order, "order")
        if self.real_output and not self.include_conjugates:
            raise ValueError("real_output requires include_conjugates=True")

    def canonical_items(self) -> tuple[tuple[str, str], ...]:
        """Stable ``(field, token)`` pairs fully identifying this configuration.

        Fields are sorted by name (so the result is independent of declaration
        or construction order) and values are encoded with an exact,
        type-prefixed textual encoding.  This is the serialization the cache
        fingerprints (:func:`repro.cache.options_fingerprint`) are built on;
        two options objects produce the same items iff they describe the same
        fit configuration.

        Raises
        ------
        TypeError
            If a field holds a value without a canonical encoding (e.g. a
            live ``numpy.random.Generator`` seed, whose hidden state cannot
            be captured).
        """
        return tuple(
            (field.name, canonical_token(getattr(self, field.name)))
            for field in sorted(dataclasses.fields(self), key=lambda f: f.name)
        )


@dataclass(frozen=True)
class MftiOptions(InterpolationOptions):
    """Options of the matrix-format front-end (Algorithm 1).

    Attributes
    ----------
    block_size:
        The tangential block size ``t_i``.  ``None`` uses the full
        ``min(m, p)`` (all matrix information, Lemma 3.1); an integer applies
        the same ``t`` to every sample; a sequence assigns one ``t_i`` per
        sampled frequency, which is how the paper weights ill-conditioned
        samples ("weight 1" / "weight 2" in Table 1 Test 2).  Integers are
        Python or numpy integers, not ``bool``; anything else raises
        ``ValueError`` here, and the fit checks each ``t_i`` against
        ``min(m, p)``.
    direction_kind:
        ``"identity"`` (deterministic, cycling identity columns) or
        ``"random"`` (random orthonormal matrices).
    direction_seed:
        Seed for the random directions.
    """

    block_size: Union[None, int, Sequence[int]] = None
    direction_kind: str = "identity"
    direction_seed: RandomState = None

    def __post_init__(self):
        super().__post_init__()
        if self.direction_kind not in ("identity", "random"):
            raise ValueError(
                f"direction_kind must be 'identity' or 'random', got {self.direction_kind!r}"
            )
        sizes = self.block_size
        if sizes is None:
            sizes = []
        elif not (isinstance(sizes, (list, tuple))
                  or (isinstance(sizes, np.ndarray) and sizes.ndim == 1)):
            sizes = [sizes]
        for t in sizes:
            _check_integer(check_positive_integer, t, "block_size")


@dataclass(frozen=True)
class VftiOptions(InterpolationOptions):
    """Options of the vector-format baseline.

    Attributes
    ----------
    direction_start:
        Index of the port the cycling unit-vector directions start from, a
        non-negative integer (not ``bool``).
    """

    direction_start: int = 0

    def __post_init__(self):
        super().__post_init__()
        _check_integer(check_nonnegative_integer, self.direction_start, "direction_start")


@dataclass(frozen=True)
class RecursiveOptions(MftiOptions):
    """Options of the recursive algorithm (Algorithm 2).

    Attributes
    ----------
    samples_per_iteration:
        ``k0`` of the paper: how many sample pairs are added per iteration.
    initial_samples:
        Number of sample pairs used for the very first model (defaults to
        ``samples_per_iteration``).
    error_threshold:
        ``Th`` of the paper: the loop stops once the mean hold-out tangential
        error drops below this value.  A finite real number ``>= 0`` (not
        ``bool``).
    relative_error:
        Normalise the hold-out error of each sample by the norm of its
        tangential data (so ``error_threshold`` is a relative quantity); a
        ``bool`` or ``numpy.bool_``.
    selection:
        Which held-out samples to add next: ``"worst"`` (largest hold-out
        error, the active-learning choice) or ``"spread"`` (keep following the
        strided frequency pattern regardless of error).
    max_iterations:
        Safety cap on the number of refinement iterations.

    ``samples_per_iteration``, ``initial_samples`` and ``max_iterations`` are
    positive integers (not ``bool``); anything else raises ``ValueError``.
    """

    samples_per_iteration: int = 4
    initial_samples: Optional[int] = None
    error_threshold: float = 1e-2
    relative_error: bool = True
    selection: str = "worst"
    max_iterations: int = 100

    def __post_init__(self):
        super().__post_init__()
        _check_integer(check_positive_integer, self.samples_per_iteration,
                       "samples_per_iteration")
        if self.initial_samples is not None:
            _check_integer(check_positive_integer, self.initial_samples, "initial_samples")
        _check_integer(check_positive_integer, self.max_iterations, "max_iterations")
        if not (_is_finite_number(self.error_threshold, numbers.Real)
                and self.error_threshold >= 0):
            raise ValueError(f"error_threshold must be a finite real number >= 0, "
                             f"got {self.error_threshold!r}")
        _check_flag(self.relative_error, "relative_error")
        if self.selection not in ("worst", "spread"):
            raise ValueError(f"selection must be 'worst' or 'spread', got {self.selection!r}")


#: Options classes reconstructable from a wire-format ``{"type", "items"}``
#: spec (shard manifests and the ``repro.serve`` protocol).  Every registered
#: front-end's options type must be listed here for its jobs to travel.
OPTION_TYPES: dict[str, type[InterpolationOptions]] = {
    cls.__name__: cls
    for cls in (InterpolationOptions, MftiOptions, VftiOptions, RecursiveOptions)
}


def options_from_items(type_name: str, items) -> InterpolationOptions:
    """Rebuild an options object from its canonical ``(field, token)`` items.

    The inverse of :meth:`InterpolationOptions.canonical_items`, used by every
    wire format that describes a fit configuration textually (shard manifests,
    ``repro.serve`` job specs): ``type_name`` selects the class from
    :data:`OPTION_TYPES` and every item is decoded with
    :func:`parse_canonical_token`.  The reconstruction is verified by
    re-encoding -- the rebuilt object's :meth:`canonical_items` must reproduce
    the input exactly, so any encoder/decoder drift fails loudly instead of
    silently fitting a different configuration.

    Raises
    ------
    ValueError
        Unknown options type, unknown field, malformed token, or a rebuilt
        object whose canonical items do not round-trip.
    """
    try:
        cls = OPTION_TYPES[type_name]
    except KeyError:
        raise ValueError(
            f"unknown options type {type_name!r}; known: {', '.join(sorted(OPTION_TYPES))}"
        ) from None
    field_names = {field.name for field in dataclasses.fields(cls)}
    normalised = [(str(name), str(token)) for name, token in items]
    kwargs = {}
    for name, token in normalised:
        if name not in field_names:
            raise ValueError(f"{type_name} has no option field {name!r}")
        if name in kwargs:
            raise ValueError(f"option field {name!r} appears twice")
        kwargs[name] = parse_canonical_token(token)
    try:
        options = cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"cannot rebuild {type_name} from canonical items: {exc}") from exc
    if list(options.canonical_items()) != sorted(normalised):
        raise ValueError(
            f"rebuilt {type_name} does not round-trip its canonical items; "
            "the options encoding drifted between writer and reader"
        )
    return options
