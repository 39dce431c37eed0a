"""Touchstone (``.sNp``) file reading and writing.

Touchstone is the de-facto interchange format for measured/simulated network
parameters; supporting it means externally measured boards (like the INC board
the paper used) can be dropped straight into the interpolation pipeline when
they are available.  The implementation covers the Touchstone 1.x features
needed in practice:

* option line ``# <freq-unit> <parameter> <format> R <z0>`` with HZ/KHZ/MHZ/GHZ,
  S/Z/Y parameters and RI / MA / DB formats,
* comment lines (``!``) anywhere,
* the standard multi-line layout for networks with more than four ports
  (values wrap over multiple lines; the reader is layout-agnostic and simply
  consumes numbers in order),
* the 2-port column order quirk (S21 before S12) of the Touchstone standard.
"""

from __future__ import annotations

import os
from typing import TextIO

import numpy as np

from repro.data.dataset import FrequencyData

__all__ = ["read_touchstone", "write_touchstone"]

_FREQ_UNITS = {"HZ": 1.0, "KHZ": 1e3, "MHZ": 1e6, "GHZ": 1e9}
_FORMATS = ("RI", "MA", "DB")
_PARAMETERS = ("S", "Z", "Y")


def _ports_from_extension(path: str) -> int | None:
    ext = os.path.splitext(path)[1].lower()
    if ext.startswith(".s") and ext.endswith("p"):
        digits = ext[2:-1]
        if digits.isdigit():
            return int(digits)
    return None


def _pair_to_complex(a: float, b: float, fmt: str) -> complex:
    if fmt == "RI":
        return complex(a, b)
    if fmt == "MA":
        return a * np.exp(1j * np.deg2rad(b))
    # DB
    return 10.0 ** (a / 20.0) * np.exp(1j * np.deg2rad(b))


def _complex_to_pair(value: complex, fmt: str) -> tuple[float, float]:
    if fmt == "RI":
        return float(value.real), float(value.imag)
    mag = abs(value)
    ang = float(np.rad2deg(np.angle(value)))
    if fmt == "MA":
        return float(mag), ang
    return float(20.0 * np.log10(max(mag, 1e-300))), ang


def read_touchstone(source: str | os.PathLike | TextIO, *, n_ports: int | None = None) -> FrequencyData:
    """Read a Touchstone file (or file-like object) into :class:`FrequencyData`.

    Parameters
    ----------
    source:
        Path to a ``.sNp`` file or an open text stream.
    n_ports:
        Port count; inferred from the file extension when a path is given and
        required when reading from a stream without an ``.sNp`` name.
    """
    close = False
    if hasattr(source, "read"):
        stream: TextIO = source  # type: ignore[assignment]
        path_name = getattr(source, "name", "")
    else:
        stream = open(os.fspath(source), "r", encoding="utf-8")
        close = True
        path_name = os.fspath(source)
    try:
        if n_ports is None:
            n_ports = _ports_from_extension(str(path_name))
        unit = 1e9
        parameter = "S"
        fmt = "MA"
        z0 = 50.0
        numbers: list[float] = []
        for raw_line in stream:
            line = raw_line.split("!", 1)[0].strip()
            if not line:
                continue
            if line.startswith("#"):
                tokens = line[1:].upper().split()
                i = 0
                while i < len(tokens):
                    tok = tokens[i]
                    if tok in _FREQ_UNITS:
                        unit = _FREQ_UNITS[tok]
                    elif tok in _PARAMETERS:
                        parameter = tok
                    elif tok in _FORMATS:
                        fmt = tok
                    elif tok == "R" and i + 1 < len(tokens):
                        z0 = float(tokens[i + 1])
                        i += 1
                    i += 1
                continue
            numbers.extend(float(tok) for tok in line.split())
    finally:
        if close:
            stream.close()

    if n_ports is None:
        raise ValueError("n_ports could not be inferred; pass it explicitly")
    values_per_freq = 1 + 2 * n_ports * n_ports
    if not numbers or len(numbers) % values_per_freq != 0:
        raise ValueError(
            f"file does not contain a whole number of {n_ports}-port records "
            f"({len(numbers)} numeric fields)"
        )
    n_freq = len(numbers) // values_per_freq
    data = np.asarray(numbers, dtype=float).reshape(n_freq, values_per_freq)
    freqs = data[:, 0] * unit
    matrices = np.empty((n_freq, n_ports, n_ports), dtype=complex)
    for k in range(n_freq):
        pairs = data[k, 1:].reshape(n_ports * n_ports, 2)
        values = np.array([_pair_to_complex(a, b, fmt) for a, b in pairs])
        matrix = values.reshape(n_ports, n_ports)
        if n_ports == 2:
            # Touchstone stores 2-port data as S11 S21 S12 S22 (column-major quirk)
            matrix = np.array([[matrix[0, 0], matrix[1, 0]], [matrix[0, 1], matrix[1, 1]]])
        matrices[k] = matrix
    order = np.argsort(freqs)
    return FrequencyData(freqs[order], matrices[order], kind=parameter,
                         reference_impedance=z0, label=str(path_name))


def write_touchstone(
    data: FrequencyData,
    destination: str | os.PathLike | TextIO,
    *,
    fmt: str = "RI",
    freq_unit: str = "HZ",
    comment: str = "",
) -> None:
    """Write :class:`FrequencyData` to a Touchstone file (or file-like object).

    Only square data (``p == m``) can be written, matching the format's
    definition.  The writer always emits one frequency per logical record with
    at most four complex values per physical line, which every Touchstone
    reader accepts.
    """
    fmt = fmt.upper()
    if fmt not in _FORMATS:
        raise ValueError(f"fmt must be one of {_FORMATS}, got {fmt!r}")
    freq_unit = freq_unit.upper()
    if freq_unit not in _FREQ_UNITS:
        raise ValueError(f"freq_unit must be one of {tuple(_FREQ_UNITS)}, got {freq_unit!r}")
    if data.kind not in _PARAMETERS:
        raise ValueError(f"only {_PARAMETERS} data can be written, got kind={data.kind!r}")
    n_ports = data.n_ports

    close = False
    if hasattr(destination, "write"):
        stream: TextIO = destination  # type: ignore[assignment]
    else:
        stream = open(os.fspath(destination), "w", encoding="utf-8")
        close = True
    try:
        if comment:
            for line in comment.splitlines():
                stream.write(f"! {line}\n")
        stream.write(f"# {freq_unit} {data.kind} {fmt} R {data.reference_impedance:g}\n")
        scale = _FREQ_UNITS[freq_unit]
        for freq, matrix in zip(data.frequencies_hz, data.samples):
            ordered = matrix
            if n_ports == 2:
                ordered = np.array([[matrix[0, 0], matrix[1, 0]], [matrix[0, 1], matrix[1, 1]]])
            pairs = [_complex_to_pair(v, fmt) for v in ordered.reshape(-1)]
            fields: list[str] = [f"{freq / scale:.12g}"]
            for a, b in pairs:
                fields.append(f"{a:.12g}")
                fields.append(f"{b:.12g}")
            # wrap: frequency + up to 4 complex pairs on the first line,
            # then 4 pairs per continuation line
            per_line = 1 + 8
            stream.write(" ".join(fields[:per_line]) + "\n")
            rest = fields[per_line:]
            for start in range(0, len(rest), 8):
                stream.write("  " + " ".join(rest[start : start + 8]) + "\n")
    finally:
        if close:
            stream.close()
