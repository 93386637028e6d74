"""Binary field dumps and deterministic text artifacts.

Field dump layout (little-endian):
  u32 d, u32 n, 8-byte ASCII tag 'spectral' or 'physical', then n^d
  complex64 values (float32 re/im pairs) in row-major order; spectral files
  order each axis by ascending integer frequency -n/2+1 .. n/2, physical
  files by ascending sample index.

State dumps extend the header with a u32 slot count N and carry (n^d)^N
complex64 amplitudes in row-major slot order, symmetric under exchange of
slots, and written and checked slab by slab (manybody._slabs, check_file_budget).
Loaders check the layout tag and the payload length against the header, and that a
state, read once for its run, is symmetric and not zero, and raise ValueError naming the file.

CSV and JSON writers format floats by shortest round-trip repr so reruns of
the same seeded configuration are byte-identical.
"""

from __future__ import annotations

import csv
import json
import os
import struct
from pathlib import Path

import numpy as np

from .grids import GridSpec, ParameterError, TorusField
from .manybody import BosonicState, ManyBodyConfig, _compress, _sector, _slabs

_LAYOUTS = ("spectral", "physical")


def _ascending_freq_order(n: int) -> np.ndarray:
    """Indices into FFT layout for frequencies -n/2+1, ..., n/2."""
    freqs = np.arange(-n // 2 + 1, n // 2 + 1)
    return freqs % n


def dump_field(f: TorusField, path, layout: str = "spectral") -> None:
    if layout not in _LAYOUTS:
        raise ValueError(f"layout must be one of {_LAYOUTS}")
    grid = f.grid
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II8s", grid.d, grid.n, layout.encode("ascii")))
        if layout == "spectral":
            order = _ascending_freq_order(grid.n)
            data = f.coefficients[np.ix_(*[order] * grid.d)]
        else:
            data = f.values
        fh.write(np.ascontiguousarray(data, dtype=np.complex64).tobytes())


def _read_header(path, slotted: bool) -> tuple[GridSpec, str, int, int]:
    """Parse a dump header; returns (grid, layout tag, slot count, header bytes)."""
    fmt = "<II8sI" if slotted else "<II8s"  # d, n, layout tag[, slot count N]
    with open(path, "rb") as fh:
        head = fh.read(struct.calcsize(fmt))
    if len(head) < struct.calcsize(fmt):
        raise ValueError(f"{path}: truncated header")
    d, n, tag, *slots = struct.unpack(fmt, head)
    layout = tag.rstrip(b"\0").decode("ascii", "replace")
    if layout not in _LAYOUTS:
        raise ValueError(f"{path}: unknown layout tag {layout!r}")
    try:
        grid = GridSpec(d, n)
    except ValueError as exc:  # a bad header, not a bad d or n of the config
        raise ValueError(f"{path}: {exc}") from None
    return grid, layout, (slots or [1])[0], len(head)


def _check_payload(path, header_bytes: int, entries: int) -> None:
    payload = os.path.getsize(path) - header_bytes
    if payload != 8 * entries:
        raise ValueError(f"{path}: payload holds {payload} bytes, expected {8 * entries}")


def load_field(path) -> TorusField:
    grid, layout, _, header_bytes = _read_header(path, slotted=False)
    _check_payload(path, header_bytes, grid.size)
    raw = np.fromfile(path, dtype=np.complex64, offset=header_bytes)
    data = raw.astype(np.complex128).reshape(grid.shape)
    if layout == "physical":
        return TorusField.from_values(grid, data)
    order = _ascending_freq_order(grid.n)
    coeffs = np.empty(grid.shape, dtype=np.complex128)
    coeffs[np.ix_(*[order] * grid.d)] = data
    return TorusField(grid, coeffs)


def dump_state(psi: BosonicState, path) -> None:
    """Write psi's full tensor slab by slab; exchange partners are one entry
    of psi.c, so they are equal bit for bit, as check_state_file demands."""
    config = psi.config
    config.check_file_budget()
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II8sI", config.grid.d, config.grid.n, b"physical", config.N))
        for slab in _slabs(config, psi.c / _sector(config).scale):
            fh.write(slab.astype(np.complex64))


def check_state_file(config: ManyBodyConfig, path) -> np.ndarray:
    """Raise ValueError, naming the file, unless it holds a symmetric nonzero
    state dump for config; a zero state, which no run can normalize, names
    params.initial.  Returns its entries at the sorted tuples, read from a
    memory map by manybody._compress, which builds no sector table."""
    config.check_file_budget()
    grid, layout, N, header_bytes = _read_header(path, slotted=True)
    if layout != "physical":
        raise ValueError(f"{path}: state dumps are 'physical', got {layout!r}")
    if (grid, N) != (config.grid, config.N):
        raise ValueError(
            f"{path}: file geometry (d={grid.d}, n={grid.n}, N={N}) "
            "does not match the configuration"
        )
    _check_payload(path, header_bytes, grid.size**N)
    amps = np.memmap(path, dtype=np.complex64, mode="r", offset=header_bytes,
                     shape=config.state_shape)
    try:
        u = _compress(config, amps)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not u.any():
        raise ParameterError("initial", f"{path}: the state is zero")
    return u


def load_state(config: ManyBodyConfig, path) -> BosonicState:
    return BosonicState(config, c=check_state_file(config, path) * _sector(config).scale)


def format_number(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:  # quoting a cell that holds a comma
        csv.writer(fh, lineterminator="\n").writerows(
            [header] + [[v if isinstance(v, str) else format_number(v) for v in r] for r in rows])


def write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
