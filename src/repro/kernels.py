"""The compiled sequential sweeps: ``kernels.c``, loaded with cffi.

Louvain's level sweep, METIS-like's heavy-edge matching and refinement,
the G-/A-TxAllo sweep and the Shard Scheduler's transaction stream are
serial loops (paper §IV-A), so they run in C on numpy arrays read and
updated in place. The first import compiles ``kernels.c`` with ``cc``
into a per-user cache entry named by the SHA-256 of the source, its
header and the flags; later imports load that entry. Without a C
compiler the import raises ``RuntimeError``: there is no Python
fallback. The flags keep Python's IEEE double arithmetic: no
``-ffast-math``, no ``-march=native``, and ``-ffp-contract=off``, so no
multiply-add is fused into one rounding.
"""
from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.graph.adjacency import CSR

SOURCE = Path(__file__).with_name("kernels.c")
HEADER = SOURCE.with_suffix(".h")
CC = "cc"
FLAGS = ("-O2", "-ffp-contract=off", "-std=c99", "-fPIC", "-shared")
CACHE_DIR = Path.home() / ".cache" / "repro" / "kernels"


def load():
    """``(ffi, lib)`` of :data:`SOURCE` built with :data:`FLAGS`, compiled
    into :data:`CACHE_DIR` first when no build of them is there."""
    parts = [SOURCE.read_bytes(), HEADER.read_bytes(), *map(str.encode, FLAGS)]
    entry = Path(CACHE_DIR) / hashlib.sha256(b"\0".join(parts)).hexdigest()
    if not entry.is_dir():
        _build(entry)
    spec = importlib.util.spec_from_file_location("repro_kernels_ffi", entry / "ffi.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ffi, module.ffi.dlopen(str(entry / "kernels.so"))


def _build(entry: Path) -> None:
    """Compile the library and write cffi's parse of :data:`HEADER` (so a
    load parses no C) into a temporary directory beside ``entry``, then
    rename it into place: no process loads a half-written entry."""
    import cffi

    entry.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=".build-", dir=entry.parent))
    try:
        cmd = [CC, *FLAGS, "-o", str(tmp / "kernels.so"), str(SOURCE)]
        try:
            subprocess.run(cmd, check=True, capture_output=True, text=True)
        except FileNotFoundError:
            raise RuntimeError(f"repro needs a C compiler for {SOURCE.name}: no {CC!r}") from None
        except subprocess.CalledProcessError as err:
            raise RuntimeError(f"{' '.join(cmd)} failed:\n{err.stderr}") from None
        ffi = cffi.FFI()
        ffi.cdef(HEADER.read_text())
        ffi.set_source("repro_kernels", None, compiler_verbose=False)
        ffi.emit_python_code(str(tmp / "ffi.py"))
        try:
            os.replace(tmp, entry)
        except OSError:
            if not entry.is_dir():  # else a concurrent build finished first
                raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


ffi, lib = load()
CTYPES = {
    np.dtype(np.int16): "int16_t[]",
    np.dtype(np.int32): "int32_t[]",
    np.dtype(np.int64): "int64_t[]",
    np.dtype(np.float64): "double[]",
}


def csr_args(g: CSR) -> tuple:
    """``(n, indptr, indices, weights)`` of ``g`` as kernel arguments. A
    :class:`~repro.graph.adjacency.CSR` was checked and frozen when it was
    built, so this only makes pointers: O(1), whatever the graph's size."""
    if not isinstance(g, CSR):
        raise TypeError(f"kernel graphs are repro.graph.adjacency.CSR, not {type(g).__name__}")
    n, m = g.n, len(g.indices)
    return n, ptr(g.indptr, n + 1), ptr(g.indices, m), ptr(g.weights, m)


def ptr(a: np.ndarray, n: int):
    """A C pointer to the ``n`` values of ``a``, a C-contiguous int16, int32,
    int64 or float64 array (``KeyError`` for another dtype)."""
    if len(a) != n or not a.flags.c_contiguous:
        raise ValueError(f"kernel arrays must be C-contiguous with {n} entries")
    return ffi.from_buffer(CTYPES[a.dtype], a)
