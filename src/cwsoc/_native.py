"""Builds and loads the compiled kernels (``_kernel.c``) on first use: the
draws and walks of ``samplers``' Metropolis sweeps, and ``verification``'s
characteristic function, the inner u-rule of its Fourier inversion and the
integrands that QUADPACK calls through ``scipy.LowLevelCallable``: the
inversion's outer integrand and the closed-form (s, t) density
(``cw_density``, which ``density_closed_form`` calls too).

The library is compiled with the C compiler ``cc`` against numpy's shipped
static ``numpy/random/lib/libnpyrandom.a``, so its draws run through the same
C samplers as ``numpy.random.Generator``; only the one-word fast path of the
ziggurat normal is the kernel's own.  ``kernel()`` builds, loads, checks and
declares the library once per process, under a lock, so that the chain
threads of a cold ``simulate --chains 2`` neither build twice nor draw while
the check writes the tables.  The check (``cw_ziggurat_check``) reads that
fast path's 256 thresholds and widths off the linked
``random_standard_normal``, by a bit generator that hands it chosen words and
counts its draws, with a private ``PCG64`` supplying the draws after each
probed word, and checks at every layer that the words below the threshold
are its only draw and give the fast path's value; ``kernel()`` raises
:class:`KernelBuildError` when they are not.

The library is cached in this package's ``__pycache__`` under a name keyed
by the sha256 of the source, the compiler flags and the numpy version; a
cache hit never runs the compiler.  Each build writes a private temporary
file and moves it into place with ``os.replace``, so processes that build
into the same cache at once all end up loading a complete library, and then
removes every other ``_kernel-*.so`` there: the builds of earlier sources,
flags or numpy versions.  A process that has one of them loaded keeps its
mapping.  Nothing falls back to Python: a missing compiler or a failed build
raises :class:`KernelBuildError`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_kernel.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")
NUMPY_RANDOM_LIB = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
COMPILER = "cc"
# No -ffast-math and no -march: contraction into FMA or vectorized exp would
# round differently from the Python arithmetic the kernel reproduces.
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

_lib: ctypes.CDLL | None = None
_load_lock = threading.Lock()


class KernelBuildError(RuntimeError):
    """The compiled kernels could not be built, and the message carries the
    compiler's stderr; or the linked numpy's normal sampler failed the
    kernel's probe."""


def _library_path() -> Path:
    key = hashlib.sha256()
    key.update(SOURCE.read_bytes())
    key.update("\0".join(FLAGS).encode())
    key.update(np.__version__.encode())
    return CACHE_DIR / f"_kernel-{key.hexdigest()[:32]}.so"


def _build(target: Path) -> None:
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=target.stem + ".", suffix=".tmp", dir=target.parent)
    except OSError as exc:
        raise KernelBuildError(f"cannot write the kernel cache in {target.parent}: {exc}") from exc
    os.close(fd)
    cmd = [
        COMPILER, *FLAGS, "-I", np.get_include(), str(SOURCE), str(NUMPY_RANDOM_LIB), "-lm", "-o", tmp,
    ]
    try:
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True)
        except OSError as exc:
            raise KernelBuildError(f"cannot run the C compiler {COMPILER!r} to build {SOURCE.name}: {exc}") from exc
        if proc.returncode != 0:
            raise KernelBuildError(
                f"building {SOURCE.name} failed (exit {proc.returncode}): {' '.join(cmd)}\n{proc.stderr}"
            )
        os.replace(tmp, target)
        for stale in target.parent.glob("_kernel-*.so"):
            if stale != target:
                stale.unlink(missing_ok=True)  # another build may have removed it first
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def kernel() -> ctypes.CDLL:
    """The loaded kernel library, built first if the cache has no copy."""
    global _lib
    if _lib is None:
        with _load_lock:
            if _lib is None:
                path = _library_path()
                if not path.exists():
                    _build(path)
                lib = ctypes.CDLL(str(path))
                ptr, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
                lib.cw_ziggurat_check.argtypes = [ptr]
                lib.cw_ziggurat_check.restype = i64
                inner = np.random.PCG64(0)  # supplies the draws after each probed word
                idx = lib.cw_ziggurat_check(inner.ctypes.bit_generator)
                if idx != -1:
                    raise KernelBuildError(
                        f"numpy {np.__version__}'s random_standard_normal does not take the ziggurat fast path "
                        f"that {SOURCE.name} assumes (first at idx {idx})"
                    )
                lib.cw_draw.argtypes = [ptr, i64, i64, i64, ptr, ptr, ptr, ptr]
                lib.cw_walk.argtypes = [ptr, i64, f64, f64, i64, f64, f64, f64, i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr]
                lib.cw_draw.restype = lib.cw_walk.restype = None
                lib.cw_char_fn.argtypes = [ptr, i64, f64, i64, ptr]
                lib.cw_char_fn.restype = None
                lib.cw_inner_cos.argtypes = [ptr, f64, f64, i64, ptr]
                lib.cw_inner_cos.restype = ctypes.c_bool
                lib.cw_outer_new.argtypes = [ptr, f64, i64]
                lib.cw_outer_new.restype = ptr
                lib.cw_outer_re.argtypes = lib.cw_outer_im.argtypes = [f64, ptr]
                lib.cw_outer_re.restype = lib.cw_outer_im.restype = f64
                lib.cw_outer_evaluations.argtypes = [ptr]
                lib.cw_outer_evaluations.restype = i64
                lib.cw_outer_free.argtypes = [ptr]
                lib.cw_outer_free.restype = None
                lib.cw_density.argtypes = [ctypes.c_int, ctypes.POINTER(f64), ptr]
                lib.cw_density.restype = f64
                _lib = lib
    return _lib
