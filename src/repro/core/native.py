"""C kernels for the simulator's shared hot spots, built on first import.

``native.c`` holds two kernels, each a drop-in for Python/numpy code that
stays in the tree as the reference and as the fallback:

* the general loop of :meth:`repro.core.prefetcher.RowPrefetcher.simulate`
  (lookahead-limited Bélády replacement, §II-D);
* :func:`repro.core.fastpath.fold_sorted_runs` (duplicate fold + zero drop
  of every merge round).

Importing this module compiles ``native.c`` with the system C compiler
(``$CC``, default ``gcc``) unless a build is already cached, and loads the
shared object with :mod:`ctypes` — no dependency beyond the standard
library.  Builds are cached under
``${XDG_CACHE_HOME:-~/.cache}/repro/native/<digest>/``, the digest covering
the source, the compiler command and the flags; a build is written to a
temporary file and renamed into place, so processes importing concurrently
against one cache never load a partial file.

When no compiler works (or the cache is unusable), :data:`LIB` is ``None``,
:data:`REASON` says why, and every caller runs its Python/numpy reference
instead.  Both paths give byte-identical results.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import subprocess
import tempfile
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("native.c")
#: No fast-math: the fold must keep numpy's floating-point association.
FLAGS = ("-O2", "-std=c99", "-shared", "-fPIC")

_int64_p = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
_uint8_p = np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS")
_float64_p = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
_i64 = ctypes.c_int64

_PREFETCH_ERRORS = {1: (MemoryError, "prefetcher kernel: out of memory"),
                    2: (RuntimeError, "no eviction candidate available")}


def compiler_command() -> list[str]:
    """The C compiler command the loader uses: ``$CC`` or ``gcc``."""
    return shlex.split(os.environ.get("CC") or "gcc")


def cache_dir() -> Path:
    """Directory holding the build for this source, compiler and flags."""
    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update("\0".join([*compiler_command(), *FLAGS]).encode())
    root = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    return Path(root) / "repro" / "native" / digest.hexdigest()[:16]


def _build(target: Path) -> None:
    """Compile ``native.c`` to ``target``, atomically."""
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, partial = tempfile.mkstemp(dir=target.parent, suffix=".so.partial")
    os.close(fd)
    try:
        subprocess.run([*compiler_command(), *FLAGS, "-o", partial,
                        str(SOURCE)], check=True, capture_output=True,
                       text=True, timeout=300)
        os.replace(partial, target)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    lib.repro_prefetch_simulate.restype = ctypes.c_int
    lib.repro_prefetch_simulate.argtypes = [
        _int64_p, _i64, _int64_p, _int64_p, _int64_p, _int64_p,
        _i64, _i64, _i64, _i64, _i64, _uint8_p, _int64_p, _int64_p]
    for name, key_p in (
            ("repro_fold_i32",
             np.ctypeslib.ndpointer(np.int32, flags="C_CONTIGUOUS")),
            ("repro_fold_i64", _int64_p)):
        fold = getattr(lib, name)
        fold.restype = _i64
        fold.argtypes = [key_p, _float64_p, _i64, key_p, _float64_p,
                         ctypes.POINTER(_i64)]
    return lib


def _load() -> tuple[ctypes.CDLL | None, str]:
    try:
        target = cache_dir() / "native.so"
        if not target.exists():
            _build(target)
        return _declare(ctypes.CDLL(str(target))), ""
    except subprocess.CalledProcessError as error:
        return None, (f"{shlex.join(error.cmd)} exited with "
                      f"{error.returncode}: {error.stderr.strip()[-2000:]}")
    except (OSError, subprocess.SubprocessError, AttributeError,
            ValueError) as error:  # ValueError: an unparsable $CC
        return None, f"{type(error).__name__}: {error}"


#: The loaded kernels, or ``None`` when the Python/numpy references run.
LIB, REASON = _load()


# ----------------------------------------------------------------------
# Kernel wrappers (callers check ``LIB is not None`` first)
# ----------------------------------------------------------------------
def prefetch_simulate(access: np.ndarray, num_segments: np.ndarray,
                      row_nnz: np.ndarray, last_elements: np.ndarray,
                      seg_offset: np.ndarray, resident: np.ndarray, *,
                      line_elements: int, element_bytes: int, window: int,
                      lines_free: int) -> tuple[np.ndarray, list[int]]:
    """Run the prefetcher's replacement loop in C.

    ``access`` must hold row indices in ``[0, len(num_segments))``;
    ``resident`` (one byte per row segment, laid out by ``seg_offset``) is
    updated in place.  Returns the per-access miss bytes and the counters
    ``[element_hits, element_misses, segment_hits, segment_misses,
    evicted_lines, dram_bytes_read, bytes_without_buffer, inserted_lines]``.
    """
    miss_bytes = np.empty(len(access), dtype=np.int64)
    counters = np.zeros(8, dtype=np.int64)
    status = LIB.repro_prefetch_simulate(
        access, len(access), num_segments, row_nnz, last_elements,
        seg_offset, len(num_segments), line_elements, element_bytes,
        window, lines_free, resident, miss_bytes, counters)
    if status:
        error, message = _PREFETCH_ERRORS[status]
        raise error(message)
    return miss_bytes, counters.tolist()


def fold_runs(keys: np.ndarray, values: np.ndarray, out_keys: np.ndarray,
              out_values: np.ndarray) -> tuple[int, int] | None:
    """Fold equal-key runs of ``keys``/``values`` into the outputs in C.

    Keys are C-contiguous int32 or int64, values C-contiguous float64; the
    outputs have the inputs' length and dtypes and may be the inputs
    themselves.  Returns ``(kept, num_runs)``, or ``None`` — with nothing
    written — when a value is NaN: which NaN a sum of NaNs propagates
    depends on compiled operand order, so only numpy reproduces its own.
    """
    fold = (LIB.repro_fold_i32 if keys.dtype == np.int32
            else LIB.repro_fold_i64)
    num_runs = _i64()
    kept = fold(keys, values, len(keys), out_keys, out_values,
                ctypes.byref(num_runs))
    return None if kept < 0 else (kept, num_runs.value)
