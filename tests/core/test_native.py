"""The C kernels load wherever a C compiler works (`repro.core.native`).

The loader falls back to the Python/numpy references silently, so without
these tests a broken build would only show as lost speed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import native
from repro.core.fastpath import fold_sorted_runs
from repro.core.prefetcher import RowPrefetcher
from repro.matrices.synthetic import powerlaw_matrix

SRC = str(Path(repro.__file__).resolve().parents[1])


def _compiler_works(workdir: Path) -> bool:
    """Whether the loader's compiler builds a trivial shared object."""
    source = workdir / "probe.c"
    source.write_text("int probe(void) { return 1; }\n")
    try:
        subprocess.run([*native.compiler_command(), *native.FLAGS, "-o",
                        str(workdir / "probe.so"), str(source)],
                       check=True, capture_output=True, timeout=300)
    except (OSError, subprocess.SubprocessError):
        return False
    return True


def _import_native(cache: Path, **env: str) -> subprocess.Popen:
    code = ("from repro.core import native; "
            "print(native.LIB is not None); print(native.REASON)")
    return subprocess.Popen(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC, "XDG_CACHE_HOME": str(cache),
             **env},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def test_kernels_load_when_a_compiler_works(tmp_path):
    if not _compiler_works(tmp_path):
        pytest.skip(f"no working C compiler: {native.compiler_command()}")
    assert native.LIB is not None, (
        f"a C compiler works but the native kernels did not load: "
        f"{native.REASON}")


def test_cold_imports_share_one_empty_cache(tmp_path):
    if not _compiler_works(tmp_path):
        pytest.skip(f"no working C compiler: {native.compiler_command()}")
    cache = tmp_path / "cache"
    processes = [_import_native(cache) for _ in range(2)]
    for process in processes:
        out, err = process.communicate(timeout=300)
        assert process.returncode == 0, err
        loaded, _, reason = out.partition("\n")
        assert loaded == "True", reason
    builds = list((cache / "repro" / "native").iterdir())
    assert len(builds) == 1
    assert [path.name for path in builds[0].iterdir()] == ["native.so"]


def test_broken_compiler_falls_back_and_records_why(tmp_path):
    false = shutil.which("false")
    if false is None:
        pytest.skip("no `false` command to stand in for a broken compiler")
    process = _import_native(tmp_path / "cache", CC=false)
    out, err = process.communicate(timeout=300)
    assert process.returncode == 0, err
    loaded, _, reason = out.partition("\n")
    assert loaded == "False"
    assert false in reason and "exited with 1" in reason


def test_kernels_are_reentrant_across_threads():
    """ctypes releases the interpreter lock, so threads overlap in C."""
    if native.LIB is None:
        pytest.skip(f"native kernels unavailable: {native.REASON}")
    matrix = powerlaw_matrix(400, 6.0, seed=5)
    access = np.asarray(matrix.indices, dtype=np.int64)
    rng = np.random.default_rng(5)
    keys = np.sort(rng.integers(0, 20_000, size=50_000))
    values = rng.standard_normal(len(keys))

    def run(_: int) -> tuple:
        prefetcher = RowPrefetcher(matrix, num_lines=32, line_elements=4,
                                   lookahead_window=64)
        stats = prefetcher.simulate(access)
        out_keys, out_values, runs = fold_sorted_runs(keys, values)
        return (vars(stats), prefetcher.buffer.resident_map,
                out_keys.tobytes(), out_values.tobytes(), runs)

    expected = run(0)
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(run, range(16), timeout=300))
    assert all(result == expected for result in results)
