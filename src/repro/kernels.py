"""Build and load repro's compiled kernel library.

``_kernels.c`` holds every loop repro runs compiled, in one library:

* :class:`~repro.core.packed_tree.PackedReduction`'s leaf install and
  whole solve, over the reduction's int64 plan buffer (header, per-row
  and per-leaf columns, walk output and stack, leaf settings; see
  :mod:`repro.core.packed_tree`) and its float64 value buffer.
  ``leaf_install(plan, E, slot, curve)`` compares a packed curve
  (:attr:`~repro.core.curves.EnergyCurve.packed`) with the held one and,
  if it differs, copies the leaf's stored window of values and settings;
  ``minplus_solve(plan, E)`` recombines the dirty root paths, checks the
  root, and walks the back-track, writing each walked leaf's setting, in
  one call.  The solve's two inner loops are exported too: the box-local
  band combine ``out[t] = min_j a[t + k0 - j] + b[j]`` and the
  first-minimum split;
* the simulation engine's event step, ``engine_step`` (see
  :class:`~repro.simulation.engine.core_state.CoreArrays`): the next
  interval completion, the advance of every active core and the
  completing core's retire, in one call over the engine's lane buffer;
* the managers' curve construction, ``curve_chain`` (see
  :func:`~repro.core.local_opt.local_optimize_batch`): for a batch of
  cores, the performance and energy models' grids, the QoS targets and
  the local optimisation, in one call;
* the detailed simulation's two loops: ``lru_stack_distances`` (see
  :func:`~repro.cache.atd.stack_distances`), the ATD's per-set LRU walk,
  and ``mlp_groups`` (see :func:`~repro.mem.mlp.mlp_grid`), the greedy
  leading-miss grouping of every distinct miss stream of a trace.

:func:`load` compiles it with the interpreter's C compiler
(``sysconfig``'s ``CC``, else ``cc``) and loads it with :mod:`ctypes`,
so NumPy stays the package's only dependency.  This module imports
nothing from the package, so any layer can load the library without
pulling in another.

The library is cached in the package's ``__pycache__`` under a name hashed
from the source bytes, the compiler command, :data:`CFLAGS` and the
platform: an edited source, another compiler or other flags give a new
name, so a stale library can never load.  It is compiled to a temporary
name and installed with :func:`os.replace`, so processes that build at
the same time each install a complete library.  When ``__pycache__`` is
not writable, the library goes to a temporary directory of the process.

The library is the one implementation of each of these, so a working C
compiler is required: when no library can be built or loaded,
:func:`load` raises :class:`ImportError` naming the compiler command and
its error output, and importing any module that uses it fails with it.
The references the kernels are tested against live in ``tests/oracles/``
(``node_graph.py`` for the reduction, ``leaf_install.py`` for the leaf
install, ``engine_step.py`` for the step, ``model_chain.py`` for the
curve chain, ``lru_stack.py`` for the stack distances,
``leading_miss.py`` and ``mlp_grid.py`` for the grouping).
Every user takes the process's one handle from :func:`shared`, so the
library is loaded once per process.
"""

from __future__ import annotations

import atexit
import ctypes
import functools
import hashlib
import os
import shlex
import shutil
import sysconfig
import tempfile

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernels.c")
CACHE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "__pycache__")

#: Exact IEEE arithmetic: no contraction of ``a + b`` into a fused
#: operation, no ``-ffast-math`` reassociation, and no host-only
#: instruction set, so the library computes what the NumPy references in
#: ``tests/oracles/`` compute on any machine that shares the cache.
CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")


def compiler() -> list[str]:
    """The interpreter's C compiler command: ``sysconfig``'s ``CC``, else ``cc``."""
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def library_name(source: bytes, cc: list[str]) -> str:
    """Cache file name of the library built from ``source`` by ``cc``."""
    key = repr((hashlib.sha256(source).hexdigest(), cc, CFLAGS, sysconfig.get_platform()))
    return f"_kernels-{hashlib.sha256(key.encode()).hexdigest()[:16]}.so"


def _build(source: bytes, cc: list[str], tmp: str, path: str) -> None:
    """Compile ``source`` to ``tmp``, then install it as ``path``."""
    import subprocess  # only a build needs it (~4 ms of every import otherwise)

    try:
        # The compiler reads the hashed bytes from stdin, so the library
        # matches its name even if the file changes meanwhile.
        proc = subprocess.run(
            [*cc, *CFLAGS, "-o", tmp, "-x", "c", "-"],
            input=source,
            capture_output=True,
        )
        if proc.returncode:
            err = proc.stderr.decode(errors="replace").strip()
            raise OSError(f"{shlex.join(cc)} exited with status {proc.returncode}: {err}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _private_dir() -> str:
    path = tempfile.mkdtemp(prefix="repro-kernels-")
    atexit.register(shutil.rmtree, path, True)
    return path


def _library(cache_dir: str) -> ctypes.CDLL:
    with open(SOURCE, "rb") as fh:
        source = fh.read()
    cc = compiler()
    name = library_name(source, cc)
    path = os.path.join(cache_dir, name)
    if not os.path.exists(path):
        try:
            os.makedirs(cache_dir, exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix=name + ".", dir=cache_dir)
        except OSError:  # not writable: build for this process only
            path = os.path.join(_private_dir(), name)
            fd, tmp = tempfile.mkstemp(prefix=name + ".", dir=os.path.dirname(path))
        os.close(fd)
        _build(source, cc, tmp, path)
    lib = ctypes.CDLL(path)
    ptr, size = ctypes.c_void_p, ctypes.c_ssize_t
    lib.minplus_band.argtypes = [ptr, size, ptr, size, ptr, size, size]
    lib.minplus_band.restype = None
    lib.minplus_split.argtypes = [ptr, ptr, size]
    lib.minplus_split.restype = size
    lib.minplus_solve.argtypes = [ptr, ptr]
    lib.minplus_solve.restype = size
    lib.leaf_install.argtypes = [ptr, ptr, size, ptr]
    lib.leaf_install.restype = size
    lib.engine_step.argtypes = [ptr, size, ctypes.c_double, size]
    lib.engine_step.restype = size
    lib.curve_chain.argtypes = [ptr, ptr, size, ptr, size, ptr, ptr, ptr, ctypes.c_double]
    lib.curve_chain.restype = size
    lib.lru_stack_distances.argtypes = [ptr, ptr, size, size, ptr, ptr, ptr]
    lib.lru_stack_distances.restype = None
    lib.mlp_groups.argtypes = [ptr, ptr, ptr, size, size, size, ptr, ptr, size, ptr, ptr, ptr]
    lib.mlp_groups.restype = size
    return lib


def load(cache_dir: str | None = None) -> ctypes.CDLL:
    """The compiled library, built into ``cache_dir`` (default
    :data:`CACHE_DIR`) if it is not there yet.  Raises
    :class:`ImportError`, chained from the failure and naming the compiler
    command and its error output, if it cannot be built or loaded.

    Arrays are passed as the addresses of contiguous buffers.  Each
    kernel's contract is the comment above it in ``_kernels.c`` and the
    docstring of the module that calls it (listed above).
    """
    try:
        return _library(CACHE_DIR if cache_dir is None else cache_dir)
    except (OSError, AttributeError) as exc:
        raise ImportError(
            "cannot build or load the compiled kernel library with "
            f"{shlex.join(compiler())} (a working C compiler is required): {exc}"
        ) from exc


@functools.cache
def shared() -> ctypes.CDLL:
    """The process's one handle on the library: :func:`load` into
    :data:`CACHE_DIR`, made on the first call and returned by every later
    one."""
    return load()
