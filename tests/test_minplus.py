"""The compiled min-plus kernel and its build cache.

``repro.core.minplus`` compiles ``_minplus.c`` on first use and the
packed reduction routes every combine and split through it.  These tests
hold the kernel to exact ``==`` against a brute-force min-plus over
random boxes with ``inf`` holes and the edge shapes (one candidate, one
output, offsets that reach past either end), hold the split to
``np.argmin``'s first minimum on ties, and check the build cache: an
edited source gets a new library, two processes building at once both
load a valid library, an unwritable cache builds in a private
directory, and a missing compiler fails the import with an
:class:`ImportError` that names it, leaving nothing in the cache.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import textwrap

import numpy as np
import pytest

from repro.core import minplus, packed_tree

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
#: A finite pad around every buffer: any read past a box would pair it
#: with a finite entry and win the minimum, any write past ``out`` would
#: overwrite it.
PAD = -1e300


@pytest.fixture(scope="module")
def kernel():
    return packed_tree._kernel


def _padded(values):
    buf = np.full(len(values) + 2, PAD)
    buf[1:-1] = values
    return buf


def band(kernel, a, b, nout, k0):
    """Run ``minplus_band`` over padded copies; check the pads survive."""
    pa, pb = _padded(a), _padded(b)
    out = _padded(np.full(nout, 7.0))
    kernel.minplus_band(
        pa.ctypes.data + 8, len(a), pb.ctypes.data + 8, len(b), out.ctypes.data + 8, nout, k0
    )
    assert out[0] == PAD and out[-1] == PAD, "write outside out"
    return out[1:-1]


def brute_band(a, b, nout, k0):
    """``min a[t + k0 - j] + b[j]`` over every in-range pair, by the full
    min-plus convolution."""
    full = np.full(len(a) + len(b) - 1, np.inf)
    for i, ai in enumerate(a):
        np.minimum(full[i : i + len(b)], ai + b, out=full[i : i + len(b)])
    want = np.full(nout, np.inf)
    for t in range(nout):
        if 0 <= t + k0 < len(full):
            want[t] = full[t + k0]
    return want


def _box(rng, n, inf_p):
    values = rng.uniform(0.1, 5.0, size=n)
    values[rng.random(n) < inf_p] = np.inf
    return values


class TestBand:
    def test_random_boxes_with_inf_holes(self, kernel):
        rng = np.random.default_rng(11)
        for _ in range(400):
            na, nb = int(rng.integers(1, 45)), int(rng.integers(1, 45))
            nout = int(rng.integers(1, na + nb + 10))
            k0 = int(rng.integers(-(nb + 5), na + nb + 5))
            a = _box(rng, na, float(rng.uniform(0.0, 0.6)))
            b = _box(rng, nb, float(rng.uniform(0.0, 0.6)))
            got = band(kernel, a, b, nout, k0)
            assert np.array_equal(got, brute_band(a, b, nout, k0)), (na, nb, nout, k0)

    @pytest.mark.parametrize(
        "na, nb, nout, k0",
        [
            (9, 1, 9, 0),  # one candidate: a diagonal plus one scalar
            (1, 9, 9, 0),  # one candidate on the other side
            (1, 1, 1, 0),
            (30, 17, 1, 23),  # one output cell (the truncated root)
            (30, 17, 1, 0),
            (30, 17, 1, 45),
            (12, 7, 20, -5),  # outputs before the first pair
            (12, 7, 10, -30),  # no output reaches a pair
            (12, 7, 10, 15),  # outputs past the last pair
            (12, 7, 10, 40),  # no output reaches a pair
            (400, 380, 685, 50),  # a level-7 row of a 256-core tree
        ],
    )
    def test_edge_shapes(self, kernel, na, nb, nout, k0):
        rng = np.random.default_rng(na * 1000 + nb)
        a, b = _box(rng, na, 0.2), _box(rng, nb, 0.2)
        assert np.array_equal(band(kernel, a, b, nout, k0), brute_band(a, b, nout, k0))

    def test_all_inf_boxes_stay_inf(self, kernel):
        a, b = np.full(6, np.inf), np.full(5, np.inf)
        assert np.isposinf(band(kernel, a, b, 10, 0)).all()

    def test_ties_keep_exact_values(self, kernel):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = rng.integers(0, 4, size=int(rng.integers(1, 30))).astype(float)
            b = rng.integers(0, 4, size=int(rng.integers(1, 30))).astype(float)
            nout = len(a) + len(b) - 1
            assert np.array_equal(band(kernel, a, b, nout, 0), brute_band(a, b, nout, 0))


class TestSplit:
    def test_first_minimum_on_ties(self, kernel):
        rng = np.random.default_rng(5)
        for _ in range(400):
            n = int(rng.integers(1, 40))
            # Small integers tie often; inf entries never win a finite tie.
            a = rng.integers(0, 3, size=n).astype(float)
            b = rng.integers(0, 3, size=n).astype(float)
            a[rng.random(n) < 0.2] = np.inf
            pa, pb = _padded(a), _padded(b)
            got = kernel.minplus_split(pa.ctypes.data + 8, pb.ctypes.data + 8, n)
            assert got == int(np.argmin(a + b[::-1])), (a, b)

    def test_all_inf_picks_the_first(self, kernel):
        a, b = np.full(4, np.inf), np.full(4, np.inf)
        assert kernel.minplus_split(a.ctypes.data, b.ctypes.data, 4) == 0


def _run(script, *args, **env):
    env = {**os.environ, "PYTHONPATH": SRC, **env}
    return subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(script), *args],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


class TestBuildCache:
    def test_changed_source_gets_a_new_library(self, tmp_path, monkeypatch, kernel):
        source = tmp_path / "_minplus.c"
        with open(minplus.SOURCE, "rb") as fh:
            source.write_bytes(fh.read())
        monkeypatch.setattr(minplus, "SOURCE", str(source))
        cache = tmp_path / "cache"
        first = minplus.load(str(cache))
        again = minplus.load(str(cache))
        assert again._name == first._name  # an unchanged source reuses it
        source.write_bytes(source.read_bytes() + b"\n/* edited */\n")
        edited = minplus.load(str(cache))
        assert edited._name != first._name
        assert sorted(os.listdir(cache)) == sorted(
            os.path.basename(lib._name) for lib in (first, edited)
        )

    def test_name_covers_source_compiler_and_flags(self, monkeypatch):
        base = minplus.library_name(b"x", ["cc"])
        assert minplus.library_name(b"y", ["cc"]) != base
        assert minplus.library_name(b"x", ["clang"]) != base
        assert minplus.library_name(b"x", ["cc", "-m32"]) != base
        monkeypatch.setattr(minplus, "CFLAGS", (*minplus.CFLAGS, "-g"))
        assert minplus.library_name(b"x", ["cc"]) != base

    def test_two_processes_building_at_once_both_load(self, tmp_path, kernel):
        cache, go = str(tmp_path / "cache"), str(tmp_path / "go")
        script = """
            import os, sys, time
            import numpy as np
            from repro.core import minplus
            cache, go = sys.argv[1:]
            while not os.path.exists(go):
                time.sleep(0.001)
            lib = minplus.load(cache)
            a, b, out = np.array([1.0, 2.0]), np.array([3.0, 0.5]), np.empty(3)
            lib.minplus_band(a.ctypes.data, 2, b.ctypes.data, 2, out.ctypes.data, 3, 0)
            print(os.path.basename(lib._name), out.tolist())
        """
        procs = [_run(script, cache, go) for _ in range(2)]
        open(go, "w").close()
        results = [proc.communicate(timeout=120) for proc in procs]
        for proc, (out, err) in zip(procs, results):
            assert proc.returncode == 0, err
            assert "RuntimeWarning" not in err, err
        lines = [out.split() for out, _ in results]
        name = lines[0][0]
        assert all(line == [name, "[4.0,", "1.5,", "2.5]"] for line in lines), lines
        assert os.listdir(cache) == [name]  # no temporary file left behind

    def test_unwritable_cache_builds_privately(self, tmp_path, kernel):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        lib = minplus.load(str(blocker / "cache"))
        assert lib is not None
        assert os.path.dirname(os.path.dirname(lib._name)) == tempfile.gettempdir()

    def test_missing_compiler_fails_the_import(self, tmp_path):
        # A copy of the package without its __pycache__, so the default
        # cache directory starts empty (and no bytecode is written to it).
        src = tmp_path / "src"
        shutil.copytree(
            os.path.join(SRC, "repro"), src / "repro", ignore=shutil.ignore_patterns("__pycache__")
        )
        script = """
            import sysconfig
            config_var = sysconfig.get_config_var
            sysconfig.get_config_var = lambda name: (
                "/nonexistent/cc" if name == "CC" else config_var(name)
            )
            try:
                from repro.core import packed_tree
            except ImportError as exc:
                print("ImportError:", exc)
            else:
                print("loaded:", packed_tree._kernel)
        """
        proc = _run(script, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        assert out.startswith("ImportError: "), out
        assert "/nonexistent/cc" in out, out
        cache = src / "repro" / "core" / "__pycache__"
        assert not cache.exists() or os.listdir(cache) == []  # no library, no temporary file
