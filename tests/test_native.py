"""Tests for building, caching and loading the compiled kernels."""

import ctypes
import os
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import cwsoc
from cwsoc import _native
from cwsoc.cli import main
from cwsoc.model import ModelParams
from cwsoc.samplers import SamplerConfig, init_chain, run

SRC = str(Path(cwsoc.__file__).resolve().parent.parent)

# Loads the kernel from the cache directory argv[1], optionally with the
# compiler argv[2], and prints the last record of a short run.
LOAD_AND_RUN = """
import sys
from pathlib import Path
from cwsoc import _native
_native.CACHE_DIR = Path(sys.argv[1])
if len(sys.argv) > 2:
    _native.COMPILER = sys.argv[2]
from cwsoc.model import ModelParams
from cwsoc.samplers import SamplerConfig, init_chain, run
chain = init_chain(ModelParams(5, 1.0), SamplerConfig(burn_in_sweeps=0, seed=4))
print(repr(list(run(chain, 30))[-1]))
"""


# Runs, in one process, every command but simulate, convergence and the
# complex and density suites, and fails if any of them loaded the kernel.
RUN_WITHOUT_KERNEL = """
import sys
from cwsoc.cli import main
out, samples = sys.argv[1:3]
for argv in (
    ["verify", "--suite", "laplace", "--out", out],
    ["limit", "--cdf", "0.5"],
    ["plotdata", "--input", samples, "--bins", "4", "--out", out],
):
    assert main(argv) == 0, argv
    native = sys.modules.get("cwsoc._native")
    assert native is None or native._lib is None, argv
"""


def python(*args, **popen):
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    return subprocess.Popen(
        [sys.executable, *args], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, **popen
    )


def finish(proc):
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    return out


def expected_last_record():
    chain = init_chain(ModelParams(5, 1.0), SamplerConfig(burn_in_sweeps=0, seed=4))
    return repr(list(run(chain, 30))[-1]) + "\n"


def library_files(cache):
    return sorted(p.name for p in cache.iterdir())


def first_loads_on_two_threads(cache, monkeypatch):
    """What a cold `simulate --chains 2` does: two threads, started by a
    barrier, make the process's first kernel() calls on the empty cache
    `cache`; returns the library each got."""
    monkeypatch.setattr(_native, "CACHE_DIR", cache)
    monkeypatch.setattr(_native, "_lib", None)
    start = threading.Barrier(2)
    libs = []

    def load():
        start.wait()
        libs.append(_native.kernel())

    threads = [threading.Thread(target=load) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert len(libs) == 2
    return libs


class TestCache:
    def test_second_load_in_fresh_process_does_not_compile(self, tmp_path):
        cache = tmp_path / "cache"
        first = finish(python("-c", LOAD_AND_RUN, str(cache)))
        (built,) = library_files(cache)
        # the second process could not run a compiler at all
        second = finish(python("-c", LOAD_AND_RUN, str(cache), str(tmp_path / "no-such-cc")))
        assert first == second == expected_last_record()
        assert library_files(cache) == [built]

    def test_simultaneous_builds_into_empty_cache(self, tmp_path):
        cache = tmp_path / "cache"
        procs = [python("-c", LOAD_AND_RUN, str(cache)) for _ in range(2)]
        outputs = [finish(p) for p in procs]
        assert outputs == [expected_last_record()] * 2
        (built,) = library_files(cache)  # no temporary files left behind
        assert built.endswith(".so")

    def test_simultaneous_builds_on_threads_of_one_process(self, tmp_path, monkeypatch):
        params, cfg = ModelParams(5, 1.0), SamplerConfig(burn_in_sweeps=0, seed=4)
        expected = list(run(init_chain(params, cfg), 30))[-1]
        cache = tmp_path / "cache"
        libs = first_loads_on_two_threads(cache, monkeypatch)
        for lib in libs:
            # 30 sweeps drawn and walked in one block: the statistics `run` records after sweep 30
            chain = init_chain(params, cfg)
            sites, normals, uniforms = np.empty(150, dtype=np.uint64), np.empty(150), np.empty(150)
            s_out, t_out, counts = np.empty(30), np.empty(30), np.zeros(2, dtype=np.int64)
            draws = (sites.ctypes.data, normals.ctypes.data, uniforms.ctypes.data, None)
            lib.cw_draw(chain.rng.bit_generator.ctypes.bit_generator.value, 5, 30, 0, *draws)
            lib.cw_walk(
                chain.x.ctypes.data, 5, chain.s, chain.t, 30, cfg.proposal_scale, 0.5, 0.0, 0, *draws,
                s_out.ctypes.data, t_out.ctypes.data, counts.ctypes.data,
            )
            assert 0 < counts[0] < 150
            assert counts[1] == 0
            assert (s_out[-1], t_out[-1]) == (expected.s, expected.t)
        (built,) = library_files(cache)  # no temporary files left behind
        assert built.endswith(".so")

    def test_a_build_removes_stale_builds(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "_kernel-0000.so").write_bytes(b"a build of another source")
        (cache / "cli.cpython-311.pyc").write_bytes(b"not a kernel build")
        monkeypatch.setattr(_native, "CACHE_DIR", cache)
        monkeypatch.setattr(_native, "_lib", None)
        _native.kernel()
        assert library_files(cache) == sorted([_native._library_path().name, "cli.cpython-311.pyc"])

    def test_importing_the_cli_leaves_the_kernel_unloaded(self):
        # importing _native neither builds nor loads the library; only kernel() does
        code = "import cwsoc.cli, cwsoc.verification; from cwsoc import _native; print(_native._lib is None)"
        assert finish(python("-c", code)) == "True\n"

    def test_commands_that_need_no_kernel_leave_it_unloaded(self, tmp_path):
        samples = tmp_path / "samples.csv"
        samples.write_text("chain,sweep,s,t,s_scaled,t_scaled\n0,1,0.5,4.0,0.1,1.0\n0,2,-0.5,4.5,-0.1,1.1\n")
        finish(python("-c", RUN_WITHOUT_KERNEL, str(tmp_path / "out"), str(samples)))


# An exported definition in _kernel.c: return type, name and parameter list.
EXPORTED = re.compile(r"^(?!static\b)(\w[\w ]*?)\s*(\**)\s*(cw_\w+)\(([^)]*)\)\s*\{", re.MULTILINE)


def exported_definitions():
    """(name, parameter count, returns void) of every non-static cw_* function."""
    found = []
    for ret, stars, name, params in EXPORTED.findall(_native.SOURCE.read_text()):
        count = len([p for p in params.split(",") if p.strip() not in ("", "void")])
        found.append((name, count, ret == "void" and not stars))
    return found


class TestSignatures:
    # ctypes passes whatever a stale declaration says without complaint
    def test_exported_definitions_are_found(self):
        names = [name for name, _, _ in exported_definitions()]
        assert {"cw_draw", "cw_walk", "cw_density"} <= set(names)
        assert len(names) == len(set(names))

    @pytest.mark.parametrize("name, count, void", exported_definitions())
    def test_kernel_declares_each_export_as_defined(self, name, count, void):
        function = getattr(_native.kernel(), name)
        assert function.argtypes is not None and len(function.argtypes) == count
        assert (function.restype is None) == void


def draw_and_compare(bit_generator, n, sweeps, moves, lib=None):
    """Draws `sweeps` sweeps with cw_draw of `lib` (the loaded kernel by
    default) and checks its buffers and the generator's state afterwards
    against the Generator API's draws, bit for bit; returns the proposal
    normals."""
    drawn, expected = (np.random.Generator(bit_generator(20261020)) for _ in range(2))
    for rng in (drawn, expected):
        rng.integers(0, 7)  # leaves a buffered 32-bit half word where the generator has one
    assert drawn.bit_generator.state.get("has_uint32", 1) == 1
    sites, normals, uniforms = np.empty(sweeps * n, np.uint64), np.empty(sweeps * n), np.empty(sweeps * n)
    zu = np.empty(max(1, 2 * sweeps * moves))
    (lib or _native.kernel()).cw_draw(
        drawn.bit_generator.ctypes.bit_generator.value, n, sweeps, moves,
        sites.ctypes.data, normals.ctypes.data, uniforms.ctypes.data, zu.ctypes.data,
    )
    want_sites, want_normals, want_uniforms, want_zu = [], [], [], [np.empty(0)]
    for _ in range(sweeps):
        want_sites.append(expected.integers(0, n, size=n))
        want_normals.append(expected.standard_normal(n))
        want_uniforms.append(expected.random(n))
        for _ in range(moves):
            want_zu += [expected.standard_normal(1), expected.random(1)]
    assert np.array_equal(sites, np.concatenate(want_sites))
    # bit patterns, so that -0.0 and 0.0 differ
    assert normals.tobytes() == np.concatenate(want_normals).tobytes()
    assert uniforms.tobytes() == np.concatenate(want_uniforms).tobytes()
    assert zu[: 2 * sweeps * moves].tobytes() == np.concatenate(want_zu).tobytes()
    assert repr(drawn.bit_generator.state) == repr(expected.bit_generator.state)
    return normals


BIT_GENERATORS = [np.random.Philox, np.random.PCG64, np.random.MT19937, np.random.SFC64]

# The start of the tail of numpy's ziggurat normal: every |z| beyond it comes
# from a word the kernel replays into numpy's random_standard_normal.
ZIGGURAT_TAIL = 3.6541528853610088


class TestDrawMatchesGeneratorApi:
    @pytest.mark.parametrize("moves", [0, 8])
    @pytest.mark.parametrize("n", [1, 3, 16, 257])
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    def test_buffers_and_state_match_the_generator_api(self, bit_generator, n, moves):
        draw_and_compare(bit_generator, n, 30, moves)

    def test_a_million_normals_reach_the_tail(self):
        normals = draw_and_compare(np.random.Philox, 256, 4100, 8)
        assert normals.size >= 2**20
        assert np.abs(normals).max() > ZIGGURAT_TAIL


class TestZigguratCheck:
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    def test_a_recheck_passes_on_any_inner_generator(self, bit_generator):
        # the check's verdict and the tables it writes do not depend on the draws after a probed word
        inner = bit_generator(5)
        assert _native.kernel().cw_ziggurat_check(inner.ctypes.bit_generator) == -1
        draw_and_compare(bit_generator, 64, 30, 8)

    def test_an_unchecked_library_replays_every_word(self, tmp_path):
        # a second copy is a second load, whose tables no check has filled
        checked = _native.kernel()
        copy = tmp_path / "unchecked.so"
        shutil.copyfile(_native._library_path(), copy)
        unchecked = ctypes.CDLL(str(copy))
        unchecked.cw_draw.argtypes = checked.cw_draw.argtypes
        address = [ctypes.cast(lib.cw_draw, ctypes.c_void_p).value for lib in (checked, unchecked)]
        assert address[0] != address[1]
        draw_and_compare(np.random.Philox, 64, 200, 8, lib=unchecked)

    def test_first_loads_on_two_threads_build_and_check_once(self, tmp_path, monkeypatch):
        builds, checks = [], []
        build, pcg64 = _native._build, np.random.PCG64
        monkeypatch.setattr(_native, "_build", lambda target: (builds.append(target), build(target)))
        # each check draws on a private PCG64 after its probed words
        monkeypatch.setattr(np.random, "PCG64", lambda *args: (checks.append(args), pcg64(*args))[1])
        libs = first_loads_on_two_threads(tmp_path / "cache", monkeypatch)
        assert len(builds) == len(checks) == 1
        assert libs[0] is libs[1]


class TestBuildFailure:
    @pytest.fixture
    def no_kernel(self, tmp_path, monkeypatch):
        """An empty cache and no loaded library: the next use must build."""
        monkeypatch.setattr(_native, "CACHE_DIR", tmp_path / "cache")
        monkeypatch.setattr(_native, "_lib", None)
        return monkeypatch

    @pytest.fixture
    def failing_compiler(self, tmp_path, no_kernel):
        fake = tmp_path / "fake-cc"
        fake.write_text("#!/bin/sh\necho 'fake-cc: out of order' >&2\nexit 1\n")
        fake.chmod(0o755)
        no_kernel.setattr(_native, "COMPILER", str(fake))

    def test_failing_compiler_raises_with_its_stderr(self, tmp_path, failing_compiler):
        with pytest.raises(_native.KernelBuildError, match="fake-cc: out of order"):
            run(init_chain(ModelParams(4), SamplerConfig()), 1)
        assert library_files(tmp_path / "cache") == []

    def test_missing_compiler_raises_named_error(self, tmp_path, no_kernel):
        no_kernel.setattr(_native, "COMPILER", str(tmp_path / "no-such-cc"))
        with pytest.raises(_native.KernelBuildError, match="no-such-cc"):
            _native.kernel()

    @pytest.mark.parametrize("chains", ["1", "2"])
    def test_simulate_exits_1_with_compiler_message(self, tmp_path, capsys, failing_compiler, chains):
        argv = ["simulate", "--n", "8", "--sweeps", "5", "--chains", chains, "--out", str(tmp_path / "run")]
        assert main(argv) == 1
        assert "fake-cc: out of order" in capsys.readouterr().err

    # char_fn and the inversion both run compiled code
    @pytest.mark.parametrize("suite", [["complex"], ["density", "--n-list", "5"]])
    def test_verify_exits_1_with_compiler_message(self, tmp_path, capsys, failing_compiler, suite):
        out = tmp_path / "run"
        assert main(["verify", "--suite", *suite, "--out", str(out)]) == 1
        assert "fake-cc: out of order" in capsys.readouterr().err
        assert not (out / "report.json").exists()
