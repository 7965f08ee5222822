
import ast
import gc
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import platemem
from platemem import ConfigError, RegimeLabel, classify_regime, parse_config, stability
from platemem.cli import TRACE_HEADER, main
from platemem.grid import MAX_MODE
from platemem.spectral import MAX_SAMPLES
from platemem.semigroup import TRACE_ROWS, default_dt
from platemem.util import fmt, write_csv

FAST = """
n_plate = 12
n_mem = 12
mode_min = 0
mode_max = 1
dt = 0.02
t_end = 1.0
m = 1
rho = 1
profiles = plate_bump,membrane_bump
seed = 3
"""


def test_empty_config_gives_defaults():
    cfg = parse_config("")
    assert cfg.params.rho0 == 1.0 and cfg.params.kappa == 1.0
    assert cfg.params.gamma == 0.0 and cfg.params.rho_damp == 0.0
    assert cfg.params.m_damp == 0.0 and cfg.params.mu == 1.0
    assert cfg.geometry.r_interface == 1.0 and cfg.geometry.r_outer == 2.0
    assert cfg.geometry.x0 == (0.0, 0.0)
    assert cfg.n_plate == 64 and cfg.n_mem == 64
    assert list(cfg.modes) == [0, 1, 2, 3, 4]
    assert cfg.dt is None and cfg.t_end is None


def test_defaults_come_from_the_dataclasses_and_the_run_table():
    from platemem import AnnulusGeometry, PhysicalParams
    from platemem.config import RUN_KEYS

    cfg = parse_config("")
    assert cfg.params == PhysicalParams() and cfg.geometry == AnnulusGeometry()
    for key, (_, default) in RUN_KEYS.items():
        assert getattr(cfg, key) == default, key
    other = parse_config("")
    assert other.profiles == cfg.profiles and other.profiles is not cfg.profiles


def test_readme_sample_config_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    cfg = parse_config(block)
    assert cfg.params.rho_damp == 1.0 and cfg.params.m_damp == 1.0
    assert cfg.dt == 0.01 and cfg.t_end == 50.0 and cfg.output_dir == "out"


def test_start_up_and_check_geometry_load_no_scipy(tmp_path):
    # scipy is imported at first use: the package import, the config parse and
    # check-geometry need numpy alone, and scipy's import is most of a start-up
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    path = tmp_path / "sample.cfg"
    path.write_text(readme.split("## Command line", 1)[1].split("```", 2)[1])
    # main freezes nothing; the heap is frozen at exit, for the interpreter's
    # teardown to skip, by cli's atexit handler, which runs before this
    # observer because atexit runs its handlers last registered first
    code = ("import atexit, gc, sys\n"
            "atexit.register(lambda: print('frozen at exit', gc.get_freeze_count() > 0))\n"
            "import platemem, platemem.cli\n"
            "platemem.load_config(sys.argv[1])\n"
            "code = platemem.cli.main(['check-geometry', sys.argv[1]])\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),\n"
            "      gc.get_freeze_count())")
    lines = _run_python(["-c", code, str(path)]).splitlines()
    assert lines[-2:] == ["0 [] 0", "frozen at exit True"]


def test_readme_library_example_uses_only_exported_names():
    # running the example takes seconds; its names are what drifts
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library use", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    used = {node.attr for node in ast.walk(ast.parse(block))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "pm"}
    assert used and used <= set(platemem.__all__), sorted(used - set(platemem.__all__))
    for name in platemem.__all__:
        assert hasattr(platemem, name), name


def test_damped_config_classifies_exponential():
    cfg = parse_config("m = 1\nrho = 1")
    assert classify_regime(cfg.params, cfg.geometry) is RegimeLabel.EXPONENTIAL_RHO_DAMPED


def test_invalid_beta1_names_field():
    with pytest.raises(ConfigError, match="beta1"):
        parse_config("beta1 = -1")


def test_unknown_key_rejected_with_line():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("m = 1\n\nbogus = 2")


def test_type_mismatch_carries_line_and_column():
    with pytest.raises(ConfigError, match=r"line 1, column 5"):
        parse_config("m = wat")
    with pytest.raises(ConfigError, match="integer"):
        parse_config("n_plate = 3.5")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("m = 1\nm = 2")


def test_unknown_profile_rejected():
    with pytest.raises(ConfigError, match="profile"):
        parse_config("profiles = plate_bump,gaussian")


@pytest.mark.parametrize("key", ["dt", "t_end"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_step_or_horizon_rejected(key, value):
    with pytest.raises(ConfigError, match=key):
        parse_config(f"{key} = {value}")


@pytest.mark.parametrize("body, message", [
    ("seed = ", "line 1, column 8: empty value for 'seed'"),
    ("profiles = ,", "line 1, column 12: empty profile list"),
    ("r_interface = -1", "geometry: r_interface must be positive, got -1.0"),
    ("r_outer = -2", "geometry: r_outer must be positive, got -2.0"),
    ("x0_x = nan", "geometry: x0 must be finite, got (nan, 0.0)"),
])
def test_empty_values_and_bad_geometry_rejected_by_name(body, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(body)


def test_negative_seed_rejected_with_line():
    with pytest.raises(ConfigError, match=r"line 2, column 8: seed must be non-negative"):
        parse_config("m = 1\nseed = -1")


def test_mode_range_above_the_cap_rejected():
    assert list(parse_config(f"mode_min = {MAX_MODE}\nmode_max = {MAX_MODE}").modes) == [MAX_MODE]
    with pytest.raises(ConfigError, match=f"^invalid mode range 0..{MAX_MODE + 1}, expected "
                                          f"0 <= mode_min <= mode_max <= {MAX_MODE}$"):
        parse_config(f"mode_max = {MAX_MODE + 1}")


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# comment\n\nm = 2\n")
    assert cfg.params.m_damp == 2.0


def test_modules_import_no_private_name_from_each_other():
    # a module that needs another module's underscore name is reaching past
    # that module's boundary; the name should be public or stay where it is
    src = Path(platemem.__file__).parent
    crossings = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("platemem"):
                continue
            crossings += [f"{path.name}: {alias.name} from {'.' * node.level}{node.module or ''}"
                          for alias in node.names if alias.name.startswith("_")]
    assert crossings == []


def test_every_traced_binding_resolves_in_platemem(monkeypatch):
    # the benchmark's tracer wraps these names from outside the package, so a
    # rename or deletion here would otherwise first show as a crash of its traced run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    for module, name in [*tracer.TRACED, ("platemem.util", "parallel_map")]:
        assert callable(getattr(importlib.import_module(module), name, None)), f"{module}.{name}"


def _write_csv_per_value(path, header, rows):
    """The per-value writer write_csv replaced: %.17g for a float, str for the rest."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(c) if isinstance(c, float) else str(c) for c in row) + "\n")


def test_write_csv_bytes_match_the_per_value_writer(tmp_path):
    # whole numbers (the summary's mode and zero_ok columns) print as integers
    header = ("mode", "abscissa", "imag_axis_gap", "zero_ok")
    rows = [[0, -0.0, 5e-324, 1], [3, 1.7976931348623157e308, -1.7976931348623157e308, 0],
            [4096, 0.1, -2.5e-17, 1], [1, 1.0 / 3.0, 123456.789, 0]]
    _write_csv_per_value(tmp_path / "oracle.csv", header, rows)
    write_csv(tmp_path / "table.csv", header, np.array(rows, dtype=float))
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def write_cfg(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(body + f"\noutput_dir = {tmp_path / 'out'}\n")
    return str(path)


def test_cli_check_geometry_default(tmp_path, capsys):
    path = write_cfg(tmp_path, "")
    assert main(["check-geometry", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("satisfied, max q·nu = -1")


def test_cli_invalid_config_exits_one(tmp_path, capsys):
    path = write_cfg(tmp_path, "beta2 = 0")
    assert main(["check-geometry", path]) == 1
    assert "beta2" in capsys.readouterr().err


def test_cli_missing_file_exits_one(capsys):
    assert main(["simulate", "/nonexistent/run.cfg"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["simulate"], ["render", "--t", "1e308"]])
def test_cli_huge_horizon_is_an_error_not_a_traceback(tmp_path, capsys, args):
    # with no dt, t_end / (heuristic step) overflows to inf
    path = write_cfg(tmp_path, "n_plate = 12\nn_mem = 12\nmode_max = 0\nt_end = 1e308")
    assert main([args[0], path, *args[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("dt, t_end, named", [
    ("1e-300", "1e300", "steps, above the cap"),         # t_end / dt overflows to inf
    ("1e-7", "1e4", "1e+11 steps, above the cap"),       # an 8 TiB trace
])
def test_cli_step_count_above_the_cap_is_an_error(tmp_path, capsys, dt, t_end, named):
    path = write_cfg(tmp_path, f"n_plate = 12\nn_mem = 12\nmode_max = 0\ndt = {dt}\n"
                               f"t_end = {t_end}")
    assert main(["simulate", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: t_end={float(t_end)!r} / dt={float(dt)!r} is ")
    assert named in err
    assert "Traceback" not in err and not (tmp_path / "out" / "trace_mode0.csv").exists()


def test_cli_simulate_outputs_are_deterministic_and_round_trip(tmp_path):
    path = write_cfg(tmp_path, FAST)
    assert main(["simulate", path]) == 0
    out = tmp_path / "out"
    trace = out / "trace_mode0.csv"
    first = trace.read_bytes()
    header = first.decode().splitlines()[0]
    assert header == ("t,energy,E_bend,E_kin_plate,E_rot,E_thermal,E_mem_pot,"
                      "E_mem_kin,D_struct,D_thermal_bulk,D_thermal_bdry,"
                      "D_membrane,residual")
    assert (out / "trace_mode1.csv").exists()
    # identical run -> byte-identical output
    assert main(["simulate", path]) == 0
    assert trace.read_bytes() == first
    # 17-significant-digit round trip: re-emitting parsed floats is identity
    lines = first.decode().splitlines()
    for line in lines[1:3]:
        for cell in line.split(","):
            assert f"{float(cell):.17g}" == cell


def test_repeated_main_calls_freeze_nothing(tmp_path):
    # a process that calls main many times must free each call's garbage;
    # the teardown freeze waits for the process's exit
    path = write_cfg(tmp_path, "n_plate = 16\nn_mem = 16\nmode_min = 0\nmode_max = 1\n"
                               "t_end = 0.5\n")
    for _ in range(30):
        assert main(["simulate", path]) == 0
    assert gc.get_freeze_count() == 0


def test_cli_spectrum_summary(tmp_path):
    path = write_cfg(tmp_path, FAST)
    assert main(["spectrum", path]) == 0
    out = tmp_path / "out"
    summary = (out / "spectrum_summary.csv").read_text().splitlines()
    assert summary[0] == "mode,abscissa,imag_axis_gap,zero_ok"
    rows = [line.split(",") for line in summary[1:]]
    assert [r[0] for r in rows] == ["0", "1"]
    for r in rows:
        assert float(r[1]) < 0.0          # damped cell
        assert r[3] == "1"
    spec0 = (out / "spectrum_mode0.csv").read_text().splitlines()
    assert spec0[0] == "re,im"
    assert len(spec0) > 10


def test_cli_scan_prints_exponent(tmp_path, capsys):
    path = write_cfg(tmp_path, FAST)
    assert main(["scan", path, "--lmin", "0.5", "--lmax", "8.0", "--n", "16"]) == 0
    out = capsys.readouterr().out
    assert "fitted growth exponent" in out
    scan0 = (tmp_path / "out" / "resolvent_mode0.csv").read_text().splitlines()
    assert scan0[0] == "lambda,norm"
    assert len(scan0) == 17


def test_cli_render_at_time_zero(tmp_path):
    body = FAST.replace("profiles = plate_bump,membrane_bump", "profiles = plate_bump")
    path = write_cfg(tmp_path, body)
    assert main(["render", path, "--t", "0"]) == 0
    out = tmp_path / "out"
    u = np.loadtxt(out / "field_u.csv", delimiter=",", skiprows=1)
    v = np.loadtxt(out / "field_v.csv", delimiter=",", skiprows=1)
    assert u.shape[1] == 3
    radii_u = np.hypot(u[:, 0], u[:, 1])
    assert radii_u.min() > 1.0  # plate field lives on the annulus
    assert np.abs(u[:, 2]).max() > 0.0
    assert np.abs(v[:, 2]).max() == 0.0  # plate bump leaves the membrane at rest
    header = (out / "field_theta.csv").read_text().splitlines()[0]
    assert header == "x,y,value"


def test_cli_render_points_match_the_radius_angle_loop(tmp_path):
    # the points are written radius by radius, angle by angle, and each is
    # (r cos th, r sin th) to the last bit
    import math
    from platemem.cli import RENDER_N_THETA, _pencil
    from platemem.util import fmt
    path = write_cfg(tmp_path, FAST)
    assert main(["render", path, "--t", "0"]) == 0
    grid = _pencil(parse_config(open(path).read()), 0).grid
    thetas = np.linspace(0.0, 2.0 * np.pi, RENDER_N_THETA, endpoint=False)
    for name, radii in (("u", grid.plate_nodes), ("theta", grid.plate_nodes),
                        ("v", grid.membrane_nodes)):
        lines = (tmp_path / "out" / f"field_{name}.csv").read_text().splitlines()[1:]
        assert [line.rsplit(",", 1)[0] for line in lines] == [
            f"{fmt(r * math.cos(th))},{fmt(r * math.sin(th))}" for r in radii for th in thetas]


@pytest.mark.parametrize("bound, value", [("lmax", "inf"), ("lmax", "nan"), ("lmin", "-inf")])
def test_cli_scan_rejects_non_finite_bound(tmp_path, capfd, bound, value):
    # before the check, inf reached LAPACK (ZLASCL) and ARPACK, and nan was
    # reported as lambda_max not exceeding lambda_min
    path = write_cfg(tmp_path, FAST)
    args = {"lmin": "0.5", "lmax": "8.0", bound: value}
    assert main(["scan", path, f"--lmin={args['lmin']}", f"--lmax={args['lmax']}",
                 "--n", "16"]) == 1
    out, err = capfd.readouterr()
    assert f"error: lambda_{bound[1:]} must be finite, got {float(value)}" in err
    assert "On entry" not in out + err and "ARPACK" not in err


@pytest.mark.parametrize("t", ["-1", "nan", "inf"])
def test_cli_render_rejects_negative_or_non_finite_time(tmp_path, capsys, t):
    path = write_cfg(tmp_path, FAST)
    assert main(["render", path, "--t", t]) == 1
    assert f"error: --t must be finite and non-negative, got {float(t)}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_parallel_map_keeps_order_and_makes_no_pool_for_no_items(monkeypatch):
    import concurrent.futures

    from platemem.util import parallel_map

    assert parallel_map(lambda x: x * x, list(range(40))) == [x * x for x in range(40)]

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was made")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    assert parallel_map(lambda x: x, []) == []


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2 if hasattr(os, "sched_getaffinity")
                    else (os.cpu_count() or 1) < 2, reason="needs 2 usable CPUs")
def test_parallel_map_runs_two_items_at_once():
    import threading

    from platemem.util import parallel_map

    barrier = threading.Barrier(2, timeout=10)     # raises if the items ran one after another
    assert parallel_map(lambda x: (barrier.wait(), x)[1], ["a", "b"]) == ["a", "b"]


def test_cli_spectrum_failure_inside_the_threaded_map_exits_one(tmp_path, capsys, monkeypatch):
    from platemem import spectral

    monkeypatch.setattr(spectral, "EIG_DIM_CAP", 2)
    path = write_cfg(tmp_path, "n_plate = 12\nn_mem = 12\nmode_min = 0\nmode_max = 3")
    assert main(["spectrum", path]) == 1
    assert capsys.readouterr().err == "error: pencil dimension 60 exceeds eigensolver cap 2\n"


def test_cli_reruns_are_byte_identical(tmp_path):
    from platemem.util import parallel_map
    assert parallel_map(lambda x: x * x, [3, 1, 2]) == [9, 1, 4]  # order preserved
    path = write_cfg(tmp_path, FAST)
    commands = (["simulate", path], ["spectrum", path],
                ["scan", path, "--lmin", "0.5", "--lmax", "20", "--n", "8"])
    outputs = []
    for _ in range(2):
        for args in commands:
            assert main(args) == 0
        outputs.append({f.name: f.read_bytes() for f in (tmp_path / "out").iterdir()})
    assert len(outputs[0]) == 2 + 3 + 2   # traces, spectra + summary, scans
    assert outputs[1] == outputs[0]


def _checkout_env(blas_threads: str = "1") -> dict[str, str]:
    """Environment of a fresh interpreter that imports platemem from this checkout."""
    src = str(Path(platemem.__file__).resolve().parents[1])
    return dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _run_python(args: list[str], blas_threads: str = "1") -> str:
    """stdout of a fresh interpreter that imports platemem from this checkout."""
    return subprocess.run([sys.executable, *args], env=_checkout_env(blas_threads), check=True,
                          capture_output=True, text=True).stdout


def test_perfbench_tracer_installs_over_the_cli():
    # the benchmark's traced run wraps public functions by name, and install()
    # raises for one that is gone; this reads perfbench/ and writes nothing there
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    code = ("import sys, platemem.cli\n"
            f"sys.path.insert(0, {str(perfbench)!r})\n"
            "sys.dont_write_bytecode = True\n"
            "from tracer import Tracer\n"
            "Tracer().install()\n"
            "print('installed')")
    assert _run_python(["-c", code]).strip() == "installed"


def test_trace_csv_header_is_the_benchmark_contract():
    # the benchmark checks each trace CSV's header against its own copy;
    # this reads perfbench/workloads.py and writes nothing there
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py").read_text()
    pinned = [ast.literal_eval(node.value) for node in ast.parse(source).body
              if isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets] == ["TRACE_HEADER"]]
    assert TRACE_HEADER == ("t", *TRACE_ROWS, "residual")
    assert pinned == [",".join(TRACE_HEADER)]


def test_cli_overflowing_dt_is_named_before_any_warning(tmp_path):
    # t_end = 1e308 gives the default dt = 5e303, where 0.5 dt max|A| overflows
    path = write_cfg(tmp_path, "n_plate = 12\nn_mem = 12\nmode_max = 0\nt_end = 1e308")
    proc = subprocess.run([sys.executable, "-m", "platemem.cli", "simulate", path],
                          env=_checkout_env(), capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == ("error: dt=5.0000000000000003e+303 overflows the trapezoidal "
                           "matrix: 0.5 dt max|A| is not finite\n")


@pytest.mark.parametrize("body, args, named", [
    (f"mode_max = {10**12}", ["spectrum"],
     f"invalid mode range 0..{10**12}, expected 0 <= mode_min <= mode_max <= {MAX_MODE}"),
    ("n_plate = 12\nn_mem = 12\nmode_max = 0",
     ["scan", "--lmin", "0.5", "--lmax", "8", "--n", str(10**9)],
     f"need 4 to {MAX_SAMPLES} samples, got {10**9}"),
])
def test_cli_run_size_above_its_cap_is_one_error_line(tmp_path, body, args, named):
    # in a 4 GiB address space, uncapped, list(cfg.modes) raised MemoryError
    # and the scan's 10**9 samples an _ArrayMemoryError, each with a traceback
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (4 << 30,) * 2)\n"
            "from platemem.cli import main\n"
            "sys.exit(main())")
    path = write_cfg(tmp_path, body)
    proc = subprocess.run([sys.executable, "-c", code, args[0], path, *args[1:]],
                          env=_checkout_env(), capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [f"error: {named}"]
    assert not (tmp_path / "out").exists()


def test_scan_norms_agree_across_blas_thread_counts(tmp_path):
    # BLAS kernels sum in a thread-dependent order, so the Schur form moves at
    # round-off; the README's known limitations state this bound
    body = "n_plate = 32\nn_mem = 32\nmode_min = 0\nmode_max = 1\nm = 0\nrho = 1\n"
    norms = {}
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        cfg = tmp_path / f"blas{threads}.cfg"
        cfg.write_text(body + f"output_dir = {out}\n")
        _run_python(["-m", "platemem.cli", "scan", str(cfg), "--lmin", "0.25", "--lmax", "57.6",
                     "--n", "60"], threads)
        norms[threads] = [np.loadtxt(out / f"resolvent_mode{m}.csv", delimiter=",",
                                     skiprows=1) for m in (0, 1)]
    for one, two in zip(norms["1"], norms["2"]):
        np.testing.assert_array_equal(one[:, 0], two[:, 0])
        assert (np.abs(one[:, 1] - two[:, 1]) / one[:, 1]).max() <= 1e-9


def test_spectrum_agrees_across_blas_thread_counts(tmp_path):
    # the Schur form moves at round-off with the BLAS thread count; on the
    # m = 0, rho = 1 cell, modes 0..1, the eigenvalue sets of 1 and 2 threads
    # were 0 apart at n = 32 and within 1.3e-14 max|lambda| at n = 64 and 128
    body = "n_plate = 32\nn_mem = 32\nmode_min = 0\nmode_max = 1\nm = 0\nrho = 1\n"
    runs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        cfg = tmp_path / f"blas{threads}.cfg"
        cfg.write_text(body + f"output_dir = {out}\n")
        _run_python(["-m", "platemem.cli", "spectrum", str(cfg)], threads)
        runs[threads] = ([np.loadtxt(out / f"spectrum_mode{m}.csv", delimiter=",", skiprows=1)
                          for m in (0, 1)],
                         np.loadtxt(out / "spectrum_summary.csv", delimiter=",", skiprows=1))
    for one, two in zip(runs["1"][0], runs["2"][0]):
        lam1, lam2 = one[:, 0] + 1j * one[:, 1], two[:, 0] + 1j * two[:, 1]
        dist = np.abs(lam1[:, None] - lam2[None, :])
        scale = np.abs(lam1).max()
        assert max(dist.min(axis=0).max(), dist.min(axis=1).max()) <= 1e-13 * scale
    np.testing.assert_array_equal(runs["1"][1][:, 3], runs["2"][1][:, 3])    # zero_ok


def test_simulate_traces_are_identical_across_blas_thread_counts(tmp_path):
    # a band step is a CSR product and a dgbtrs band solve.  A dense step is
    # a product with the propagator, a threaded BLAS call, and the propagator
    # is made by dgbtrs, not by a dense LU, whose threaded getrf need not
    # round alike at every count.  Neither path's traces may move with the
    # BLAS thread count; at dims 80, 160 and 240 the dense ones were byte-identical
    for grid in ("n_plate = 64\nn_mem = 64\n",                  # dim 320: band step
                 "gamma = 1\nn_plate = 32\nn_mem = 32\n"):      # dim 160: dense step
        body = ("m = 1\nrho = 1\nmode_min = 0\nmode_max = 3\ndt = 0.01\nt_end = 0.5\n"
                "profiles = plate_bump,rough\n" + grid)
        traces = {}
        for threads in ("1", "2"):
            out = tmp_path / f"blas{threads}"
            cfg = tmp_path / f"blas{threads}.cfg"
            cfg.write_text(body + f"output_dir = {out}\n")
            _run_python(["-m", "platemem.cli", "simulate", str(cfg)], threads)
            traces[threads] = {f.name: f.read_bytes() for f in out.iterdir()}
        assert sorted(traces["1"]) == [f"trace_mode{m}.csv" for m in range(4)]
        assert traces["2"] == traces["1"], grid


@pytest.mark.parametrize("command", ["spectrum", "simulate"])
def test_cli_runs_never_import_scipy_csgraph(tmp_path, command):
    # G is banded in the dof order itself, so no run computes a graph ordering
    path = write_cfg(tmp_path, FAST)
    code = ("import sys\n"
            "from platemem.cli import main\n"
            f"assert main([{command!r}, {path!r}]) == 0\n"
            "print('scipy.sparse.csgraph' in sys.modules)")
    assert _run_python(["-c", code]).strip() == "False"


@pytest.mark.parametrize("argv", [["simulate"], ["spectrum"], ["regimes"],
                                  ["scan", "--lmin", "0.25", "--lmax", "20", "--n", "8"]],
                         ids=lambda argv: argv[0])
def test_cli_runs_never_import_scipy_sparse_linalg(tmp_path, argv):
    # the mass and CN solves are LAPACK band LUs and a resolvent sample runs
    # its own Lanczos, so no run loads SuperLU or ARPACK
    path = write_cfg(tmp_path, FAST if argv[0] != "regimes" else REGIME_FAST)
    code = ("import sys\n"
            "from platemem.cli import main\n"
            f"assert main({[argv[0], path, *argv[1:]]!r}) == 0\n"
            "print('scipy.sparse.linalg' in sys.modules)")
    assert _run_python(["-c", code]).splitlines()[-1] == "False"


def test_importing_the_cli_does_not_load_scipy_sparse():
    # scipy.sparse is imported at first use: at start-up it would cost 0.13-0.21 s.
    # Nor does the import freeze anything: the freeze waits for the process's exit
    code = ("import gc, sys, platemem.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')), "
            "gc.get_freeze_count() == 0)")
    assert _run_python(["-c", code]).strip() == "[] True"


REGIME_FAST = """
n_plate = 16
n_mem = 16
mode_min = 0
mode_max = 1
dt = 0.02
t_end = 40
m = 1
rho = 1
profiles = plate_bump
"""


def test_cli_regimes_exit_codes(tmp_path):
    ok = write_cfg(tmp_path, REGIME_FAST)
    assert main(["regimes", ok]) == 0
    report = (tmp_path / "out" / "regime_report.txt").read_text()
    assert "verdict: consistent" in report
    bad = write_cfg(tmp_path, REGIME_FAST.replace("t_end = 40", "t_end = 4"),
                    name="bad.cfg")
    assert main(["regimes", bad]) == 2
    invalid = write_cfg(tmp_path, "kappa = -1", name="invalid.cfg")
    assert main(["regimes", invalid]) == 1


def test_cli_regimes_without_dt_takes_the_default_step(tmp_path, monkeypatch):
    horizons = []

    def spy(pencil, t_end):
        horizons.append(t_end)
        return default_dt(pencil, t_end)

    monkeypatch.setattr(stability, "default_dt", spy)
    cfg = write_cfg(tmp_path, "rho = 1\nn_plate = 16\nn_mem = 16\nmode_min = 0\nmode_max = 1\n"
                              "profiles = membrane_bump\nt_end = 20")
    assert main(["regimes", cfg]) == 0
    assert horizons == [20.0]
    assert "verdict: consistent" in (tmp_path / "out" / "regime_report.txt").read_text()


def test_cli_regimes_inconclusive_on_unfittable_horizon(tmp_path):
    # m = 0 regime with a horizon too short for the decade window: the
    # polynomial fit fails, the report is partial, and the exit code is 3
    body = REGIME_FAST.replace("m = 1\nrho = 1", "m = 0\nrho = 1")
    body = body.replace("t_end = 40", "t_end = 0.1")
    cfg = write_cfg(tmp_path, body, name="inconclusive.cfg")
    assert main(["regimes", cfg]) == 3
    report = (tmp_path / "out" / "regime_report.txt").read_text()
    assert "verdict: inconclusive" in report
    assert "experiment incomplete: FitError" in report


def test_cli_regimes_grid_size_out_of_range_is_an_error_not_a_verdict(tmp_path, capsys):
    body = REGIME_FAST.replace("m = 1\nrho = 1", "m = 0\nrho = 1")
    path = write_cfg(tmp_path, body.replace("16", "4"))
    assert main(["regimes", path]) == 1
    assert capsys.readouterr().err == "error: n_plate must be in [8, 4096], got 4\n"
    assert not (tmp_path / "out" / "regime_report.txt").exists()


RUN_CHECKS = "n_plate = 16\nn_mem = 16\nmode_max = 0\n"


@pytest.mark.parametrize("command, body, named", [
    *[(command, "n_plate = 4\nn_mem = 4", "n_plate must be in [8, 4096], got 4")
      for command in ("regimes", "simulate", "spectrum")],
    *[(command, RUN_CHECKS + "dt = 0.3\nt_end = 1",
       "t_end=1.0 is not an integer multiple of dt=0.3")
      for command in ("simulate", "regimes")],
    *[(command, RUN_CHECKS + "dt = 1e-6\nt_end = 10",
       "t_end=10.0 / dt=1e-06 is 1e+07 steps, above the cap of 1000000")
      for command in ("simulate", "regimes")],
], ids=["regimes-grid", "simulate-grid", "spectrum-grid", "simulate-dt", "regimes-dt",
        "simulate-steps", "regimes-steps"])
def test_cli_run_that_fails_its_checks_leaves_no_output_directory(tmp_path, capsys, command,
                                                                  body, named):
    # the output directory is made with the run's first file, after its checks
    path = write_cfg(tmp_path, body)
    assert main([command, path]) == 1
    assert capsys.readouterr().err == f"error: {named}\n"
    assert not (tmp_path / "out").exists()


def test_cli_makes_a_nested_output_directory_with_its_first_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(FAST + f"output_dir = {tmp_path / 'a' / 'b'}\n")
    assert main(["spectrum", str(path)]) == 0
    assert sorted(f.name for f in (tmp_path / "a" / "b").iterdir()) == [
        "spectrum_mode0.csv", "spectrum_mode1.csv", "spectrum_summary.csv"]


def test_cli_regimes_rejects_unequal_grids(tmp_path, capsys):
    path = write_cfg(tmp_path, REGIME_FAST.replace("n_mem = 16", "n_mem = 12"))
    assert main(["regimes", path]) == 1
    assert capsys.readouterr().err == ("error: regimes runs both grids at one resolution: "
                                       "n_plate=16 and n_mem=12 must be equal\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("t", [0.0015, 1e-4])
def test_cli_render_lands_on_requested_time(tmp_path, t):
    # the heuristic step is 1e-3 at n=64; neither time is a multiple of it,
    # and the fields must still be those at t, not at the nearest multiple of
    # 1e-3.  The default takes MIN_DEFAULT_STEPS steps to t, because theta,
    # whose stiff heat modes CN does not damp, is 20-25% off after 1 or 2
    # steps
    from oracles import matrix_exponential_reference
    from platemem.cli import RENDER_N_THETA, _initial, _pencil
    path = write_cfg(tmp_path, "")
    assert main(["render", path, "--t", repr(t)]) == 0
    cfg = parse_config(open(path).read())
    thetas = np.linspace(0.0, 2.0 * np.pi, RENDER_N_THETA, endpoint=False)
    exact = {"u": 0.0, "theta": 0.0, "v": 0.0}
    for mode in cfg.modes:
        pencil = _pencil(cfg, mode)
        w = matrix_exponential_reference(pencil, t) @ _initial(pencil, cfg)
        for name in exact:
            exact[name] = exact[name] + np.real(np.outer(w[pencil.block(name)],
                                                         np.exp(1j * mode * thetas)))
    # Crank-Nicolson error at these steps: 7e-7 (u), 4e-4 (theta) and 1e-11
    # (v) relative; the fields at 0.002 and 1e-3 are 1e-2 (u) and 2e-5 (v) away
    for name, rtol in (("u", 3e-3), ("theta", 1e-3), ("v", 1e-6)):
        got = np.loadtxt(tmp_path / "out" / f"field_{name}.csv", delimiter=",",
                         skiprows=1)[:, 2]
        ref = exact[name].ravel()
        assert np.abs(got - ref).max() <= rtol * np.abs(ref).max(), name


def test_regime_experiment_raises_bugs_and_records_expected_failures(monkeypatch):
    import platemem.stability as stability
    from platemem import AnnulusGeometry, PhysicalParams, ValidationError
    from platemem.pencil import AssemblyError

    def failing(exc):
        def run(*args, **kwargs):
            raise exc
        return run

    def experiment():
        return stability.run_regime_experiment(PhysicalParams(rho_damp=1.0), AnnulusGeometry(),
                                               16, range(2), ["plate_bump"], t_end=1.0, dt=0.02)

    monkeypatch.setattr(stability, "spectral_abscissa_sweep", failing(TypeError("bug")))
    with pytest.raises(TypeError, match="bug"):
        experiment()
    monkeypatch.setattr(stability, "spectral_abscissa_sweep",
                        failing(np.linalg.LinAlgError("singular")))
    report = experiment()
    assert report.verdict == "inconclusive"
    assert report.lines == ["experiment incomplete: LinAlgError: singular"]
    # an AssemblyError is a RuntimeError, but a malformed operator is a bug
    monkeypatch.setattr(stability, "spectral_abscissa_sweep",
                        failing(AssemblyError("form D_membrane has no rows")))
    with pytest.raises(AssemblyError, match="no rows"):
        experiment()
    # the inputs are validated before the sweep, so a ValidationError in it is a bug
    monkeypatch.setattr(stability, "spectral_abscissa_sweep",
                        failing(ValidationError("n_plate must be in [8, 4096], got 4")))
    with pytest.raises(ValidationError, match="n_plate"):
        experiment()
