import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pcompliance
from pcompliance import cli, reporting
from pcompliance.capacity import segment_capacity
from pcompliance.config import ExperimentConfig, config_from_text, load_config
from pcompliance.errors import ConfigError
from pcompliance.geometry import CrackSet
from pcompliance.solver import SolverConfig, solve_cracks
from pcompliance.sources import named_source


def write_config(tmp_path, text):
    path = tmp_path / "experiment.ini"
    path.write_text(text)
    return str(path)


def test_empty_config_gives_defaults():
    cfg = config_from_text("")
    assert cfg == ExperimentConfig()
    assert cfg.problem.p == 2.0
    assert cfg.solve.nodes_per_side == 129


def test_config_round_trip_of_values():
    cfg = config_from_text("""
[problem]
p = 1.5
dim = 3
half_width = 2.0
length_penalty = 0.5

[solver]
grad_tolerance = 1e-6
prefer_direct = yes

[capacity-sweep]
lengths = 0.1, 0.2 0.4
resolution = 2

[sweep-vanishing]
n_list = 1 2 4
compare_baseline = off

[output]
seed = 11
directory = results
""")
    assert cfg.problem.p == 1.5
    assert cfg.problem.dim == 3
    assert cfg.solver.grad_tolerance == 1e-6
    assert cfg.solver.prefer_direct is True
    assert cfg.capacity_sweep.lengths == (0.1, 0.2, 0.4)
    assert cfg.capacity_sweep.resolution == 2
    assert cfg.sweep_vanishing.n_list == (1, 2, 4)
    assert cfg.sweep_vanishing.compare_baseline is False
    assert cfg.seed == 11
    assert cfg.out_dir == "results"


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        config_from_text("[solvers]\ngrad_tolerance = 1e-6\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_text("[problem]\nexponent = 2\n")
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_text("[problem]\nlength_budget = 1.0\n")
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_text("[output]\nfolder = x\n")
    # a cube's crack spans a fixed two cells; below that the ladder aborts
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_text("[sweep-vanishing]\nspan_cells = 1.5\n")
    # the L-BFGS memory and line search are fixed in `descent`
    for key in ("memory", "armijo_factor", "armijo_c1"):
        with pytest.raises(ConfigError, match="unknown key"):
            config_from_text(f"[solver]\n{key} = 0.5\n")
    # the problem picks the solve path (`solver.solve_method`)
    with pytest.raises(ConfigError, match="unknown key 'method' in section"):
        config_from_text("[solver]\nmethod = auto\n")


def test_bad_values_carry_section_context():
    with pytest.raises(ConfigError, match=r"\[problem\]"):
        config_from_text("[problem]\np = two\n")
    # parses as a float but fails dataclass validation
    with pytest.raises(ConfigError, match=r"\[problem\]"):
        config_from_text("[problem]\np = 1.0\n")
    with pytest.raises(ConfigError, match=r"\[solver\]"):
        config_from_text("[solver]\nmax_iterations = 0\n")
    with pytest.raises(ConfigError, match=r"\[solver\]"):
        config_from_text("[solver]\nprefer_direct = maybe\n")


@pytest.mark.parametrize("section,key,value", [
    ("solver", "grad_tolerance", "inf"),       # would stop at once, compliance 0
    ("solver", "regularization_eps", "nan"),   # would fail as a line-search stall
    ("problem", "p", "inf"),                   # would run to the iteration cap
    ("stability", "truncation_levels", "1 inf"),
])
def test_non_finite_numbers_rejected(section, key, value):
    with pytest.raises(ConfigError,
                       match=rf"'{key}' in \[{section}\]: not a finite number"):
        config_from_text(f"[{section}]\n{key} = {value}\n")


@pytest.mark.parametrize("levels", ["40 20 10 5", "5 10 10 20"])
def test_truncation_levels_must_ascend(tmp_path, capsys, levels):
    # the truncation check compares each bound with the next level's
    with pytest.raises(ConfigError, match=r"\[stability\].*truncation_levels "
                                          r"must be strictly ascending"):
        config_from_text(f"[stability]\ntruncation_levels = {levels}\n")
    cfg = write_config(tmp_path, f"[stability]\ntruncation_levels = {levels}\n")
    assert cli.main(["stability", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "truncation_levels" in capsys.readouterr().err


def test_malformed_ini_reports_origin():
    with pytest.raises(ConfigError, match="badfile.ini"):
        config_from_text("p = 2 without a section\n", origin="badfile.ini")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.ini")


def test_format_value_stability():
    assert reporting.format_value(True) == "1"
    assert reporting.format_value(False) == "0"
    assert reporting.format_value(3) == "3"
    assert reporting.format_value(0.1) == "0.1"
    assert reporting.format_value(float("nan")) == "nan"
    assert reporting.format_value(float("inf")) == "inf"
    assert reporting.format_value(np.float64(0.25)) == "0.25"


def test_write_csv_layout(tmp_path):
    path = reporting.write_csv(tmp_path / "t.csv", ("a", "b"),
                               [(1, 2.5), (3, float("nan"))],
                               seed=9, comments=("note=x",))
    lines = path.read_text().splitlines()
    assert lines[0] == "# schema=1"
    assert lines[1] == "# seed=9"
    assert lines[2] == "# note=x"
    assert lines[3] == "a,b"
    assert lines[4] == "1,2.5"
    assert lines[5] == "3,nan"


@pytest.mark.parametrize("shape", [(4, 5), (3, 2, 4)])
def test_write_field_matches_per_node_write_csv(tmp_path, shape):
    # the field file holds each node's value bit for bit, as the per-node
    # CSV rows it replaced did through repr
    values = np.random.default_rng(3).standard_normal(shape) * 1e-3
    values.flat[:5] = [-0.0, float("nan"), float("inf"), float("-inf"), 1e300]
    field = reporting.write_field(tmp_path / "field.npy", values)
    loaded = np.load(field)
    assert loaded.shape == shape and loaded.dtype == values.dtype
    assert loaded.tobytes() == values.tobytes()
    assert np.signbit(loaded.flat[0]) and np.isnan(loaded.flat[1])
    for idx in np.ndindex(shape):
        assert repr(loaded[idx]) == repr(values[idx])
    again = reporting.write_field(tmp_path / "again.npy", values)
    assert again.read_bytes() == field.read_bytes()
    fortran = reporting.write_field(tmp_path / "fortran.npy", np.asfortranarray(values))
    assert fortran.read_bytes() == field.read_bytes()


def test_cli_solve_writes_reports(tmp_path, capsys):
    cfg = write_config(tmp_path, """
[solve]
nodes_per_side = 33
source = bump
heatmap = true
""")
    out = tmp_path / "run"
    code = cli.main(["solve", "--config", cfg, "--out", str(out), "--seed", "7"])
    assert code == 0
    assert (out / "solve.csv").is_file()
    assert not (out / "solution.csv").exists()
    field = np.load(out / "solution.npy")
    cfg_obj = load_config(cfg)
    expected, _, _ = solve_cracks(
        cfg_obj.problem, CrackSet.empty(),
        named_source("bump", cfg_obj.problem.dim, cfg_obj.problem.half_width),
        33, cfg_obj.solver)
    assert field.shape == (33, 33)
    assert field.tobytes() == expected.tobytes()
    svg = (out / "solution.svg").read_text()
    assert svg.startswith("<svg")
    assert "# seed=7" in (out / "solve.csv").read_text()
    assert "compliance" in capsys.readouterr().out


def test_cli_solve_missing_cracks_file(tmp_path, capsys):
    cfg = write_config(tmp_path, """
[solve]
nodes_per_side = 17
cracks_file = /nonexistent/cracks.txt
""")
    code = cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_cli_bad_config_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "[nonsense]\nkey = 1\n")
    code = cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "unknown section" in capsys.readouterr().err


def test_cli_missing_required_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "[problem]\ndim = 2\n")
    code = cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "missing key 'p' in section [problem]" in capsys.readouterr().err


_INVALID_SETTINGS = [
    ("capacity-sweep", "resolution", "3", "must be a positive even cell count"),
    ("sweep-vanishing", "capacity_resolution", "3", "must be a positive even cell count"),
    ("poincare", "capacity_resolution", "3", "must be a positive even cell count"),
    ("poincare", "nodes_per_side", "1", "must be >= 3, got 1"),
    ("stability", "nodes_per_side", "1", "must be >= 3, got 1"),
    ("sweep-vanishing", "baseline_nodes", "1", "must be >= 3, got 1"),
    ("sweep-vanishing", "divergence_samples", "-3", "must be >= 0"),
    ("stability", "calibration_safety", "0.5", "must be >= 1"),
    ("solve", "source", "foo", "must be one of one, zero, bump, got 'foo'"),
    ("sweep-vanishing", "local_nodes", "1", "must be >= 3, got 1"),
    ("poincare", "doubling_tolerance", "-1", "must be positive"),
    ("sweep-vanishing", "n_list", "4 2", "must be strictly increasing, got 4 2"),
]


@pytest.mark.parametrize("command,key,value,message", _INVALID_SETTINGS,
                         ids=[f"{command}-{key}" for command, key, *_ in _INVALID_SETTINGS])
def test_cli_odd_resolution_exits_2(tmp_path, capsys, command, key, value, message):
    cfg = write_config(tmp_path, f"[{command}]\n{key} = {value}\n")
    code = cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"{key} {message}" in capsys.readouterr().err


def test_cli_solver_method_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "[solver]\nmethod = auto\n")
    code = cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "unknown key 'method' in section [solver]" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_zero_eps_below_p_2_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "[problem]\np = 1.5\n\n[solver]\nregularization_eps = 0\n\n"
                                 "[capacity-sweep]\nlengths = 0.08 0.16 0.32\n")
    code = cli.main(["capacity-sweep", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "[solver] regularization_eps for [problem] p = 1.5" in err
    assert "regularization_eps = 0 is only valid for p >= 2" in err
    assert not (tmp_path / "o").exists()


def cli_import_loads(prefix: str) -> bool:
    """Whether a fresh `import pcompliance.cli` loads a module named prefix*."""
    src = str(Path(pcompliance.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = ("import sys, pcompliance.cli; "
             f"print(any(m.startswith({prefix!r}) for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    return out.strip() == "True"


def test_cli_import_leaves_scipy_optimize_out():
    # only capacity.logarithmic_fit needs scipy.optimize, and it imports it
    assert not cli_import_loads("scipy.optimize")


def test_cli_import_leaves_multiprocessing_out():
    # only capacity_sweep(jobs > 1) needs a process pool, and it imports it
    assert not cli_import_loads("multiprocessing")


def test_cli_nonconvergence_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, """
[problem]
p = 3.0

[solver]
max_iterations = 2
grad_tolerance = 1e-12

[solve]
nodes_per_side = 17
source = bump
""")
    code = cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_cli_capacity_sweep_above_dim_no_band(tmp_path, capsys):
    cfg = write_config(tmp_path, """
[problem]
p = 3.0

[capacity-sweep]
lengths = 0.1 0.2 0.4
resolution = 2

[solver]
grad_tolerance = 1e-6
""")
    out = tmp_path / "caps"
    code = cli.main(["capacity-sweep", "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "p above dim" in captured.out
    text = (out / "capacity_sweep.csv").read_text()
    assert text.splitlines()[2] == "p,dim,t,h,box_half_width,capacity"
    assert len(text.splitlines()) == 6


def test_cli_capacity_sweep_failed_check_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, """
[problem]
p = 1.5

[capacity-sweep]
lengths = 0.1 0.2 0.4
resolution = 2
slope_tolerance = 1e-9

[solver]
grad_tolerance = 1e-6
""")
    code = cli.main(["capacity-sweep", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, """
[capacity-sweep]
lengths = 0.1 0.2 0.4
resolution = 2
""")
    out = tmp_path / "repeat"
    assert cli.main(["capacity-sweep", "--config", cfg, "--out", str(out)]) in (0, 1)
    first = (out / "capacity_sweep.csv").read_bytes()
    assert cli.main(["capacity-sweep", "--config", cfg, "--out", str(out)]) in (0, 1)
    assert (out / "capacity_sweep.csv").read_bytes() == first


def test_cli_poincare_empty_sweep(tmp_path, capsys):
    cfg = write_config(tmp_path, """
[poincare]
deltas =
""")
    code = cli.main(["poincare", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 0
    assert "empty sweep" in capsys.readouterr().out


def test_cli_poincare_doubling_check(tmp_path, capsys):
    cfg = write_config(tmp_path, """
[poincare]
deltas = 0.5 1.0
relative_lengths = 0.25 0.5
nodes_per_side = 17
capacity_resolution = 4
""")
    out = tmp_path / "poin"
    code = cli.main(["poincare", "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "doubling" in captured.out
    assert "ok" in captured.out
    rows = (out / "poincare.csv").read_text().splitlines()
    assert rows[2] == "p,delta,a,h,constant,capacity"
    # schema + seed + header + 2 lengths x 2 deltas
    assert len(rows) == 7


def test_cli_poincare_capacity_honours_solver(tmp_path):
    cfg = write_config(tmp_path, """
[problem]
p = 1.5

[solver]
regularization_eps = 1e-2

[poincare]
deltas = 1.0
relative_lengths = 0.25
nodes_per_side = 17
with_capacity = yes
capacity_resolution = 4
""")
    out = tmp_path / "poin"
    assert cli.main(["poincare", "--config", cfg, "--out", str(out)]) == 0
    row = (out / "poincare.csv").read_text().splitlines()[-1]
    cap = segment_capacity(0.25, 1.5, 2, resolution=4,
                           config=SolverConfig(regularization_eps=1e-2))
    assert float(row.split(",")[-1]) == cap.value


def test_cli_stability_no_pairs(tmp_path, capsys):
    cfg = write_config(tmp_path, """
[stability]
pairs = 0
""")
    code = cli.main(["stability", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 0
    assert "empty sweep" in capsys.readouterr().out


def test_cli_stability_small_run(tmp_path, capsys):
    cfg = write_config(tmp_path, """
[stability]
pairs = 4
calibration = 2
nodes_per_side = 33
truncation_levels = 10 20 50
""")
    out = tmp_path / "stab"
    code = cli.main(["stability", "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "violations on holdout: 0" in captured.out
    assert (out / "stability.csv").is_file()
    assert (out / "truncation.csv").is_file()


def test_cli_sweep_vanishing_small_run(tmp_path, capsys):
    cfg = write_config(tmp_path, """
[sweep-vanishing]
n_list = 1 2 4
local_nodes = 33
epsilon = 0.25
baseline_nodes = 65
""")
    out = tmp_path / "van"
    code = cli.main(["sweep-vanishing", "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "check crack length identity: ok" in captured.out
    assert "check flux strictly decreasing: ok" in captured.out
    assert "check crack grid beats connected baseline: ok" in captured.out
    text = (out / "vanishing.csv").read_text()
    assert "# tilde_c=" in text
    assert "# bound_safety=" in text
