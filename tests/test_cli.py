import json
import warnings

import numpy as np
import pytest

from entgap.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_gap_heisenberg_json(capsys):
    code, out, _ = run_cli(capsys, "gap", "--model", "heisenberg", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["e0"] == pytest.approx(-3.0, abs=1e-9)
    assert payload["gap"][1] == pytest.approx(2.0, abs=1e-7)
    assert payload["scaled_gap"][1] == pytest.approx(0.5, abs=1e-7)


def test_gap_output_is_byte_identical_across_runs(capsys):
    _, out1, _ = run_cli(capsys, "gap", "--model", "xy:0.3:0.7", "--seed", "5", "--json")
    _, out2, _ = run_cli(capsys, "gap", "--model", "xy:0.3:0.7", "--seed", "5", "--json")
    assert out1 == out2


def test_gap_on_lattice(capsys):
    code, out, _ = run_cli(
        capsys, "gap", "--model", "heisenberg", "--lattice", "star:3",
        "--restarts", "16", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["e0"] == pytest.approx(-5.0, abs=1e-8)
    assert payload["e_sep_upper"] == pytest.approx(-3.0, abs=1e-8)


# for a real H, a PPT solve of side 32 needs 13 MB, one of side 36 needs
# 21 MB and one of side 64 needs 206 MB
SMALL_MEMORY = 16 * 2**20


def _fail(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} was called")
    return fail


def test_gap_runs_a_lattice_whose_ppt_solve_fits(monkeypatch, capsys):
    from entgap import sdp

    monkeypatch.setattr(sdp, "_physical_memory", lambda: SMALL_MEMORY)
    code, out, _ = run_cli(
        capsys, "gap", "--model", "heisenberg", "--lattice", "star:4",
        "--restarts", "4", "--json",
    )
    assert code == 0
    assert json.loads(out)["e_sep_lower"] == pytest.approx(-4.0, abs=1e-6)


def test_gap_refuses_a_lattice_whose_ppt_solve_cannot_fit_before_assembly(
    monkeypatch, capsys
):
    from entgap import lattices, sdp

    monkeypatch.setattr(sdp, "_physical_memory", lambda: SMALL_MEMORY)
    monkeypatch.setattr(lattices, "assemble", _fail("assemble"))
    monkeypatch.setattr(sdp, "_Basis", _fail("_Basis"))
    code, out, err = run_cli(
        capsys, "gap", "--model", "heisenberg", "--lattice", "star:5", "--json"
    )
    assert code == 2 and out == ""
    assert "PPT solve of side 64" in err


def test_temp_refuses_a_model_whose_ppt_solve_cannot_fit_before_the_seesaw(
    monkeypatch, capsys
):
    from entgap import sdp, separability

    monkeypatch.setattr(sdp, "_physical_memory", lambda: SMALL_MEMORY)
    monkeypatch.setattr(separability, "seesaw_upper", _fail("seesaw_upper"))
    monkeypatch.setattr(sdp, "_Basis", _fail("_Basis"))
    code, out, err = run_cli(capsys, "temp", "--model", "ces:6", "--json")
    assert code == 2 and out == ""
    assert "PPT solve of side 36" in err


def test_gap_refuses_a_model_whose_ppt_solve_cannot_fit_before_decomposing_it(
    monkeypatch, capsys
):
    from entgap import sdp, separability

    monkeypatch.setattr(sdp, "_physical_memory", lambda: SMALL_MEMORY)
    monkeypatch.setattr(separability, "eig", _fail("eig"))
    monkeypatch.setattr(sdp, "_Basis", _fail("_Basis"))
    code, out, err = run_cli(capsys, "gap", "--model", "ces:6", "--json")
    assert code == 2 and out == ""
    assert "PPT solve of side 36" in err


def test_pretty_numbers_also_in_machine_output(capsys):
    code, out, _ = run_cli(capsys, "gap", "--model", "heisenberg", "--pretty")
    assert code == 0
    payload = last_json(out)
    assert payload["e0"] == pytest.approx(-3.0, abs=1e-9)
    assert "E_sep in [" in out


def test_unknown_model_exits_2(capsys):
    code, _, err = run_cli(capsys, "gap", "--model", "nosuch")
    assert code == 2
    assert "nosuch" in err


@pytest.mark.parametrize("argv", [
    ["--model", "maxent"], ["--model", "ces"], ["--model", "symproj"], ["--model", "file"],
    *(["--model", "heisenberg", "--lattice", name]
      for name in ("star", "ring", "chain", "complete", "file")),
    # parameters that do not fit the form: too many, unconvertible or absent
    *(["--model", name] for name in ("heisenberg:9", "choi:x", "upb:tiles:x", "upb")),
    *(["--model", "heisenberg", "--lattice", name]
      for name in ("triangle:5", "tetrahedron:1", "star:4:1", "star:x")),
])
def test_identifier_missing_its_parameter_exits_2(argv, capsys):
    code, out, err = run_cli(capsys, "gap", *argv, "--json")
    assert code == 2 and out == ""
    assert "needs the form" in err


@pytest.mark.parametrize("command", ["gap", "temp"])
def test_one_factor_operator_exits_2(command, tmp_path, capsys):
    from entgap.operators import HermitianOperator, operator_to_json

    path = tmp_path / "one_factor.json"
    path.write_text(operator_to_json(HermitianOperator(np.diag([0.0, 1.0, 2.0, 3.0]), (4,))))
    code, out, err = run_cli(capsys, command, "--model", f"file:{path}", "--json")
    assert code == 2 and out == ""
    assert "two or more factors" in err


HEISENBERG_ROWS = [[[1, 0], [0, 0], [0, 0], [0, 0]], [[0, 0], [-1, 0], [2, 0], [0, 0]],
                   [[0, 0], [2, 0], [-1, 0], [0, 0]], [[0, 0], [0, 0], [0, 0], [1, 0]]]
CHAIN_3 = {"n_sites": 3, "local_dim": 2, "bonds": [[0, 1], [1, 2]]}


@pytest.mark.parametrize("command", ["gap", "window"])
@pytest.mark.parametrize("model", ["file:nan", "file:inf", "xy:nan:0.5", "xxz:inf"])
def test_non_finite_operator_exits_2(command, model, tmp_path, capsys):
    # an identifier is refused as it is parsed, a matrix as it is built
    expected = "needs finite numbers"
    if model.startswith("file:"):
        # json writes the entry as NaN or Infinity, which json reads back
        rows = [[[*pair] for pair in row] for row in HEISENBERG_ROWS]
        rows[1][1][0] = float(model[5:])
        (tmp_path / "model.json").write_text(json.dumps({"dims": [2, 2], "matrix": rows}))
        model = f"file:{tmp_path / 'model.json'}"
        expected = "not finite and Hermitian"
    # refused before any arithmetic on the non-finite entry can warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, command, "--model", model, "--json")
    assert code == 2 and out == ""
    assert expected in err


@pytest.mark.parametrize("model,lattice,field", [
    ({"dims": [2, 2], "matrix": [[1, 0, 0, 0], [0, -1, 2, 0], [0, 2, -1, 0], [0, 0, 0, 1]]},
     None, "matrix"),
    ({"dims": [2, 2], "matrix": [[["a", 0]] + HEISENBERG_ROWS[0][1:], *HEISENBERG_ROWS[1:]]},
     None, "matrix"),
    ({"dims": [2, 2], "matrix": [*HEISENBERG_ROWS[:3], HEISENBERG_ROWS[3][:3]]}, None, "matrix"),
    ({"dims": [2.7, 2], "matrix": HEISENBERG_ROWS}, None, "dims"),
    (None, CHAIN_3 | {"n_sites": 3.9}, "n_sites"),
    (None, CHAIN_3 | {"local_dim": 2.5}, "local_dim"),
    (None, {"n_sites": -1, "local_dim": 2, "bonds": []}, "n_sites must be >= 2"),
    (None, {"n_sites": 0, "local_dim": 2, "bonds": []}, "n_sites must be >= 2"),
    (None, CHAIN_3 | {"local_dim": 1}, "local_dim must be >= 2"),
    (None, CHAIN_3 | {"bonds": [[0, 1], [1, "2"]]}, "bond endpoint"),
    (None, CHAIN_3 | {"bonds": [[0, 1], [1, 1.5]]}, "bond endpoint"),
    (None, [CHAIN_3], "object with n_sites, local_dim and bonds"),
    (None, CHAIN_3 | {"bonds": 5}, "bonds must be a list"),
    (None, {"n_sites": 3, "local_dim": 2}, "object with n_sites, local_dim and bonds"),
    (None, {"local_dim": 2, "bonds": [[0, 1]]}, "object with n_sites, local_dim and bonds"),
], ids=["plain-numbers", "string-entry", "ragged-rows", "fractional-dims", "fractional-n-sites",
        "fractional-local-dim", "negative-n-sites", "zero-n-sites", "one-level-sites",
        "string-endpoint", "fractional-endpoint", "top-level-list", "bonds-not-a-list",
        "missing-bonds", "missing-n-sites"])
def test_malformed_file_input_exits_2_and_names_the_field(model, lattice, field, tmp_path,
                                                          capsys):
    argv = ["gap", "--model", "heisenberg", "--json"]
    if model is not None:
        (tmp_path / "model.json").write_text(json.dumps(model))
        argv[2] = f"file:{tmp_path / 'model.json'}"
    if lattice is not None:
        (tmp_path / "lattice.json").write_text(json.dumps(lattice))
        argv += ["--lattice", f"file:{tmp_path / 'lattice.json'}"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert field in err


@pytest.mark.parametrize("argv", [
    ["--model", "file:{dir}"], ["--model", "heisenberg", "--config", "{dir}"],
], ids=["model", "config"])
def test_a_directory_given_as_a_file_exits_2(argv, tmp_path, capsys):
    code, out, err = run_cli(capsys, "gap", *(a.format(dir=tmp_path) for a in argv), "--json")
    assert code == 2 and out == ""
    assert str(tmp_path) in err


def test_malformed_grid_exits_2(capsys):
    code, _, err = run_cli(capsys, "xy-scan", "--gamma", "0:1", "--json")
    assert code == 2
    assert "grid" in err


def test_xy_scan_refuses_a_surface_that_cannot_fit_before_allocating_it(capsys):
    # 10^18 gamma points times the 41 default lambda points
    code, out, err = run_cli(capsys, "xy-scan", "--gamma", "0:1e12:1e-6", "--json")
    assert code == 2 and out == ""
    assert "41000000000000000000 points" in err


def test_xy_scan_counts_the_surface_not_each_grid(monkeypatch, capsys):
    from entgap import sdp, xy

    # 1001 x 2001 points of seven float64 values need 112 MB; each grid
    # alone would fit in 1 MiB
    monkeypatch.setattr(sdp, "_physical_memory", lambda: 2**20)
    monkeypatch.setattr(xy, "xy_gap_surface", _fail("xy_gap_surface"))
    code, out, err = run_cli(
        capsys, "xy-scan", "--gamma", "0:1:0.001", "--lambda", "0:2:0.001", "--json"
    )
    assert code == 2 and out == ""
    assert "2003001 points" in err


@pytest.mark.parametrize("grid", ["0:inf:1", "nan:1:0.5", "0:1:-0.5"])
def test_xy_scan_refuses_a_grid_off_its_form(grid, capsys):
    code, out, err = run_cli(capsys, "xy-scan", "--gamma", grid, "--json")
    assert code == 2 and out == ""
    assert "grid" in err


def test_temp_command_curve(capsys):
    code, out, _ = run_cli(
        capsys, "temp", "--model", "maxent:2", "--t-min", "0.2", "--t-max", "5",
        "--n-grid", "8", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["t_gap"] == pytest.approx(1 / np.log(3), abs=1e-6)
    assert len(payload["samples"]) == 8
    us = [s["U"] for s in payload["samples"]]
    assert all(b >= a - 1e-12 for a, b in zip(us, us[1:]))


def test_temp_csv_columns(capsys):
    code, out, _ = run_cli(
        capsys, "temp", "--model", "heisenberg", "--n-grid", "5", "--csv"
    )
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert header == ["T", "U", "ppt"]
    assert len(out.strip().splitlines()) == 6


def test_window_choi(capsys):
    code, out, _ = run_cli(
        capsys, "window", "--model", "choi", "--t-min", "1.0", "--t-max", "1.5",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    lo, hi = payload["window"]
    assert lo == pytest.approx(1.256, abs=0.01)
    assert hi == pytest.approx(1.271, abs=0.01)


def test_window_e_sep_override_empty(capsys):
    code, out, _ = run_cli(
        capsys, "window", "--model", "heisenberg", "--e-sep", "-1.0", "--json"
    )
    assert code == 0
    assert json.loads(out)["window"] is None


def test_window_pretty_names_the_grid_it_missed_on(capsys):
    """Choi's window [1.2555, 1.2714] is narrower than the default grid's
    6.5% step, so the default scan misses it; the pretty line says how
    the scan could have missed it while JSON and CSV keep their fields."""
    code, out, _ = run_cli(capsys, "window", "--model", "choi", "--pretty")
    assert code == 0
    first, last = out.strip().splitlines()
    assert first == (
        "no bound-entanglement window found on 80 log-spaced points in [0.02, 3] "
        "(ratio 1.0655 between points); a narrower window can fall between points"
    )
    assert json.loads(last)["window"] is None


def test_table1_csv_and_values(capsys):
    code, out, _ = run_cli(capsys, "table1", "--restarts", "8", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(-3.0, abs=1e-6)


def test_xy_scan_writes_csv(tmp_path, capsys):
    out_file = tmp_path / "surface.csv"
    code, out, _ = run_cli(
        capsys, "xy-scan", "--gamma", "1:1:1", "--lambda", "0:1:0.5",
        "--out", str(out_file), "--json",
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "gamma,lambda,e_sep,e0,e_max,gap,scaled_gap"
    assert len(lines) == 4


def test_search_2q_small(capsys):
    code, out, _ = run_cli(
        capsys, "search-2q", "--samples", "60", "--seed", "3", "--workers", "1",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["max_t"] <= payload["afm_reference"] + 1e-6
    assert payload["n_samples"] == 60


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_search_2q_refuses_fewer_than_one_worker(workers, capsys):
    code, out, err = run_cli(
        capsys, "search-2q", "--samples", "5", "--workers", workers, "--json"
    )
    assert code == 2 and out == ""
    assert f"workers must be >= 1, got {workers}" in err


def test_compare_temps_small(capsys):
    code, out, _ = run_cli(capsys, "compare-temps", "--dims", "3", "--json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["t_symproj"] == pytest.approx(1.4427, abs=1e-3)
    assert row["t_ces_bracket"][1] < row["t_symproj"]


def test_removed_compare_temps_samples_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compare-temps", "--dims", "3", "--samples", "10"])
    assert exc.value.code == 2
    assert "--samples" in capsys.readouterr().err


def test_run_config_validation():
    from entgap.cli import RunConfig

    with pytest.raises(ValueError):
        RunConfig(restarts=0)
    with pytest.raises(ValueError):
        RunConfig(sdp_tol=-1.0)


def test_gap_csv_format(capsys):
    code, out, _ = run_cli(capsys, "gap", "--model", "heisenberg", "--csv")
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert "e0" in header and "gap" in header and "gap_lower" in header


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "entgap.cfg"
    cfg.write_text("restarts = 8\nseed = 9\noutput = json\n")
    code, out, _ = run_cli(capsys, "gap", "--model", "heisenberg", "--config", str(cfg))
    assert code == 0
    json.loads(out)  # config set json output
    code, out2, _ = run_cli(
        capsys, "gap", "--model", "heisenberg", "--config", str(cfg), "--pretty"
    )
    assert code == 0
    assert "E_sep in [" in out2  # flag overrides the file


def test_config_file_output_outside_the_formats_exits_2(tmp_path, capsys):
    cfg = tmp_path / "entgap.cfg"
    cfg.write_text("output = xml\n")
    code, out, err = run_cli(capsys, "gap", "--model", "heisenberg", "--config", str(cfg))
    assert code == 2 and out == ""
    assert "xml" in err


def test_config_file_values_take_the_field_types():
    from entgap.cli import RunConfig, _run_config, build_parser

    args = build_parser().parse_args(["gap", "--model", "heisenberg", "--seed", "4"])
    file_cfg = {"seed": "9", "sdp_tol": "1e-6", "restarts": "8"}
    assert _run_config(args, file_cfg) == RunConfig(seed=4, sdp_tol=1e-6, restarts=8)
    assert _run_config(args, {}) == RunConfig(seed=4)


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "entgap.cfg"
    cfg.write_text("restart = 8\n")
    code, _, err = run_cli(capsys, "gap", "--model", "heisenberg", "--config", str(cfg))
    assert code == 2
    assert "restart" in err


def test_removed_dense_cutoff_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "entgap.cfg"
    cfg.write_text("dense_cutoff = 5000\n")
    code, out, err = run_cli(capsys, "gap", "--model", "heisenberg", "--config", str(cfg))
    assert code == 2 and out == ""
    assert "dense_cutoff" in err


@pytest.mark.parametrize("grid", [
    ["--t-min", "3.0", "--t-max", "0.02"],
    ["--t-min", "0.5", "--t-max", "0.5"],
    ["--t-min", "0", "--t-max", "3.0"],
    ["--n-grid", "0"],
    ["--n-grid", "1"],
    ["--t-max", "inf"],
    ["--t-min", "nan"],
], ids=["reversed", "empty", "zero", "no-points", "one-point", "infinite", "nan"])
def test_window_refuses_a_degenerate_grid(grid, capsys):
    code, out, err = run_cli(
        capsys, "window", "--model", "choi", "--e-sep", "0.05", *grid, "--json"
    )
    assert code == 2 and out == ""
    assert "t_min < t_max" in err


@pytest.mark.parametrize("argv,message", [
    (["window", "--e-sep", "nan"], "e_sep must be finite, got nan"),
    (["window", "--e-sep", "inf"], "e_sep must be finite, got inf"),
    (["window", "--e-sep", "0.05", "--refine-tol", "0"],
     "refine_tol must be finite and positive, got 0.0"),
    (["window", "--e-sep", "0.05", "--refine-tol", "nan"],
     "refine_tol must be finite and positive, got nan"),
    (["temp", "--t-min", "nan"], "temperatures must be finite and positive, got nan"),
    (["temp", "--t-max", "inf"], "temperatures must be finite and positive, got inf"),
    (["temp", "--t-min", "-1"], "temperatures must be finite and positive, got -1.0"),
    (["temp", "--n-grid", "0"], "--n-grid must be >= 1, got 0"),
], ids=["window-e-sep-nan", "window-e-sep-inf", "window-refine-tol-zero",
        "window-refine-tol-nan", "temp-t-min-nan", "temp-t-max-inf", "temp-t-min-negative",
        "temp-no-points"])
def test_thermal_flag_out_of_range_exits_2_and_names_the_value(argv, message, capsys):
    command, *flags = argv
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, command, "--model", "choi", "--restarts", "4", *flags,
                                 "--json")
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("argv,models", [
    (["temp", "--model", "choi", "--restarts", "4"], ["choi"]),
    (["window", "--model", "choi", "--restarts", "4"], ["choi"]),
    (["compare-temps", "--dims", "3"], ["maxent:3", "symproj:3", "ces:3"]),
], ids=["temp", "window", "compare-temps"])
def test_thermal_commands_decompose_each_hamiltonian_once(argv, models, monkeypatch, capsys):
    """Every dense decomposition the command makes of one of its
    Hamiltonians, through ``eig`` or ``np.linalg.eigvalsh``, is counted
    by matching the decomposed matrix against the Hamiltonian's."""
    from entgap import cli, operators, thermo
    from entgap.models import from_identifier

    matrices = [from_identifier(m).matrix for m in models]
    counts = [0] * len(models)
    real_eigvalsh = np.linalg.eigvalsh

    def count(a):
        for i, m in enumerate(matrices):
            counts[i] += np.shape(a) == m.shape and np.array_equal(a, m)

    def counting_eig(op):
        count(op.matrix)
        return operators.eig(op)

    def counting_eigvalsh(a, *args, **kwargs):
        count(a)
        return real_eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    for module in (cli, thermo):
        monkeypatch.setattr(module, "eig", counting_eig, raising=False)
    code, _, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    assert counts == [1] * len(models)


def test_window_csv_row(capsys):
    code, out, _ = run_cli(
        capsys, "window", "--model", "heisenberg", "--e-sep", "-1.0", "--csv"
    )
    assert code == 0
    assert out.splitlines() == ["model,e_sep_reference,t_low,t_high", "heisenberg,-1.0,,"]


def test_search_2q_csv_row(capsys):
    code, out, _ = run_cli(
        capsys, "search-2q", "--samples", "20", "--seed", "3", "--workers", "1",
        "--csv",
    )
    assert code == 0
    header, row, *rest = out.splitlines()
    assert rest == []
    fields = dict(zip(header.split(","), row.split(",")))
    assert "schema" not in fields
    assert fields["n_samples"] == "20"
    assert float(fields["max_t"]) <= float(fields["afm_reference"]) + 1e-6


# the RunConfig settings that have flags, and dense_cutoff, a removed setting
# whose flag no command accepts
SETTINGS = ("seed", "restarts", "sdp_tol", "bisect_tol", "dense_cutoff")
SETTING_VALUES = {"seed": "5", "restarts": "5", "sdp_tol": "1e-6", "bisect_tol": "1e-6",
                  "dense_cutoff": "5000"}
# the RunConfig settings each command reads; the parser accepts exactly these
READS = {
    "gap": ("seed", "restarts", "sdp_tol"),
    "temp": ("seed", "restarts", "sdp_tol", "bisect_tol"),
    "window": ("seed", "restarts"),
    "table1": ("seed", "restarts"),
    "table2": ("seed", "restarts"),
    "search-2q": ("seed",),
    "compare-temps": ("seed", "sdp_tol"),
    "xy-scan": (),
}
REQUIRED = {"gap": ["--model", "heisenberg"], "temp": ["--model", "heisenberg"],
            "window": ["--model", "heisenberg"]}
PAIRS = [(cmd, s) for cmd in READS for s in SETTINGS]


@pytest.mark.parametrize("command,setting", [p for p in PAIRS if p[1] in READS[p[0]]])
def test_read_setting_is_accepted(command, setting):
    from entgap.cli import RunConfig, _run_config, build_parser

    flag = "--" + setting.replace("_", "-")
    argv = [command, *REQUIRED.get(command, []), flag, SETTING_VALUES[setting]]
    cfg = _run_config(build_parser().parse_args(argv), {})
    kind = type(getattr(RunConfig, setting))
    assert getattr(cfg, setting) == kind(SETTING_VALUES[setting])


@pytest.mark.parametrize("command,setting", [p for p in PAIRS if p[1] not in READS[p[0]]])
def test_unread_setting_is_a_usage_error(command, setting, capsys):
    flag = "--" + setting.replace("_", "-")
    with pytest.raises(SystemExit) as exc:
        main([command, *REQUIRED.get(command, []), flag, SETTING_VALUES[setting]])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gap", "--model", "heisenberg", "--restarts", "4"],
    ["temp", "--model", "heisenberg", "--n-grid", "4", "--restarts", "4"],
    ["window", "--model", "heisenberg", "--e-sep", "-1.0", "--n-grid", "8"],
    ["table1", "--restarts", "4"],
    ["table2", "--restarts", "2"],
    ["xy-scan", "--gamma", "0:1:0.5", "--lambda", "0:1:0.5"],
    ["search-2q", "--samples", "20", "--workers", "1"],
    ["compare-temps", "--dims", "3"],
], ids=lambda argv: argv[0])
def test_pretty_ends_with_the_json_line(argv, capsys):
    code, pretty, _ = run_cli(capsys, *argv, "--pretty")
    assert code == 0
    code, as_json, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    assert as_json.count("\n") == 1
    assert pretty.splitlines()[-1] + "\n" == as_json


def test_temp_bisect_tol_sets_both_gap_temperatures(capsys):
    from entgap.models import heisenberg_pair
    from entgap.operators import eig
    from entgap.thermo import entanglement_gap_temperature, scaled_gap_temperature

    code, out, _ = run_cli(
        capsys, "temp", "--model", "heisenberg", "--bisect-tol", "0.05", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    w, e_sep = eig(heisenberg_pair()).eigenvalues, payload["e_sep_upper"]
    assert payload["t_gap"] == entanglement_gap_temperature(w, e_sep, tol=0.05)
    assert payload["t_gap_scaled"] == scaled_gap_temperature(w, e_sep, tol=0.05)
    assert payload["t_gap"] != entanglement_gap_temperature(w, e_sep)


def test_config_key_the_command_does_not_read_is_accepted(tmp_path, capsys):
    cfg = tmp_path / "entgap.cfg"
    cfg.write_text("bisect_tol = 1e-6\nrestarts = 4\n")
    code, out, _ = run_cli(
        capsys, "gap", "--model", "heisenberg", "--config", str(cfg), "--json"
    )
    assert code == 0
    assert json.loads(out)["e0"] == pytest.approx(-3.0, abs=1e-9)
