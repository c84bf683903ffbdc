"""Config schema validation, report formatting, and end-to-end CLI commands."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from qtoboggan import cli
from qtoboggan.errors import ConfigError, IllConditionedS, IncompleteBasisWarning, SchemaMismatch


def base_config(**extra):
    cfg = {
        "version": 1,
        "command": "spectrum",
        "model": {
            "ell": 0.0,
            "omega": 0.0,
            "coeffs": [[2, 1.0, 0.0]],
            "winding": 0,
            "epsilon": 0.5,
        },
        "grid": {"half_width": 8.0, "n": 240},
        "seed": 3,
    }
    cfg.update(extra)
    return cfg


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_python(*args, **env):
    """Run `python -W ignore *args` on this checkout's package; returns the process."""
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, "-W", "ignore", *args],
                          env=env, capture_output=True, text=True, timeout=300)


# ---------------------------------------------------------------------------
# schema


def test_missing_version_is_schema_mismatch():
    cfg = base_config()
    del cfg["version"]
    with pytest.raises(SchemaMismatch):
        cli.parse_config_dict(cfg)


def test_wrong_version_is_schema_mismatch():
    with pytest.raises(SchemaMismatch):
        cli.parse_config_dict(base_config(version=2))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda c: c.update(banana=1),
        lambda c: c["grid"].update(spacing=0.1),
        lambda c: c.update(command="fly"),
        lambda c: c.update(tolerances={"filter_im": -1.0}),
        lambda c: c.update(seed="seven"),
        lambda c: c.update(output_dir=7),
        lambda c: c.update(shoot={"warp": 9}),
        lambda c: c.update(shoot={"scan": {"start": 0.0, "stop": 1.0, "count": 1}}),
        lambda c: c.update(tolerances={"residul": 1e-30}),
        lambda c: c.update(version=True),
        lambda c: c.update(version=1.0),
        lambda c: c.update(shoot={"guesses": ["0.9", 2.8]}),
        lambda c: c.update(shoot={"guesses": [[0.9, 0.0, 1.0]]}),
        lambda c: c.update(shoot={"guesses": 2.8}),
        lambda c: c.update(shoot={"scan": {"start": 0.0, "count": 5}}),
        lambda c: c.pop("model"),
        lambda c: c["grid"].pop("n"),
    ],
)
def test_malformed_sections_rejected(mutate):
    cfg = base_config()
    mutate(cfg)
    with pytest.raises(ConfigError):
        cli.parse_config_dict(cfg)


def test_guess_forms_accepted():
    cfg = base_config(
        shoot={"guesses": [1.5, [2.0, 0.5]], "root_tol": 1e-9}
    )
    run = cli.parse_config_dict(cfg)
    assert run.guesses == [complex(1.5, 0.0), complex(2.0, 0.5)]
    assert run.shoot_cfg.root_tol == 1e-9


def test_tolerances_merge_with_defaults():
    run = cli.parse_config_dict(base_config(tolerances={"compare_rel": 0.01}))
    assert run.tolerances["compare_rel"] == 0.01
    assert run.tolerances["filter_im"] == cli.DEFAULT_TOLERANCES["filter_im"]


def test_override_paths():
    raw = base_config()
    cli._apply_override(raw, "grid.n=500")
    cli._apply_override(raw, "model.epsilon=0.25")
    cli._apply_override(raw, "tolerances.compare_rel=1e-4")
    cli._apply_override(raw, "output_dir=out/x")  # not JSON: kept as the string
    assert raw["grid"]["n"] == 500
    assert raw["model"]["epsilon"] == 0.25
    assert raw["tolerances"]["compare_rel"] == 1e-4
    assert raw["output_dir"] == "out/x"
    with pytest.raises(ConfigError):
        cli._apply_override(raw, "no-equals-sign")
    with pytest.raises(ConfigError):
        cli._apply_override(raw, "grid.n.deep=1")


@pytest.mark.parametrize(
    "raw, overrides",
    [
        (base_config(grid=5), []),
        (base_config(model=5), []),
        (base_config(shoot=[1]), []),
        (base_config(tolerances=[1]), []),
        (base_config(shoot={"scan": 7}), []),
        (base_config(), ["grid=3"]),
        ([1], ["a.b=1"]),
        ([1], []),
    ],
    ids=["grid", "model", "shoot", "tolerances", "shoot.scan", "override-grid", "list-root",
         "list-root-alone"],
)
def test_non_object_section_exits_4(tmp_path, raw, overrides):
    argv = ["--config", write_config(tmp_path, raw), "--out", str(tmp_path / "out")]
    for spec in overrides:
        argv += ["--override", spec]
    assert cli.main(argv) == 4


@pytest.mark.parametrize(
    "override",
    [
        "shoot.max_iter=2.5",
        "shoot.max_iter=true",
        "grid.n=400.5",
        "model.winding=true",
        "model.winding=1.5",
        "shoot.scan.count=43.5",
        "seed=true",
    ],
)
def test_non_integer_in_an_integer_field_exits_4(tmp_path, capsys, override):
    # each used to be truncated, read as 1, or left to crash later with exit 1
    config = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "harmonic_line.json")
    argv = ["--config", config, "--command", "shoot", "--override", override,
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 4
    assert "must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override",
    [
        "tolerances.residual=true",
        "grid.half_width=true",
        "model.epsilon=true",
        "shoot.root_tol=true",
        "shoot.phase_resolution=true",
        "shoot.phase_resolution=null",
        "shoot.scan.start=true",
        "model.omega=true",
        "model.coeffs=[[2, true, 0.0]]",
        "shoot.guesses=[true, 2.8]",
        "shoot.guesses=[[true, false]]",
    ],
)
def test_bool_in_a_real_field_exits_4(tmp_path, capsys, override):
    # each used to run as 1.0: tolerances.residual=true moved the gate to 1.0
    config = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "harmonic_line.json")
    argv = ["--config", config, "--command", "shoot", "--override", override,
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 4
    assert "must be a real number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, command, override",
    [
        ("cubic_winding1.json", "shoot", "shoot.root_tol=1e400"),
        ("harmonic_line.json", "spectrum", "grid.half_width=1e400"),
        ("cubic_winding1.json", "compare", "tolerances.compare_rel=Infinity"),
        # an integer literal too large for a float
        ("harmonic_line.json", "spectrum", "grid.half_width=1" + "0" * 400),
        ("harmonic_line.json", "shoot", "grid.n=1" + "0" * 400),
    ],
    ids=["root_tol", "half_width", "compare_rel", "half_width_integer", "n_integer"],
)
def test_non_finite_real_exits_4(tmp_path, capsys, config, command, override):
    # JSON 1e400 reads as inf: root_tol=1e400 returned the secant's starting
    # points as roots, half_width=1e400 failed in the eigensolver (exit 3), an
    # infinite compare_rel was written to compare.json as bare Infinity, and
    # n = 10^400 raised OverflowError in the grid step, whatever the command (exit 1)
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", config)
    argv = ["--config", path, "--command", command, "--override", override,
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 4
    assert "must be a finite real number" in capsys.readouterr().err


def test_root_tol_of_one_exits_4(tmp_path, capsys):
    # the normalized mismatch never exceeds 1, so at root_tol=1 every guess
    # passed at its second secant point: this run wrote 2.0003, 6.0007 and
    # 9.50105, the perturbed guesses, to roots.csv and exited 0
    config = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "cubic_winding1.json")
    argv = ["--config", config, "--command", "shoot", "--override", "shoot.root_tol=1",
            "--override", "shoot.guesses=[2.0, 6.0, 9.5]", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 4
    assert "root_tol must lie in (0, 1)" in capsys.readouterr().err
    assert not (tmp_path / "out" / "roots.csv").exists()


def test_negative_seed_exits_4(tmp_path, capsys):
    # numpy.random.default_rng(-1) used to raise ValueError out of validate (exit 1)
    config = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "harmonic_line.json")
    argv = ["--config", config, "--command", "validate", "--override", "seed=-1",
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 4
    assert "seed must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override", ["shoot.gamma_max=1.0", "shoot.seed_ratio=1e12", "shoot.steps=800"]
)
def test_removed_shoot_keys_exit_4(tmp_path, capsys, override):
    # each half-path ends where the WKB depth reaches one fixed seed ratio, so
    # neither an explicit truncation angle nor a ratio can be set; and
    # phase_resolution alone sets the node density, so neither can a step count
    config = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "harmonic_line.json")
    argv = ["--config", config, "--command", "shoot", "--override", override,
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 4
    assert "unknown shoot keys" in capsys.readouterr().err


@pytest.mark.parametrize(
    "coeffs, message",
    [
        ("[[2.5, 1.0, 0.0]]", "model.coeffs power must be an integer"),
        ("[[true, 1.0, 0.0]]", "model.coeffs power must be an integer"),
        ("[[2, 1.0, 0.0], [2, 0.5, 0.0]]", "model.coeffs lists power 2 twice"),
    ],
)
def test_bad_coeffs_power_exits_4(tmp_path, capsys, coeffs, message):
    # 2.5 used to run as x^2, true as a linear term, and a repeated power kept its last entry
    config = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "harmonic_line.json")
    argv = ["--config", config, "--command", "shoot", "--override", f"model.coeffs={coeffs}",
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 4
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, override, message",
    [
        (command, "model.coeffs=[[330, 1.0, 0.0]]", "rectified potential is non-finite")
        for command in ("spectrum", "metric", "validate", "compare")
    ]
    + [
        ("spectrum", "model.winding=200", "weight matrix is singular"),
        # U = 0 never grows: no half-path end reaches the seed ratio
        ("shoot", "model.coeffs=[]", "cannot reach a seed ratio of 1e+12 before the angle cap"),
        ("shoot", "model.winding=200", "half-path needs an overflowing count of integration steps"),
        # its 145-digit step count used to be printed in full
        ("shoot", "model.coeffs=[[330, 1.0, 0.0]]",
         "right half-path needs 6.93e+144 integration steps"),
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_out_of_range_model_values_exit_4(tmp_path, capsys, command, override, message):
    # x^330 overflows on the grid: spectrum, metric and validate used to hand the
    # non-finite H to ?geev and exit 3 (solver error), and numpy's overflow
    # warnings came before the config error, which is now stderr's one line
    config = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "harmonic_line.json")
    argv = ["--config", config, "--command", command, "--override", override,
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize(
    "half_width, code",
    [("1e160", 4), ("1e-200", 4), ("9.0", 0)],
    ids=["h_squared_overflows", "h_squared_underflows", "harmonic_own"],
)
def test_extreme_half_width_exits_4(tmp_path, capsys, half_width, code):
    # finite half-widths whose h*h overflows or underflows used to raise
    # OverflowError or ZeroDivisionError in build_operators (exit 1)
    config = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "harmonic_line.json")
    argv = ["--config", config, "--command", "spectrum", "--override",
            f"grid.half_width={half_width}", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == code
    assert ("h*h or 2/h^2 is not a positive finite float" in capsys.readouterr().err) == (code == 4)


def test_out_directory_that_cannot_be_created_exits_4(tmp_path, capsys):
    # os.makedirs under a regular file used to raise NotADirectoryError (exit 1)
    blocker = tmp_path / "file"
    blocker.write_text("")
    target = str(blocker / "out")
    assert cli.main(["--config", write_config(tmp_path, base_config()), "--out", target]) == 4
    assert f"cannot create output directory {target!r}" in capsys.readouterr().err


def test_commands_missing_their_sections_exit_4(tmp_path, capsys):
    no_grid = base_config()
    del no_grid["grid"]
    no_guesses = base_config(command="compare", shoot={"guesses": []})
    runs = [
        (no_grid, "spectrum", "needs a 'grid' section"),
        (base_config(), "shoot", "needs a 'shoot' section"),
        (no_guesses, "compare", "needs shoot.guesses"),
    ]
    for cfg, command, message in runs:
        path = write_config(tmp_path, cfg)
        assert cli.main(["--config", path, "--command", command, "--out", str(tmp_path)]) == 4
        assert message in capsys.readouterr().err


def test_run_without_a_command_raises_config_error(tmp_path):
    cfg = base_config()
    del cfg["command"]
    config = cli.parse_config_dict(cfg)
    with pytest.raises(ConfigError, match="no command given"):
        cli.run(config, out_dir=str(tmp_path))
    with pytest.raises(ConfigError, match="unknown command 'bogus'"):
        cli.run(config, command="bogus", out_dir=str(tmp_path))


# ---------------------------------------------------------------------------
# report rendering


def test_report_render_format():
    text = cli.report_render({"quasiH": 1.23456789012e-9, "cond_S": 5.0})
    lines = text.splitlines()
    assert lines[0].split() == ["quantity", "value"]
    assert set(lines[1]) == {"-"}
    assert lines[2].split() == ["quasiH", "1.23456789e-09"]
    assert lines[3].split() == ["cond_S", "5"]
    assert text == cli.report_render({"quasiH": 1.23456789012e-9, "cond_S": 5.0})


def test_report_render_empty_is_header_only():
    lines = cli.report_render({}).splitlines()
    assert len(lines) == 2


# ---------------------------------------------------------------------------
# end-to-end commands


def test_spectrum_command_and_determinism(tmp_path):
    path = write_config(tmp_path, base_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["--config", path, "--out", str(out1)]) == 0
    assert cli.main(["--config", path, "--out", str(out2)]) == 0
    for name in ("spectrum.csv", "residuals.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    residuals = json.loads((out1 / "residuals.json").read_text())
    assert residuals["n"] == 240
    assert residuals["max_offdiag_gram"] < 1e-8
    assert residuals["discarded_modes"] >= 0


@pytest.mark.parametrize("name, n", [("harmonic_line", 400), ("cubic_winding1", 300)])
def test_spectrum_csv_holds_each_modes_sigma_on_unit_vectors(tmp_path, name, n):
    # each mode's sigma on unit vectors, not the 1 that normalization sets
    from qtoboggan import spectra

    config = os.path.join(ROOT, "configs", f"{name}.json")
    out = tmp_path / "s"
    argv = ["--config", config, "--command", "spectrum", "--out", str(out),
            "--override", f"grid.n={n}"]
    assert cli.main(argv) == 0
    with open(out / "spectrum.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    sigma = np.array([complex(float(r["sigma_re"]), float(r["sigma_im"])) for r in rows])
    assert np.all(np.abs(sigma) >= spectra.SIGMA_CERTIFY_FLOOR)
    if name == "harmonic_line":  # W = I: unit kets overlap by less than 1, and unevenly
        assert len(set(sigma)) > 1 and np.abs(sigma).max() < 1.0


@pytest.mark.filterwarnings("ignore::qtoboggan.errors.IncompleteBasisWarning")
def test_metric_command(tmp_path, capsys):
    path = write_config(tmp_path, base_config(command="metric"))
    out = tmp_path / "m"
    assert cli.main(["--config", path, "--out", str(out)]) == 0
    for name in ("theta.bin", "theta.bin.txt", "S.bin", "diagnostics.json"):
        assert (out / name).exists()
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["quasiH"] < 1e-8
    # the table lists diagnostics.json's keys in build_metric's order (the file
    # sorts them), each value to 10 significant digits
    order = ["quasiH", "quasiW", "hermiticity", "min_eig", "cond_S", "cond_Theta"]
    assert sorted(diag) == sorted(order)
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
    assert rows == [[key, format(diag[key], ".10g")] for key in order]


@pytest.mark.filterwarnings("ignore::qtoboggan.errors.IncompleteBasisWarning")
def test_metric_failing_its_limits_exits_2(tmp_path, capsys):
    # the steep winding-1 cubic on a coarse grid: an indefinite, non-intertwining Theta
    config = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "cubic_winding1.json")
    out = tmp_path / "m"
    argv = ["--config", config, "--command", "metric", "--out", str(out), "--override", "grid.n=200"]
    assert cli.main(argv) == 2
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["quasiH"] > 1e-8 and diag["min_eig"] < 0
    assert (out / "theta.bin").exists() and (out / "S.bin").exists()
    err = capsys.readouterr().err
    assert "quasiH" in err and "min_eig" in err


def test_spectrum_of_spurious_modes_alone_exits_3(tmp_path, capsys):
    # a non-PT winding-1 cubic (c3 = 0.3 + i) at n = 300: its only real modes
    # are two box-top ones (-3.5e5, 1.1e6) with residuals 9e-8 and 4e-7,
    # which spectrum used to write as the whole spectrum
    config = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "cubic_winding1.json")
    out = tmp_path / "s"
    argv = ["--config", config, "--command", "spectrum", "--out", str(out),
            "--override", "grid.n=300", "--override", "model.coeffs=[[3, 0.3, 1.0]]"]
    assert cli.main(argv) == 3
    assert "no modes pass" in capsys.readouterr().err
    assert not (out / "spectrum.csv").exists()


def test_shoot_command(tmp_path):
    cfg = base_config(
        command="shoot",
        shoot={
            "guesses": [0.9],
            "root_tol": 1e-9,
            "scan": {"start": 0.5, "stop": 1.5, "count": 5},
        },
    )
    del cfg["grid"]
    path = write_config(tmp_path, cfg)
    out = tmp_path / "s"
    assert cli.main(["--config", path, "--out", str(out)]) == 0
    roots = (out / "roots.csv").read_text().splitlines()
    assert roots[0] == "index,re_E,im_E"
    assert float(roots[1].split(",")[1]) == pytest.approx(1.0, abs=1e-7)
    scan = (out / "scan.csv").read_text().splitlines()
    assert scan[0] == "re_E,im_E,abs_F"
    assert len(scan) == 6


def test_shoot_without_a_scan_spans_the_roots(tmp_path):
    cfg = base_config(command="shoot", shoot={"guesses": [0.9, 2.8], "root_tol": 1e-9})
    del cfg["grid"]
    out = tmp_path / "s"
    assert cli.main(["--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    with open(out / "roots.csv", newline="") as fh:
        roots = [float(row["re_E"]) for row in csv.DictReader(fh)]
    with open(out / "scan.csv", newline="") as fh:
        energies = [float(row["re_E"]) for row in csv.DictReader(fh)]
    assert roots == pytest.approx([1.0, 3.0], abs=1e-7)
    assert len(energies) == 101
    assert (energies[0], energies[-1]) == (min(roots) - 1.0, max(roots) + 1.0)


def test_compare_command_pass_and_fail(tmp_path):
    cfg = base_config(
        command="compare",
        shoot={"guesses": [0.9, 2.8], "root_tol": 1e-9},
    )
    path = write_config(tmp_path, cfg)
    out = tmp_path / "c"
    assert cli.main(["--config", path, "--out", str(out)]) == 0
    payload = json.loads((out / "compare.json").read_text())
    assert payload["compared_modes"] == 2
    assert payload["max_rel_delta"] < 1e-3
    # the same run against an unmeetable tolerance reports failure via exit 2
    code = cli.main(
        ["--config", path, "--out", str(tmp_path / "c2"),
         "--override", "tolerances.compare_rel=1e-12"]
    )
    assert code == 2


def compare_config(tmp_path, guesses, **shoot):
    cfg = base_config(command="compare", shoot={"guesses": guesses, "root_tol": 1e-9, **shoot})
    return write_config(tmp_path, cfg)


def test_compare_pairs_roots_with_nearest_grid_modes(tmp_path):
    # roots 1 and 5 are compared with grid modes 1 and 5, not with 1 and 3
    path = compare_config(tmp_path, [0.9, 5.2])
    out = tmp_path / "c"
    assert cli.main(["--config", path, "--out", str(out)]) == 0
    payload = json.loads((out / "compare.json").read_text())
    assert payload["compared_modes"] == payload["requested_modes"] == 2
    assert payload["unmatched_guesses"] == []
    assert payload["max_rel_delta"] < 1e-3
    rows = (out / "delta.csv").read_text().splitlines()
    assert rows[0] == "index,re_E_grid,re_E_shoot,abs_delta,rel_delta"
    assert [round(float(r.split(",")[1])) for r in rows[1:]] == [1, 5]


@pytest.mark.filterwarnings("ignore::qtoboggan.errors.NoConvergenceWarning")
def test_compare_names_dropped_guesses(tmp_path, capsys):
    path = compare_config(tmp_path, [0.9, 2.8, 40], max_iter=3)
    out = tmp_path / "c"
    assert cli.main(["--config", path, "--out", str(out)]) == 2
    payload = json.loads((out / "compare.json").read_text())
    assert payload["requested_modes"] == 3
    assert payload["compared_modes"] < 3
    dropped = [item["guess"] for item in payload["unmatched_guesses"]]
    assert [40.0, 0.0] in dropped
    assert len(dropped) == 3 - payload["compared_modes"]
    assert "40+0j" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::qtoboggan.errors.NoConvergenceWarning")
def test_compare_with_nothing_to_compare_exits_2(tmp_path):
    path = compare_config(tmp_path, [0.9], max_iter=1)
    out = tmp_path / "c"
    assert cli.main(["--config", path, "--out", str(out)]) == 2
    payload = json.loads((out / "compare.json").read_text())
    assert payload["compared_modes"] == 0
    assert payload["max_rel_delta"] is None
    assert payload["unmatched_guesses"][0]["root"] is None


def test_compare_two_roots_on_one_grid_mode_is_unmatched(tmp_path, monkeypatch):
    import numpy as np

    monkeypatch.setattr(cli, "_shoot_roots", lambda config: np.array([1.0, 1.0004], dtype=complex))
    path = compare_config(tmp_path, [0.9, 1.1])
    out = tmp_path / "c"
    assert cli.main(["--config", path, "--out", str(out)]) == 2
    payload = json.loads((out / "compare.json").read_text())
    assert payload["compared_modes"] == 1
    [item] = payload["unmatched_guesses"]
    assert item["guess"] == [1.1, 0.0] and item["root"] == [1.0004, 0.0]


def test_compare_unmatched_reason_names_plain_floats(tmp_path, monkeypatch):
    # numpy 2 scalars repr as np.float64(...), which tied the text to numpy's version
    import numpy as np

    monkeypatch.setattr(cli, "_shoot_roots", lambda config: np.array([1.0, 1.0004], dtype=complex))
    path = compare_config(tmp_path, [0.9, 1.1])
    out = tmp_path / "c"
    assert cli.main(["--config", path, "--out", str(out)]) == 2
    [item] = json.loads((out / "compare.json").read_text())["unmatched_guesses"]
    assert "np.float64(" not in item["reason"]
    words = item["reason"].split()
    assert words[:2] == ["grid", "mode"] and float(words[2]) == pytest.approx(1.0, abs=1e-3)
    assert item["reason"].endswith(" is already matched to root 1.0")


@pytest.mark.parametrize(
    "override, message",
    [
        ("tolerances.residual=1e-30", "has residual"),
        # the grid mode's Im is rounding-level, never below 1e-30 * |Re|
        ("tolerances.filter_im=1e-30", "is not real"),
    ],
    ids=["residual", "reality"],
)
def test_compare_mode_failing_its_residual_gate_exits_5(tmp_path, capsys, override, message):
    path = compare_config(tmp_path, [0.9])
    code = cli.main(["--config", path, "--out", str(tmp_path / "c"), "--override", override])
    assert code == 5
    assert message in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::qtoboggan.errors.IncompleteBasisWarning")
def test_validate_command(tmp_path):
    # no shoot section: both shoot_* checks are recorded as not applicable
    path = write_config(tmp_path, base_config(command="validate"))
    out = tmp_path / "v"
    assert cli.main(["--config", path, "--out", str(out)]) == 0
    payload = json.loads((out / "validate.json").read_text())
    assert payload["passed"] is True
    assert [item["name"] for item in payload["checks"]] == list(VALIDATE_CHECKS)
    assert not_applicable(payload["checks"]) == ["shoot_epsilon_independence",
                                                 "shoot_refinement_order"]
    assert all(item["pass"] for item in payload["checks"] if "not_applicable" not in item)


@pytest.mark.filterwarnings("ignore::qtoboggan.errors.IncompleteBasisWarning")
def test_validate_fails_a_root_found_at_one_shift_only(tmp_path, monkeypatch, capsys):
    import numpy as np

    from qtoboggan import shoot

    # the mode near 5 converges at epsilon = 0.5 but not at 2*epsilon, and the
    # one near 3 lands 30 away there, yet is the nearest partner of 3
    def roots(model, contour, cfg, search):
        found = [1.0, 3.0, 5.0] if contour.epsilon == 0.5 else [1.0, -27.0]
        return np.array(found, dtype=complex)

    monkeypatch.setattr(shoot, "find_eigenvalues", roots)
    path = compare_config(tmp_path, [0.9, 2.8, 5.2])
    out = tmp_path / "v"
    assert cli.main(["--config", path, "--out", str(out), "--command", "validate"]) == 2
    payload = json.loads((out / "validate.json").read_text())
    checks = {item["name"]: item for item in payload["checks"]}
    assert checks["shoot_epsilon_independence"]["pass"] is False
    assert checks["shoot_epsilon_independence"]["value"] == float("inf")
    err = capsys.readouterr().err
    assert "guess 5.2" in err
    assert "root 3+0j at epsilon has its nearest partner -27+0j at 2*epsilon" in err
    assert "root 1+0j" not in err


# validate's checks in order: name -> (tolerance key, or a fixed limit; comparison)
VALIDATE_CHECKS = {
    "pt_residual": ("pt", "<="),
    "max_mode_residual": ("residual", "<="),
    "gram_offdiag": ("gram", "<="),
    "completeness": ("completeness", "<="),
    "rebuild": ("rebuild", "<="),
    "kappa_gram_drift": ("kappa_invariance", "<="),
    "kappa_rebuild_drift": ("kappa_invariance", "<="),
    "ms_identity": ("ms_identity", "<="),
    "delta_identity": ("delta_identity", "<="),
    "quasiH": ("quasi_hermiticity", "<="),
    "quasiW": ("quasi_hermiticity", "<="),
    "theta_hermiticity": ("theta_hermiticity", "<="),
    "theta_min_eig": (0.0, ">"),
    "kappa_homogeneity": ("kappa_invariance", "<="),
    "degeneration_S_offdiag": ("w_identity_offdiag", "<="),
    "degeneration_theta": ("degeneration", "<="),
    "theta_similarity_spectrum": ("quasi_hermiticity", "<="),
    "shoot_epsilon_independence": ("epsilon_independence", "<="),
    "shoot_refinement_order": (6.0, ">"),
}


def run_validate(tmp_path, capsys, *overrides):
    """validate on a PT-symmetric winding-0 config with a shoot section.

    Returns (code, entries, stdout, stderr).
    """
    path = compare_config(tmp_path, [0.9, 2.8])
    out = tmp_path / "v"
    argv = ["--config", path, "--out", str(out), "--command", "validate"]
    for spec in overrides:
        argv += ["--override", spec]
    capsys.readouterr()
    code = cli.main(argv)
    payload = json.loads((out / "validate.json").read_text())
    assert payload["passed"] is (code == 0)
    captured = capsys.readouterr()
    return code, payload["checks"], captured.out, captured.err


@pytest.mark.filterwarnings("ignore::qtoboggan.errors.IncompleteBasisWarning")
def test_validate_lists_its_checks_in_order_with_their_limits(tmp_path, capsys):
    code, entries, stdout, _ = run_validate(tmp_path, capsys)
    assert code == 0
    assert [item["name"] for item in entries] == list(VALIDATE_CHECKS)
    tol = cli.load_config(str(tmp_path / "run.json")).tolerances
    lines = stdout.splitlines()
    assert len(lines) == len(entries)
    for item, line in zip(entries, lines):
        key, cmp = VALIDATE_CHECKS[item["name"]]
        assert item["limit"] == (tol[key] if isinstance(key, str) else key)
        word = "PASS" if item["pass"] else "FAIL"
        assert line == f"{word} {item['name']}: {item['value']:.6e} {cmp} {item['limit']:.6e}"


def failing(entries):
    """The names of the checks that failed, in order."""
    return [item["name"] for item in entries if item["pass"] is False]


def not_applicable(entries):
    """The names of the checks recorded as not applicable, in order."""
    return [item["name"] for item in entries if "not_applicable" in item]


@pytest.mark.filterwarnings("ignore::qtoboggan.errors.IncompleteBasisWarning")
@pytest.mark.parametrize(
    "model, overrides, failed, unmet",
    [
        # a real odd coefficient breaks PT balance; the spectrum stays real
        ({"coeffs": [[2, 1.0, 0.0], [1, 0.3, 0.0]]}, [], [],
         {"pt_residual": "needs PT balance; the model is not PT-symmetric"}),
        ({"coeffs": [[2, 1.0, 0.0], [1, 0.3, 0.0]]}, ["tolerances.gram=1e-30"], ["gram_offdiag"],
         {"pt_residual": "needs PT balance; the model is not PT-symmetric"}),
        # the winding-1 cubic at a small n; which of its checks fail is not pinned here
        ({"coeffs": [[3, 0.0, 1.0]], "winding": 1, "epsilon": 0.15},
         ["grid.half_width=2.2", "grid.n=120"], None,
         {name: "needs winding 0; the winding is 1"
          for name in ("degeneration_S_offdiag", "degeneration_theta")}),
    ],
    ids=["no_pt_balance", "no_pt_balance_failing", "winding_1"],
)
def test_validate_records_an_unmet_need_as_not_applicable(
    tmp_path, capsys, model, overrides, failed, unmet
):
    cfg = base_config(command="validate")
    cfg["model"].update(model)
    out = tmp_path / "v"
    argv = ["--config", write_config(tmp_path, cfg), "--out", str(out)]
    for spec in overrides:
        argv += ["--override", spec]
    code = cli.main(argv)
    payload = json.loads((out / "validate.json").read_text())
    entries = payload["checks"]
    assert [item["name"] for item in entries] == list(VALIDATE_CHECKS)
    # without shoot.guesses neither shoot_* check applies
    unmet = dict(unmet, **{name: "needs shooting guesses; the config has no shoot.guesses"
                           for name in ("shoot_epsilon_independence", "shoot_refinement_order")})
    tol = cli.load_config(argv[1], overrides=overrides).tolerances
    for item in entries:
        key = VALIDATE_CHECKS[item["name"]][0]
        assert item["limit"] == (tol[key] if isinstance(key, str) else key)
        if item["name"] in unmet:
            assert item == {"name": item["name"], "value": None, "limit": item["limit"],
                            "pass": None, "not_applicable": unmet[item["name"]]}
    assert not_applicable(entries) == [name for name in VALIDATE_CHECKS if name in unmet]
    if failed is not None:
        assert failing(entries) == failed
    # an unmet need is neither a pass nor a failure: only a failed check fails the run
    assert payload["passed"] is (not failing(entries))
    assert code == (0 if payload["passed"] else 2)
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("N/A ")] == [
        f"N/A {name}: {unmet[name]}" for name in VALIDATE_CHECKS if name in unmet
    ]


def test_validate_runs_on_past_a_failure(tmp_path, capsys):
    with pytest.warns(IncompleteBasisWarning):
        code, entries, stdout, _ = run_validate(tmp_path, capsys, "tolerances.gram=1e-30")
    assert code == 2
    assert [item["name"] for item in entries] == list(VALIDATE_CHECKS)
    assert failing(entries) == ["gram_offdiag"]
    assert stdout.splitlines()[2].startswith("FAIL gram_offdiag: ")


def test_validate_reports_a_self_orthogonal_full_set(tmp_path, capsys, monkeypatch):
    from qtoboggan import spectra
    from qtoboggan.errors import SelfOrthogonalMode

    solve, normalize = spectra.solve_generalized, spectra.normalize_biorthogonal
    raw = []

    def solve_and_keep(*args, **kwargs):
        raw.append(solve(*args, **kwargs))
        return raw[-1]

    def normalize_but_the_full_set(es, *args, **kwargs):
        if any(es is r for r in raw):
            raise SelfOrthogonalMode("mode 0 is self-orthogonal")
        return normalize(es, *args, **kwargs)

    with pytest.warns(IncompleteBasisWarning):
        code, entries, _, _ = run_validate(tmp_path, capsys)
    monkeypatch.setattr(spectra, "solve_generalized", solve_and_keep)
    monkeypatch.setattr(spectra, "normalize_biorthogonal", normalize_but_the_full_set)
    with pytest.warns(IncompleteBasisWarning):
        code_k, entries_k, stdout, stderr = run_validate(tmp_path, capsys)
    assert (code, code_k) == (0, 2)
    assert [item["name"] for item in entries_k] == list(VALIDATE_CHECKS)
    full_set = ["completeness", "rebuild", "kappa_rebuild_drift",
                "degeneration_S_offdiag", "degeneration_theta"]
    assert failing(entries_k) == full_set
    tol = cli.load_config(str(tmp_path / "run.json")).tolerances
    for item in entries_k:
        if item["name"] in full_set:
            assert item["value"] == float("inf")
            assert item["limit"] == tol[VALIDATE_CHECKS[item["name"]][0]]
        else:  # the retained set's checks, its kappa draw among them, do not move
            assert item == next(e for e in entries if e["name"] == item["name"])
    assert "FAIL completeness: inf <= 1.000000e-08" in stdout.splitlines()
    assert "validate: the full mode set cannot be normalized: mode 0 is self-orthogonal" in stderr


def test_validate_reports_an_ill_conditioned_full_set_metric(tmp_path, capsys, monkeypatch):
    from qtoboggan import metric

    build = metric.build_metric

    def build_but_on_the_full_set(es, *args, **kwargs):
        if es.m == es.pair.n:
            raise IllConditionedS("cond(S) above the threshold")
        return build(es, *args, **kwargs)

    monkeypatch.setattr(metric, "build_metric", build_but_on_the_full_set)
    with pytest.warns(IncompleteBasisWarning):
        code, entries, stdout, stderr = run_validate(tmp_path, capsys)
    assert code == 2
    assert [item["name"] for item in entries] == list(VALIDATE_CHECKS)
    assert failing(entries) == ["degeneration_S_offdiag", "degeneration_theta"]
    assert all(item["value"] == float("inf") for item in entries if not item["pass"])
    assert "FAIL degeneration_theta: inf <= 1.000000e-10" in stdout.splitlines()
    assert "validate: the full-set metric is ill-conditioned: cond(S) above the threshold" in stderr


@pytest.mark.filterwarnings("ignore::qtoboggan.errors.StepTooCoarseWarning")
def test_validate_fails_refinement_order_on_too_coarse_grids(tmp_path, capsys):
    # at phase_resolution 4 the config's own node grid, the coarsest of the
    # three, does not pass the integrator's phase gate, so no order is certified
    with pytest.warns(IncompleteBasisWarning):
        code, checks, _, stderr = run_validate(tmp_path, capsys, "shoot.phase_resolution=4")
    assert code == 2
    assert [item["name"] for item in checks] == list(VALIDATE_CHECKS)
    assert checks[-1] == {
        "name": "shoot_refinement_order", "value": 0.0, "limit": 6.0, "pass": False
    }
    assert "validate: refinement grid at phase_resolution 4: right half-path: " \
        "max local phase per step" in stderr


def test_validate_fails_refinement_order_over_the_node_budget(tmp_path, capsys):
    # about 28,000 nodes per half-path shoot; the finest refinement grid's
    # 111,823 are over the node budget, which fails the check and stops nothing else
    with pytest.warns(IncompleteBasisWarning):
        code, checks, _, stderr = run_validate(tmp_path, capsys, "shoot.phase_resolution=0.0016")
    assert code == 2
    assert [item["name"] for item in checks] == list(VALIDATE_CHECKS)
    assert failing(checks) == ["shoot_refinement_order"]
    assert checks[-1]["value"] == 0.0
    reasons = [line for line in stderr.splitlines() if line.startswith("validate: ")]
    assert reasons == ["validate: refinement grid at phase_resolution 0.0004: right half-path "
                       "needs 111,823 integration steps, over the budget of 100,000: this "
                       "potential is too steep to shoot along the spiral of this winding and "
                       "epsilon"]


def _heun_step_matrices(half, E):
    """Heun's second-order step matrices, I + h/2 (A0 + A1) + h^2/2 A1 A0, for RK4's."""
    h = half.dg
    A = np.zeros((2, 2, len(E), len(h) + 1), dtype=complex)  # y' = A y at each node
    A[0, 1] = 1.0
    A[1, 0] = half.cc[::2] * (half.U[::2] - E[:, np.newaxis])
    A[1, 1] = half.acc[::2]
    A0, A1 = A[..., :-1], A[..., 1:]
    step = h / 2 * (A0 + A1) + h**2 / 2 * np.einsum("ikbn,kjbn->ijbn", A1, A0)
    return np.eye(2).reshape(2, 2, 1, 1) + step


@pytest.mark.parametrize("name", ["harmonic_line", "cubic_winding1", "toboggan_branch"])
def test_refinement_order_certifies_rk4_and_catches_a_second_order_step(monkeypatch, name):
    from qtoboggan import shoot, validate

    config = cli.load_config(os.path.join(ROOT, "configs", f"{name}.json"))
    # RK4's error falls 16x per doubling of the nodes on each shooting config
    assert 12.0 < validate._refinement_order(validate.Inputs(config, None, None)) < 20.0
    monkeypatch.setattr(shoot, "_step_matrices", _heun_step_matrices)
    assert validate._refinement_order(validate.Inputs(config, None, None)) < 6.0


def test_validate_kappa_gram_check_catches_a_conjugation_slip(tmp_path, capsys, monkeypatch):
    from dataclasses import replace

    from qtoboggan import spectra

    def kappa_for_its_conjugate(es, kappa):
        # double-kets dressed by kappa where conj(kappa) belongs
        return replace(es, vectors=(es.right / kappa, es.left * kappa), phase=None)

    monkeypatch.setattr(spectra, "apply_kappa", kappa_for_its_conjugate)
    with pytest.warns(IncompleteBasisWarning):
        code, entries, _, _ = run_validate(tmp_path, capsys)
    assert code == 2
    assert [item["name"] for item in entries] == list(VALIDATE_CHECKS)
    # the full set's rebuild reads the same slip
    assert failing(entries) == ["kappa_gram_drift", "kappa_rebuild_drift"]
    assert {item["name"]: item["value"] for item in entries}["kappa_gram_drift"] > 0.1


def test_validate_similarity_check_fails_with_the_identity_for_theta(tmp_path, capsys, monkeypatch):
    import numpy as np

    from qtoboggan import metric

    residual = metric.theta_eigenvector_residual
    monkeypatch.setattr(
        metric, "theta_eigenvector_residual",
        lambda es, theta: residual(es, np.eye(es.pair.n)),
    )
    with pytest.warns(IncompleteBasisWarning):
        code, entries, _, _ = run_validate(tmp_path, capsys)
    assert code == 2
    assert [item["name"] for item in entries] == list(VALIDATE_CHECKS)
    assert failing(entries) == ["theta_similarity_spectrum"]
    assert {item["name"]: item["value"] for item in entries}["theta_similarity_spectrum"] > 1e-6


def test_validate_homogeneity_check_catches_a_conjugation_slip(tmp_path, capsys, monkeypatch):
    from dataclasses import replace

    import numpy as np

    from qtoboggan import metric

    build = metric.build_metric

    def kappa_for_its_conjugate(es, kappa=None):
        # a dressing with kappa where conj(kappa) belongs gives Theta[c] = c^2 Theta
        # at a uniform kappa = c, where the right one gives |c|^2 Theta
        result = build(es)
        if kappa is None:
            return result
        # Theta is linear in the stored matrix, whether that is Theta or Theta_r
        S, Theta = result.matrices
        return replace(result, matrices=(S, kappa[0] ** 2 * Theta))

    monkeypatch.setattr(metric, "build_metric", kappa_for_its_conjugate)
    with pytest.warns(IncompleteBasisWarning):
        code, entries, _, _ = run_validate(tmp_path, capsys)
    assert code == 2
    assert [item["name"] for item in entries] == list(VALIDATE_CHECKS)
    assert failing(entries) == ["kappa_homogeneity"]
    # |c|^2 |e^{2i phi} - 1| = 2.25 * 2 sin(0.7) at c = 1.5 e^{0.7i}
    hom = {item["name"]: item["value"] for item in entries}["kappa_homogeneity"]
    assert hom == pytest.approx(4.5 * np.sin(0.7), rel=1e-9)


@pytest.mark.filterwarnings("ignore::qtoboggan.errors.IncompleteBasisWarning")
def test_validate_builds_both_homogeneity_metrics_in_one_frame(tmp_path):
    # Theta[c 1] and Theta[1] both come from the real PT basis on this config:
    # their ratio is |c|^2 to rounding, far inside the 1e-12 limit
    config = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "harmonic_line.json")
    out = tmp_path / "v"
    assert cli.main(["--config", config, "--command", "validate", "--out", str(out)]) == 0
    checks = json.loads((out / "validate.json").read_text())["checks"]
    assert len(checks) == 19
    homogeneity = next(item for item in checks if item["name"] == "kappa_homogeneity")
    assert homogeneity["value"] <= 1e-14


@pytest.mark.filterwarnings("ignore::qtoboggan.errors.IncompleteBasisWarning")
def test_frame_route_commands_build_no_kets(tmp_path, monkeypatch):
    # on a PT-symmetric W = I pair spectrum and metric stay in the real frame
    # from the eigensolve to Theta; validate reads the kets, so it builds some
    from qtoboggan import spectra

    built = []
    to_kets = spectra._kets_from_frame
    monkeypatch.setattr(
        spectra, "_kets_from_frame", lambda Y, phase: built.append(Y.shape) or to_kets(Y, phase)
    )
    config = cli.load_config(write_config(tmp_path, base_config()))
    for command in ("spectrum", "metric"):
        assert cli.run(config, command=command, out_dir=str(tmp_path / command)) == 0
    assert built == []
    assert cli.run(config, command="validate", out_dir=str(tmp_path / "validate")) == 0
    assert built


def test_kappa_gram_check_passes_at_a_draw_the_dressed_comparison_failed(tmp_path):
    # seed 12 draws the kappa that read 1.0147e-12 against the 1e-12 limit when
    # es.gram was dressed by kappa_i / kappa_j; one BLAS thread fixes the rounding
    out = tmp_path / "v"
    proc = run_python(
        "-m", "qtoboggan.cli", "--config", os.path.join(ROOT, "configs", "harmonic_line.json"),
        "--command", "validate", "--override", "seed=12", "--out", str(out),
        OPENBLAS_NUM_THREADS="1",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    checks = json.loads((out / "validate.json").read_text())["checks"]
    drift = next(item for item in checks if item["name"] == "kappa_gram_drift")
    assert drift["pass"] and drift["value"] <= 1e-12


def test_exit_codes(tmp_path):
    path = write_config(tmp_path, base_config())
    # solver-domain failure: a complex x^2 coefficient breaks PT symmetry and
    # rotates every mode off the real axis, so the reality filter keeps none
    broken = base_config()
    broken["model"]["coeffs"] = [[2, 1.0, 0.5]]
    code = cli.main(
        ["--config", write_config(tmp_path, broken, "broken.json"),
         "--out", str(tmp_path / "x")]
    )
    assert code == 3
    # config-domain failure: unknown grid key
    code = cli.main(
        ["--config", path, "--out", str(tmp_path / "y"),
         "--override", "grid.banana=1"]
    )
    assert code == 4
    assert cli.main(["--config", str(tmp_path / "missing.json")]) == 4
    (tmp_path / "bad.json").write_text('{"version": 1,')
    assert cli.main(["--config", str(tmp_path / "bad.json")]) == 4


IMPORT_PROBE = """
import sys
from qtoboggan import cli
config = cli.load_config(sys.argv[1])
codes = [cli.run(config, command=c, out_dir=f"{sys.argv[2]}/{c}") for c in ("compare", "metric")]
heavy = ("scipy.integrate", "scipy.special", "scipy.optimize", "scipy.sparse")
print(codes, [m for m in heavy if m in sys.modules])
"""


def test_compare_and_metric_load_no_scipy_beyond_linalg(tmp_path):
    # each of these subpackages adds import time to every CLI process; the
    # shipped config runs at n=400
    config = os.path.join(ROOT, "configs", "harmonic_line.json")
    proc = run_python("-c", IMPORT_PROBE, config, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0] []"


NO_SCIPY_PROBE = """
import sys
from qtoboggan import cli
config = cli.load_config(sys.argv[1])
codes = [cli.run(config, command=c, out_dir=f"{sys.argv[2]}/{c}") for c in ("compare", "shoot")]
print(codes, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_compare_and_shoot_load_no_scipy(tmp_path):
    # the grid route of compare is inverse iteration on the bands and the
    # spiral route is numpy shooting, so neither needs scipy at all
    config = os.path.join(ROOT, "configs", "harmonic_line.json")
    proc = run_python("-c", NO_SCIPY_PROBE, config, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0] []"


NO_NUMPY_RANDOM_PROBE = """
import sys
from qtoboggan import cli
root = sys.argv[1]
loaded = []
for command, config, *overrides in (
    ("compare", "harmonic_line.json", "--override", "grid.n=900"),
    ("shoot", "cubic_winding1.json"),
):
    code = cli.main(["--config", f"{root}/configs/{config}", "--command", command,
                     "--out", f"{sys.argv[2]}/{command}", *overrides])
    loaded.append((code, "numpy.random" in sys.modules))
print(loaded)
"""


def test_compare_and_shoot_load_no_numpy_random(tmp_path):
    # numpy.random adds ~5 MB to the resident set of a process that draws nothing
    proc = run_python("-c", NO_NUMPY_RANDOM_PROBE, ROOT, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[(0, False), (0, False)]"


UNLOADED_PROBE = """
import sys
from qtoboggan import cli
loaded = []
for command in ("compare", "shoot", "spectrum", "metric"):
    code = cli.main(["--config", sys.argv[1], "--command", command,
                     "--out", f"{sys.argv[2]}/{command}"])
    loaded.append((command, code, [m for m in ("qtoboggan.metric", "qtoboggan.validate")
                                   if m in sys.modules]))
print(loaded)
"""


def test_commands_other_than_validate_leave_its_module_unloaded(tmp_path):
    # validate's table imports the metric layer; compare and shoot never need it
    config = os.path.join(ROOT, "configs", "harmonic_line.json")
    proc = run_python("-c", UNLOADED_PROBE, config, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str([
        ("compare", 0, []), ("shoot", 0, []), ("spectrum", 0, []),
        ("metric", 0, ["qtoboggan.metric"]),
    ])


def test_validate_from_the_command_line_runs_cli_once(tmp_path):
    # `-m qtoboggan.cli` runs cli.py as __main__, so any module importing
    # qtoboggan.cli would compile and run it a second time
    proc = run_python(
        "-X", "importtime", "-m", "qtoboggan.cli",
        "--config", os.path.join(ROOT, "configs", "harmonic_line.json"),
        "--command", "validate", "--override", "grid.n=150", "--out", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "qtoboggan.validate" in imported
    assert "qtoboggan.cli" not in imported


GRIDLESS_PROBE = """
import sys
from qtoboggan import cli
codes = [cli.main(["--config", sys.argv[1], "--command", c, "--out", sys.argv[2]])
         for c in ("metric", "validate")]
print(codes, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_metric_and_validate_without_a_grid_exit_4_before_loading_scipy(tmp_path):
    cfg = base_config()
    del cfg["grid"]
    proc = run_python("-c", GRIDLESS_PROBE, write_config(tmp_path, cfg), str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[4, 4] []"
    assert proc.stderr.count("needs a 'grid' section") == 2


BRANCH_PROBE = """
import json, sys
from qtoboggan import cli
code = cli.main(["--config", sys.argv[1], "--out", sys.argv[2]])
delta = json.load(open(sys.argv[2] + "/compare.json"))["max_rel_delta"]
print(code, delta, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_compare_on_the_branch_vehicle_meets_the_spiral(tmp_path):
    # ell = 0.3 at winding 1 (L = 1.9): the grid matches spiral shooting only
    # with the branch phase the spiral fixes; dropping it read 1.1e-2
    config = os.path.join(ROOT, "configs", "toboggan_branch.json")
    proc = run_python("-c", BRANCH_PROBE, config, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    code, delta, loaded = proc.stdout.splitlines()[-1].split(" ", 2)
    assert (code, loaded) == ("0", "[]")
    assert float(delta) < 1e-3


def test_shoot_past_the_node_budget_exits_4(tmp_path, capsys):
    # winding 3 would need 10,671,752,298 nodes (79.5 GiB) per half-path
    code = cli.main(
        ["--config", os.path.join(ROOT, "configs", "cubic_winding1.json"), "--command", "shoot",
         "--override", "model.winding=3", "--out", str(tmp_path)]
    )
    assert code == 4
    assert "10,671,752,298 integration steps" in capsys.readouterr().err
