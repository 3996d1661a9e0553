"""CLI contract: flags, exit codes, file formats, determinism, manifests."""

import argparse
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qndsim as q
import qndsim.cli
from qndsim import _lapack, checks
from qndsim.cli import build_parser, main

GAUSSIAN_FLAGS = ["--phi", "0.7854", "--probe-var", "0.25", "--signal", "gaussian:0,0.25"]


def read_csv(path):
    with open(path, "r", encoding="ascii") as handle:
        header = handle.readline().strip().split(",")
        rows = np.array(
            [[float(v) for v in line.split(",")] for line in handle if line.strip()]
        )
    return header, rows


def test_chain_writes_expected_files(tmp_path):
    out = tmp_path / "run"
    code = main(["chain", *GAUSSIAN_FLAGS, "--outcome", "0.0", "--out", str(out)])
    assert code == 0
    for name in ("homodyne.csv", "conditional_00.csv", "summary.json", "manifest.json"):
        assert (out / name).exists()

    summary = json.loads((out / "summary.json").read_text())
    assert summary["homodyne"]["variance"] == pytest.approx(0.5, abs=1e-3)
    assert summary["homodyne"]["integral"] == pytest.approx(1.0, abs=1e-8)
    assert summary["outcomes"][0]["raw_X"] == pytest.approx(0.0, abs=1e-12)

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "chain"
    assert manifest["tool_version"] == q.__version__
    produced = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert set(manifest["outputs"]) == produced

    header, rows = read_csv(out / "homodyne.csv")
    assert header == ["x0", "p"]
    # 17-significant-digit columns round-trip exactly through float()
    grid_step = rows[1, 0] - rows[0, 0]
    assert grid_step > 0


def test_chain_multiple_fixed_outcomes(tmp_path):
    out = tmp_path / "multi"
    code = main(["chain", *GAUSSIAN_FLAGS, "--outcome=-0.5,0.0,0.5", "--out", str(out)])
    assert code == 0
    assert (out / "conditional_02.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert [o["x0"] for o in summary["outcomes"]] == [-0.5, 0.0, 0.5]


def test_chain_manifest_records_transmittivity_and_squeeze_factor(tmp_path):
    phi = 0.6
    out = tmp_path / "optics"
    code = main(["chain", "--phi", str(phi), "--probe-var", "0.25", "--outcome", "0.0",
                 "--grid-n", "256", "--out", str(out)])
    assert code == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["phi"] == phi
    assert config["transmittivity"] == math.cos(phi) ** 2
    assert config["output_squeeze_factor"] == math.cos(phi)


def test_chain_degenerate_phase_exits_3(tmp_path, capsys):
    code = main(
        ["chain", "--phi", "1.6", "--probe-var", "0.25", "--outcome", "0.0",
         "--out", str(tmp_path / "bad")]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "degenerate" in err and "phi" in err


@pytest.mark.parametrize("flags", [
    ["--phi", "1.6", "--probe-var", "0.25", "--outcome", "0.0"],  # degenerate phase
    [*GAUSSIAN_FLAGS, "--outcome", "50"],  # null outcome, raised after p is computed
    ["--phi", "inf", "--probe-var", "0.25", "--outcome", "0.0"],  # sin(inf) is undefined
    # grids past 2**511, where squaring a point overflowed and exited 1 under -W error
    ["--phi", "0.7", "--probe-var", "1e307", "--outcome", "0"],
    ["--phi", "0.7", "--probe-var", "0.25", "--outcome", "0", "--signal", "gaussian:0,1e307"],
    ["--phi", "0.7", "--probe-var", "0.25", "--outcome", "0", "--signal", "cat:1,1e307"],
    ["--phi", "0.7", "--probe-var", "0.25", "--outcome", "0", "--grid-span", "1e160"],
    # grids too coarse to resolve the state, which wrote a vacuum variance of 0.27974
    # (--grid-span 1e3) and a homodyne variance 1e-3 off (--grid-n 16)
    ["--phi", "0.7", "--probe-var", "0.25", "--outcome", "0", "--grid-span", "1e3"],
    ["--phi", "0.7", "--probe-var", "0.25", "--outcome", "0", "--grid-n", "16"],
])
def test_chain_domain_error_writes_nothing(tmp_path, flags):
    out = tmp_path / "bad"
    assert main(["chain", *flags, "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("command, produced", [
    (["chain", *GAUSSIAN_FLAGS, "--outcome", "sample:100", "--seed", "3"],
     {"homodyne.csv", "samples.csv", "summary.json"}),
    (["sweep", "--mode", "closed", "--x-min", "0.5", "--x-max", "2", "--steps", "3"],
     {"sweep.csv"}),
    (["optimize", "--mode", "closed"], {"report.json"}),
    (["validate", "--suite", "pipeline"], {"report.json"}),
])
def test_manifest_lists_exactly_the_files_produced(tmp_path, command, produced):
    out = tmp_path / "run"
    assert main([*command, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command[0]
    assert manifest["seed"] == (3 if command[0] == "chain" else None)
    assert set(manifest["outputs"]) == produced
    assert {p.name for p in out.iterdir()} == produced | {"manifest.json"}


@pytest.mark.parametrize("command", [
    ["chain", *GAUSSIAN_FLAGS, "--outcome", "sample:010", "--seed", "3", "--grid-n", "256",
     "--grid-span", "6"],
    ["chain", "--phi", "0.7", "--probe-var", "0.25", "--outcome=-0.5,0", "--grid-n", "256"],
    ["sweep", "--mode", "closed", "--x-min", "0.5", "--x-max", "2", "--steps", "3"],
    ["optimize", "--mode", "closed", "--sigma-probe", "0.6"],
    ["validate", "--suite", "limits"],
    ["sweep", "--mode", "numeric", "--x-min", "0.5", "--x-max", "2", "--steps", "3",
     "--grid-n", "256"],  # records the unread --outcome-nodes default
])
def test_manifest_config_records_every_parsed_flag(tmp_path, command):
    argv = [*command, "--out", str(tmp_path / "run")]
    parser = build_parser()
    args = parser.parse_args(argv)
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in sub.choices[command[0]]._actions if a.option_strings}
    dests -= {"help", "out", "seed"}
    assert main(argv) == 0
    config = json.loads((tmp_path / "run" / "manifest.json").read_text())["config"]
    derived = {"transmittivity", "output_squeeze_factor"} if command[0] == "chain" else set()
    assert set(config) == dests | derived
    assert {dest: config[dest] for dest in dests} == {dest: getattr(args, dest) for dest in dests}


@pytest.mark.parametrize("signal, recorded", [
    ("gaussian:0,.25", "gaussian:0.0,0.25"),
    ("cat:1.8,2.025e-1", "cat:1.8,0.2025"),
])
def test_manifest_records_the_canonical_signal(tmp_path, signal, recorded):
    out = tmp_path / "run"
    assert main(["sweep", "--mode", "closed", "--x-min", "0.5", "--x-max", "2", "--steps", "3",
                 "--signal", signal, "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["signal"] == recorded


def test_out_naming_a_regular_file_exits_2(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert main(["sweep", "--mode", "closed", "--x-min", "0.5", "--x-max", "2",
                 "--steps", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert out.read_text() == "not a directory\n"


@pytest.mark.parametrize("flag", [["--outcome", "nan"], ["--outcome=-inf"]])
def test_chain_nonfinite_outcome_exits_3(tmp_path, capsys, flag):
    code = main(["chain", *GAUSSIAN_FLAGS, *flag, "--out", str(tmp_path / "bad")])
    assert code == 3
    assert "error: outcome x0 must be finite, got " in capsys.readouterr().err


def test_chain_huge_finite_outcome_exits_3_without_an_overflow_warning(tmp_path, capsys):
    # 1e308 / step overflows to inf in the spline evaluator; no warning may escape (it is
    # an error under pyproject's filter and under `python -W error`)
    out = tmp_path / "far"
    assert main(["chain", *GAUSSIAN_FLAGS, "--outcome=1e308", "--out", str(out)]) == 3
    assert "outcome density p(x0)=0.000e+00 at x0=1e+308" in capsys.readouterr().err
    assert not out.exists()


def test_chain_infinite_grid_span_exits_3_naming_the_grid(tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["chain", "--phi", "0.7", "--probe-var", "0.25", "--outcome", "0",
                     "--grid-span", "inf", "--out", str(tmp_path / "span")])
    assert code == 3
    assert "error: grid needs finite bounds and step, got [" in capsys.readouterr().err
    assert [str(w.message) for w in caught] == []
    assert not (tmp_path / "span").exists()


CHAIN_FLAGS = ["chain", "--phi", "0.7", "--probe-var", "0.25", "--outcome", "0"]


@pytest.mark.parametrize("argv", [
    [*CHAIN_FLAGS, "--grid-span", "1e3"],  # exited 0 with the vacuum's variance 0.27974
    [*CHAIN_FLAGS, "--grid-span", "1e4"],  # named n_points of an outcome grid
    [*CHAIN_FLAGS, "--grid-span", "1e5"],  # could not normalize the state
    [*CHAIN_FLAGS, "--grid-n", "16"],  # exited 0 with a homodyne variance 1e-3 off
    ["sweep", "--mode", "numeric", "--steps", "3", "--x-min", "0.5", "--x-max", "2",
     "--grid-n", "16"],
    ["optimize", "--mode", "numeric", "--grid-n", "16"],
])
def test_grid_too_coarse_for_the_state_exits_3_naming_the_grid(tmp_path, capsys, argv):
    out = tmp_path / "coarse"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([*argv, "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: grid [") and "has step" in err
    assert "times the gaussian width sigma = 0.5" in err and "--grid-n" in err
    assert [str(w.message) for w in caught] == []
    assert not out.exists()


def test_chain_too_narrow_probe_exits_3_naming_the_grid_step(tmp_path, capsys):
    # probe variance 1e-300: a grid step near 1e-152, where the spline coefficients overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["chain", "--phi", "0.7", "--probe-var", "1e-300", "--outcome", "0",
                     "--out", str(tmp_path / "narrow")])
    assert code == 3
    assert "error: spline coefficients overflow at grid step 9.77e-153" in capsys.readouterr().err
    assert not (tmp_path / "narrow").exists()


def test_sweep_huge_filter_ratio_matches_closed_forms(tmp_path):
    # a pair's cost does not depend on x, and Z's Poisson sum neither overflows nor warns
    out = tmp_path / "huge"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["sweep", "--mode", "numeric", "--steps", "2", "--x-min", "1",
                     "--x-max", "1e150", "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out / "sweep.csv")
    for x, f_val, g_val, _ in rows:
        assert abs(f_val - q.gaussian_state_fidelity(x)) < 1e-12
        assert abs(g_val - q.gaussian_distribution_fidelity(x)) < 1e-12


def test_chain_huge_probe_variance_exits_3_naming_the_probe_width(tmp_path, capsys):
    # the kernel length is refused as a Python int, before numpy allocates anything
    code = main(["chain", "--phi", "0.7", "--probe-var", "1e200", "--outcome", "0",
                 "--out", str(tmp_path / "huge")])
    assert code == 3
    err = capsys.readouterr().err
    assert "error: probe filter width 1.19e+100 needs a kernel of about 2**" in err
    assert "more than numpy can index" in err
    assert not (tmp_path / "huge").exists()


def test_chain_huge_sample_count_exits_3(tmp_path, capsys):
    # numpy's own refusal of 1e20 draws is a ValueError, a traceback with exit 1
    code = main(["chain", "--phi", "0.7", "--probe-var", "0.25",
                 "--outcome", "sample:100000000000000000000", "--out", str(tmp_path / "huge")])
    assert code == 3
    err = capsys.readouterr().err
    assert "error: sample count 100000000000000000000 needs an array of" in err
    assert "more than numpy can index" in err
    assert not (tmp_path / "huge").exists()


@pytest.mark.parametrize("mode", ["numeric", "closed"])
def test_sweep_huge_step_count_exits_3(tmp_path, capsys, mode):
    # numpy's own refusal of 1e20 points in np.linspace is a ValueError, a traceback with exit 1
    code = main(["sweep", "--mode", mode, "--steps", "100000000000000000000", "--x-min", "0.5",
                 "--x-max", "2", "--out", str(tmp_path / "huge")])
    assert code == 3
    err = capsys.readouterr().err
    assert "error: --steps 100000000000000000000 needs an array of" in err
    assert "more than numpy can index" in err
    assert not (tmp_path / "huge").exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--mode", "numeric", "--steps", "1000000000000000", "--x-min", "0.5", "--x-max", "2"],
    ["chain", "--phi", "0.7", "--probe-var", "0.25", "--outcome", "sample:1000000000000000"],
])
def test_unallocatable_count_exits_3(tmp_path, capsys, argv):
    # numpy can index 1e15 entries, but malloc refuses 7.11 PiB at once: nothing is touched
    code = main([*argv, "--out", str(tmp_path / "huge")])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: Unable to allocate 7.11 PiB")
    assert not (tmp_path / "huge").exists()


def test_chain_sampling_is_byte_deterministic(tmp_path):
    flags = ["chain", *GAUSSIAN_FLAGS, "--outcome", "sample:100000", "--seed", "7"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main([*flags, "--out", str(out_a)]) == 0
    assert main([*flags, "--out", str(out_b)]) == 0
    assert (out_a / "samples.csv").read_bytes() == (out_b / "samples.csv").read_bytes()
    assert (out_a / "homodyne.csv").read_bytes() == (out_b / "homodyne.csv").read_bytes()
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
    assert b"\r" not in (out_a / "homodyne.csv").read_bytes()  # LF endings only


def test_chain_different_seed_changes_samples(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    base = ["chain", *GAUSSIAN_FLAGS, "--outcome", "sample:1000"]
    assert main([*base, "--seed", "1", "--out", str(out_a)]) == 0
    assert main([*base, "--seed", "2", "--out", str(out_b)]) == 0
    assert (out_a / "samples.csv").read_bytes() != (out_b / "samples.csv").read_bytes()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_chain_seed_outside_64_bits_exits_2(tmp_path, capsys, seed):
    base = ["chain", *GAUSSIAN_FLAGS, "--outcome", "sample:10", "--seed", seed]
    assert main([*base, "--out", str(tmp_path / "bad")]) == 2
    assert "64 unsigned bits" in capsys.readouterr().err


def test_chain_file_signal(tmp_path):
    spec = q.GaussianSpec(0.0, 0.25)
    grid = q.auto_grid([spec], n_points=512)
    wf = q.build_gaussian(spec, grid)
    path = tmp_path / "signal.csv"
    np.savetxt(path, np.column_stack([grid.points, wf.amplitudes.real]), delimiter=",")
    out = tmp_path / "run"
    code = main(
        ["chain", "--phi", "0.7854", "--probe-var", "0.25",
         "--signal", f"file:{path}", "--outcome", "0.0", "--out", str(out)]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["signal"]["variance"] == pytest.approx(0.25, abs=1e-6)


def test_numeric_sweep_file_signal_records_signal_flag(tmp_path):
    spec = q.GaussianSpec(0.0, 0.25)
    grid = q.auto_grid([spec], n_points=512)
    path = tmp_path / "signal.csv"
    np.savetxt(path, np.column_stack([grid.points, q.build_gaussian(spec, grid).amplitudes.real]),
               delimiter=",")
    out = tmp_path / "run"
    code = main(["sweep", "--x-min", "0.5", "--x-max", "2.0", "--steps", "3", "--mode", "numeric",
                 "--signal", f"file:{path}", "--grid-n", "512", "--outcome-nodes", "256",
                 "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["signal"] == f"file:{path}"
    _, rows = read_csv(out / "sweep.csv")
    assert len(rows) == 3


def test_chain_missing_file_signal_exits_2(tmp_path):
    code = main(
        ["chain", "--phi", "0.7854", "--probe-var", "0.25",
         "--signal", "file:/nonexistent/sig.csv", "--outcome", "0.0",
         "--out", str(tmp_path / "run")]
    )
    assert code == 2


def test_chain_file_signal_with_header_row_exits_3(tmp_path, capsys):
    path = tmp_path / "header.csv"
    path.write_text("x,amp\n" + "".join(f"{0.1 * i},1.0\n" for i in range(20)))
    assert main(["chain", "--phi", "0.7854", "--probe-var", "0.25", "--signal", f"file:{path}",
                 "--outcome", "0.0", "--out", str(tmp_path / "run")]) == 3
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("rows, message", [
    ([(0.1 * i, 1.0) for i in range(15)], "at least 16 rows"),
    ([(0.1 * i + (0.05 if i == 7 else 0.0), 1.0) for i in range(20)], "not uniformly spaced"),
    # squaring 1e200, or summing 64 squares of 6e153, overflowed, and normalizing named no input
    ([(x, 1e200 * math.exp(-x * x)) for x in np.linspace(-4.0, 4.0, 64).tolist()],
     "too large to square and sum"),
    ([(x, 6e153) for x in np.linspace(-4.0, 4.0, 64).tolist()], "too large to square and sum"),
])
def test_chain_bad_file_signal_exits_3_writing_nothing(tmp_path, capsys, rows, message):
    path = tmp_path / "signal.csv"
    path.write_text("".join(f"{x!r},{a!r}\n" for x, a in rows))
    out = tmp_path / "run"
    assert main(["chain", "--phi", "0.7854", "--probe-var", "0.25", "--signal", f"file:{path}",
                 "--outcome", "0.0", "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["sweep", "--mode", "numeric", "--steps", "3", "--x-min", "0.5", "--x-max", "2"],
    ["optimize", "--mode", "numeric"],
    ["chain", "--phi", "0.7854", "--probe-var", "0.25", "--outcome", "1e16"],
])
def test_signal_beyond_float_resolution_exits_3_writing_nothing(tmp_path, capsys, command):
    # at mean 1e16 the 2048-point grid's step is 0.0098 and the float spacing 2: the
    # sweep wrote G = 0.443 and F = 0.982 at x = 0.5 from 11 distinct points
    out = tmp_path / "run"
    assert main([*command, "--signal", "gaussian:1e16,1", "--out", str(out)]) == 3
    assert "not above 2**16 times the float spacing" in capsys.readouterr().err
    assert not out.exists()


def test_numeric_sweep_signal_grid_past_2_511_exits_3_writing_nothing(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["sweep", "--mode", "numeric", "--steps", "2", "--x-min", "1", "--x-max", "2",
                 "--signal", "gaussian:0,1e307", "--out", str(out)]) == 3
    assert "has a bound of magnitude 2**511 or more" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mean", [10.0**k for k in range(4, 14)])
def test_numeric_sweep_moves_with_the_signal_mean_by_at_most_1e_10_or_exits_3(
    tmp_path, capsys, mean
):
    # F and G do not depend on the mean; with grids refused only within 4 float spacings,
    # gaussian:1e10,1 was 6.9e-8 and gaussian:1e13,1 1.3e-4 off gaussian:0,1
    sweep = ["sweep", "--mode", "numeric", "--steps", "3", "--x-min", "0.5", "--x-max", "2",
             "--phi", "0.7"]
    assert main([*sweep, "--signal", "gaussian:0,1", "--out", str(tmp_path / "centred")]) == 0
    out = tmp_path / "moved"
    code = main([*sweep, "--signal", f"gaussian:{mean!r},1", "--out", str(out)])
    if code == 3:
        assert "not above 2**16 times the float spacing" in capsys.readouterr().err
        assert not out.exists()
        return
    assert code == 0
    _, centred = read_csv(tmp_path / "centred" / "sweep.csv")
    _, moved = read_csv(out / "sweep.csv")
    assert np.abs(moved - centred).max() <= 1e-10


def test_usage_errors_exit_2(tmp_path):
    out = str(tmp_path / "x")
    assert main(["sweep", "--x-min", "0.1", "--x-max", "2", "--steps", "0",
                 "--mode", "closed", "--out", out]) == 2
    assert main(["sweep", "--x-min", "0.1", "--x-max", "2", "--steps", "5",
                 "--mode", "banana", "--out", out]) == 2
    assert main(["chain", "--phi", "0.7", "--probe-var", "0.25",
                 "--signal", "ring:1,2", "--outcome", "0.0", "--out", out]) == 2
    assert main(["chain", "--phi", "0.7", "--probe-var", "0.25",
                 "--signal", "cat:nan,0.2", "--outcome", "0.0", "--out", out]) == 2
    assert main(["chain", "--phi", "0.7", "--probe-var", "0.25",
                 "--signal", "gaussian:0,0.25", "--outcome", "sample:-3", "--out", out]) == 2
    for flags in (["--grid-n", "x"], ["--seed", "abc"], ["--outcome", "0,x"],
                  ["--signal", "file:"]):
        assert main(["chain", "--phi", "0.7", "--probe-var", "0.25", "--outcome", "0.0",
                     *flags, "--out", out]) == 2
    assert main([]) == 2
    assert not (tmp_path / "x").exists()


def test_sweep_closed_values(tmp_path):
    out = tmp_path / "sweep"
    code = main(["sweep", "--x-min", "0.2", "--x-max", "2.2", "--steps", "11",
                 "--mode", "closed", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out / "sweep.csv")
    assert header == ["x", "F", "G", "F_plus_G"]
    idx = int(np.argmin(np.abs(rows[:, 0] - 1.2)))
    assert rows[idx, 0] == pytest.approx(1.2, abs=1e-12)
    assert rows[idx, 1] == pytest.approx(0.8615, abs=1e-3)
    assert rows[idx, 2] == pytest.approx(0.9082, abs=1e-3)
    assert np.allclose(rows[:, 3], rows[:, 1] + rows[:, 2], atol=1e-15)


def test_sweep_numeric_matches_closed(tmp_path):
    closed_out, numeric_out = tmp_path / "closed", tmp_path / "numeric"
    common = ["--x-min", "0.5", "--x-max", "2.0", "--steps", "4"]
    assert main(["sweep", *common, "--mode", "closed", "--out", str(closed_out)]) == 0
    assert main(["sweep", *common, "--mode", "numeric", "--signal", "gaussian:0,0.25",
                 "--grid-n", "1024", "--outcome-nodes", "512",
                 "--out", str(numeric_out)]) == 0
    _, closed_rows = read_csv(closed_out / "sweep.csv")
    _, numeric_rows = read_csv(numeric_out / "sweep.csv")
    assert np.abs(closed_rows[:, 1] - numeric_rows[:, 1]).max() < 1e-3
    assert np.abs(closed_rows[:, 2] - numeric_rows[:, 2]).max() < 1e-3


def test_numeric_sweep_repeats_byte_for_byte(tmp_path):
    flags = ["sweep", "--x-min", "0.5", "--x-max", "2.0", "--steps", "4",
             "--mode", "numeric", "--grid-n", "512", "--outcome-nodes", "256"]
    first, second = tmp_path / "first", tmp_path / "second"
    assert main([*flags, "--out", str(first)]) == 0
    assert main([*flags, "--out", str(second)]) == 0
    assert (first / "sweep.csv").read_bytes() == (second / "sweep.csv").read_bytes()


def test_optimize_closed_report(tmp_path):
    out = tmp_path / "opt"
    code = main(["optimize", "--mode", "closed", "--tol", "1e-4",
                 "--sigma-probe", "0.6", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert abs(report["x_m"] - 1.2) < 0.05
    assert abs(report["F_at_xm"] - 0.86) < 0.01
    assert abs(report["G_at_xm"] - 0.91) < 0.01
    assert abs(report["x_e"] - 1.3) < 0.1
    assert abs(report["F_at_xe"] - 0.88) < 0.01
    expected_phi = math.atan(0.6 / (0.5 * report["x_m"]))
    assert report["tuned_phase"] == pytest.approx(expected_phi, abs=1e-12)


def test_optimize_closed_keeps_to_its_bracket(tmp_path, capsys):
    # F > G on all of [2, 3]: the crossing x_e = 1.33 lies outside the bracket
    code = main(["optimize", "--mode", "closed", "--x-min", "2", "--x-max", "3",
                 "--out", str(tmp_path / "bracket")])
    assert code == 3
    assert "no sign change on [2.0, 3.0]" in capsys.readouterr().err


def test_optimize_names_the_missing_crossing(tmp_path, capsys):
    # the components are 200 sigma apart: x_m is found, but F > G over all of [0.2, 5]
    out = tmp_path / "far-cat"
    code = main(["optimize", "--mode", "numeric", "--signal", "cat:50,0.25", "--phi", "0.7",
                 "--out", str(out)])
    assert code == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert "no sign change on [0.2, 5.0]: F - G, zero at x_e (the F = G crossing)" in err
    assert "0.400068 at x=0.2 and 0.982407 at x=5.0" in err


@pytest.mark.parametrize("command", [
    ["sweep", "--mode", "closed", "--steps", "3", "--x-min", "0.5", "--x-max", "2"],
    ["optimize", "--mode", "closed"],
])
def test_closed_mode_checks_the_phase_it_records(tmp_path, capsys, command):
    out = tmp_path / "phase"
    assert main([*command, "--phi", "5", "--out", str(out)]) == 3
    assert not out.exists()
    assert "phi=5.0 is degenerate" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["optimize", "--mode", "closed"],
    ["optimize", "--mode", "numeric", "--grid-n", "256"],
    ["sweep", "--mode", "closed", "--steps", "3", "--x-max", "2"],
])
def test_nonpositive_x_min_exits_3_naming_the_flag(tmp_path, capsys, command):
    code = main([*command, "--x-min", "0", "--out", str(tmp_path / "zero")])
    assert code == 3
    assert "--x-min" in capsys.readouterr().err


def test_numeric_optimize_unresolved_ratio_exits_3_naming_only_the_ratio(tmp_path, capsys):
    # x = 0.001 is a filter of width 0.0005, below the default signal grid step 0.0098;
    # optimize has no point list, so the error names the ratio alone
    out = tmp_path / "fine"
    code = main(["optimize", "--mode", "numeric", "--x-min", "0.001", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: filter ratio 0.001: probe filter width 0.0005 is below")
    assert "point" not in err
    assert not out.exists()


@pytest.mark.parametrize("x_max, message", [
    ("inf", "--x-max must be finite"),
    ("1e308", "2 x^2 finite"),  # finite, but the closed forms overflow
])
def test_closed_sweep_with_huge_bracket_exits_3(tmp_path, capsys, x_max, message):
    out = tmp_path / "huge"
    code = main(["sweep", "--mode", "closed", "--x-min", "0.1", "--x-max", x_max,
                 "--steps", "3", "--out", str(out)])
    assert code == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_closed_sweep_keeps_f_at_most_one_for_large_x(tmp_path):
    # sqrt(2) x / sqrt(1 + 2 x^2) rounds to 1 + 2^-52 at both x
    out = tmp_path / "large"
    assert main(["sweep", "--mode", "closed", "--x-min", "1e12", "--x-max", "2e12",
                 "--steps", "2", "--out", str(out)]) == 0
    _, rows = read_csv(out / "sweep.csv")
    assert np.all((rows[:, 1:3] >= 0.0) & (rows[:, 1:3] <= 1.0))


def test_optimize_unresolvable_tolerance_exits_3(tmp_path, capsys):
    for tol in ("1e-20", "inf"):
        out = tmp_path / f"tol-{tol}"
        assert main(["optimize", "--mode", "closed", "--tol", tol, "--out", str(out)]) == 3
        assert "tolerance" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("tol_flag, tol_config, tolerance", [
    ([], None, 1e-3),  # unset: recorded as null, the numeric report's own default applies
    (["--tol", "2e-4"], 2e-4, 2e-4),
])
def test_optimize_numeric_records_and_honours_tol(tmp_path, tol_flag, tol_config, tolerance):
    out = tmp_path / "tol"
    assert main(["optimize", "--mode", "numeric", "--grid-n", "256", *tol_flag,
                 "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["tol"] == tol_config
    assert json.loads((out / "report.json").read_text())["tolerance"] == tolerance


@pytest.mark.slow
def test_optimize_numeric_matches_closed(tmp_path):
    out = tmp_path / "optnum"
    code = main(["optimize", "--mode", "numeric", "--signal", "gaussian:0,0.25",
                 "--x-min", "0.8", "--x-max", "2.0", "--tol", "5e-3",
                 "--grid-n", "512", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert abs(report["x_m"] - 1.1958180795364757) < 0.02


def test_validate_all_passes(tmp_path, capsys):
    out = tmp_path / "val"
    code = main(["validate", "--suite", "all", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert all(c["passed"] for c in report["checks"])
    names = [c["name"] for c in report["checks"]]
    assert names == [c.name for group in checks.REGISTRY for c in group.checks]
    stdout = capsys.readouterr().out
    assert stdout.count("[PASS]") == len(report["checks"])


def test_validate_single_suite_subset(tmp_path):
    out = tmp_path / "vp"
    assert main(["validate", "--suite", "pipeline", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert all("limit" not in c["name"] for c in report["checks"])


def test_validate_failure_exits_1_and_still_writes_report(tmp_path, monkeypatch, capsys):
    forced = checks.CheckGroup("pipeline", lambda: (1.0,), (checks.Check("forced", 0.0),))
    monkeypatch.setattr(checks, "REGISTRY", [forced])
    out = tmp_path / "vf"
    assert main(["validate", "--suite", "pipeline", "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is False
    assert "[FAIL] forced: measured 1.000e+00 <= 0.000e+00" in capsys.readouterr().out


def test_csv_values_round_trip_exactly(tmp_path):
    out = tmp_path / "rt"
    assert main(["sweep", "--x-min", "0.3", "--x-max", "1.9", "--steps", "7",
                 "--mode", "closed", "--out", str(out)]) == 0
    _, rows = read_csv(out / "sweep.csv")
    for x, f_val, g_val, _ in rows:
        assert f_val == q.gaussian_state_fidelity(x)
        assert g_val == q.gaussian_distribution_fidelity(x)


def test_cli_import_loads_no_scipy_module(tmp_path):
    # dgttrf and dgttrs come from the OpenBLAS numpy bundles; scipy is a test dependency only.
    # A fresh process imports the CLI and runs the filter-route sweep, the cat chain and
    # validate's pipeline group (the one CLI route through feedback_displace, output_squeeze
    # and beam_splitter_transform); where numpy bundles no OpenBLAS, the spline fit imports
    # scipy's dgttrf by design, so only the import is checked.
    runs = [
        ["sweep", "--mode", "numeric", "--steps", "3", "--x-min", "0.5", "--x-max", "2"],
        ["chain", "--phi", "0.7", "--probe-var", "0.25", "--signal", "cat:1.8,0.2025",
         "--outcome=-0.5,0,0.8"],
        ["validate", "--suite", "all"],
    ] if _lapack._DGTTRF is not None else []
    runs = [[*argv, "--out", str(tmp_path / argv[0])] for argv in runs]
    code = ("import sys; from qndsim.cli import main\n"
            f"for argv in {runs!r}: assert main(argv) == 0, argv\n"
            "print(*sorted(sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(Path(q.__file__).parents[1])}
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()[-1].split()  # validate prints its checks first
    assert "qndsim.cli" in loaded
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []


def test_in_process_calls_share_only_the_parser(tmp_path, monkeypatch, capsys):
    builds, wrapped = [], []
    build_parser, cmd_sweep = qndsim.cli.build_parser, qndsim.cli.cmd_sweep

    def counted_build():
        builds.append(1)
        return build_parser()

    def wrapped_sweep(args):
        wrapped.append(args.steps)
        return cmd_sweep(args)

    monkeypatch.setattr(qndsim.cli, "build_parser", counted_build)
    qndsim.cli._parser.cache_clear()
    sweep = ["sweep", "--mode", "numeric", "--steps", "3", "--x-min", "0.5", "--x-max", "2",
             "--grid-n", "256"]

    # a usage error leaves nothing behind: the next sweep writes a fresh process's bytes
    assert main(["sweep", "--mode", "banana", "--steps", "3", "--x-min", "0.5", "--x-max", "2",
                 "--out", str(tmp_path / "bad")]) == 2
    assert main([*sweep, "--out", str(tmp_path / "after-error")]) == 0
    env = {**os.environ, "PYTHONPATH": str(Path(q.__file__).parents[1])}
    subprocess.run([sys.executable, "-m", "qndsim.cli", *sweep, "--out", str(tmp_path / "fresh")],
                   env=env, check=True)
    in_process, fresh = tmp_path / "after-error", tmp_path / "fresh"
    assert (in_process / "sweep.csv").read_bytes() == (fresh / "sweep.csv").read_bytes()
    manifests = [json.loads((out / "manifest.json").read_text()) for out in (in_process, fresh)]
    for manifest in manifests:
        del manifest["timestamp"]
    assert manifests[0] == manifests[1]

    # a flag set on one call is not a default of the next
    assert main(["optimize", "--mode", "closed", "--tol", "5e-3",
                 "--out", str(tmp_path / "tol")]) == 0
    assert main(["optimize", "--mode", "closed", "--out", str(tmp_path / "no-tol")]) == 0
    for out, tol in (("tol", 5e-3), ("no-tol", None)):
        assert json.loads((tmp_path / out / "manifest.json").read_text())["config"]["tol"] == tol

    capsys.readouterr()
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == f"qndsim {q.__version__}\n"
    assert main(["validate", "--suite", "limits", "--out", str(tmp_path / "after-version")]) == 0

    # a wrapper set on a command after the parser exists runs until it is removed, as a
    # tracer's does
    with monkeypatch.context() as patch:
        patch.setattr(qndsim.cli, "cmd_sweep", wrapped_sweep)
        assert main([*sweep, "--out", str(tmp_path / "wrapped")]) == 0
    assert main([*sweep, "--out", str(tmp_path / "unwrapped")]) == 0
    assert wrapped == [3]
    assert builds == [1]
