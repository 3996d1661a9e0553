"""The CLI's output files against the copies checked in under tests/golden/.

Each case runs one command through `qndsim.cli.main` into tmp_path and compares every
file it writes but manifest.json (which holds a timestamp) with golden/<case>/.  Under
the Python (major.minor), numpy and scipy versions recorded in golden/versions.json the
bytes must be equal.  Under others the spline solve, matrix products and FFTs may round
differently, so the parsed numbers are compared within RTOL (relative) and ATOL
(absolute, for values that are zero up to roundoff) instead.

Every case runs on both band solvers of `qndsim._lapack`: the dgttrf and dgttrs of the
OpenBLAS bundled with numpy (skipped where numpy bundles none), and scipy's, the
fallback, selected by setting `_DGTTRF` and `_DGTTRS` to None as on a numpy without that
library.  Both are held to the same golden files.

After a change that moves output bytes on purpose, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import platform
import shutil
import sys
from importlib import metadata
from pathlib import Path

import numpy as np
import pytest

from qndsim import _lapack
from qndsim.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL, ATOL = 1e-6, 1e-10

CAT = "cat:1.8,0.2025"
SAMPLED = ["chain", "--phi", "0.7854", "--probe-var", "0.25", "--outcome", "sample:1000",
           "--seed", "7"]
CASES = {
    "chain-cat": ["chain", "--phi", "0.7", "--probe-var", "0.25", "--signal", CAT,
                  "--outcome=-0.5,0,0.8"],
    "chain-sampled-gaussian": SAMPLED,
    "chain-sampled-cat": [*SAMPLED, "--signal", CAT],
    "validate": ["validate", "--suite", "all"],
    "sweep-numeric": ["sweep", "--mode", "numeric", "--steps", "20", "--x-min", "0.2",
                      "--x-max", "4"],
    "optimize-numeric-cat": ["optimize", "--mode", "numeric", "--signal", CAT, "--phi", "0.7"],
    "optimize-closed": ["optimize", "--mode", "closed", "--sigma-probe", "0.6"],
}


def versions() -> dict:
    """What the output bytes depend on."""
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": ".".join(platform.python_version_tuple()[:2]),
        "numpy": np.__version__,
        "scipy": scipy_version,
    }


def run_case(name: str, out: Path) -> dict[str, bytes]:
    """The files the case's command writes into out, but manifest.json, by name."""
    assert main([*CASES[name], "--out", str(out)]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "manifest.json"}


def numbers(name: str, data: bytes) -> tuple[list, np.ndarray]:
    """A file's structure (CSV header, or JSON with every number replaced by None) and
    its numbers in order."""
    text = data.decode("ascii")
    if name.endswith(".csv"):
        header, *rows = text.splitlines()
        return [header], np.array([[float(v) for v in row.split(",")] for row in rows]).ravel()
    found = []

    def strip(node):
        if isinstance(node, dict):
            return {key: strip(value) for key, value in node.items()}
        if isinstance(node, list):
            return [strip(value) for value in node]
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            found.append(float(node))
            return None
        return node

    return [strip(json.loads(text))], np.array(found)


@pytest.mark.parametrize("name, solver", [
    *(pytest.param(name, "bundled", id=name) for name in sorted(CASES)),
    *(pytest.param(name, "scipy", id=f"{name}-scipy") for name in sorted(CASES)),
])
def test_cli_outputs_match_golden_files(tmp_path, monkeypatch, name, solver):
    if solver == "scipy":
        monkeypatch.setattr(_lapack, "_DGTTRF", None)
        monkeypatch.setattr(_lapack, "_DGTTRS", None)
    elif _lapack._DGTTRF is None:
        pytest.skip("numpy bundles no OpenBLAS dgttrf here")
    expected_dir = GOLDEN / name
    expected = {p.name: p.read_bytes() for p in sorted(expected_dir.iterdir())}
    got = run_case(name, tmp_path / "out")
    assert sorted(got) == sorted(expected)
    recorded = json.loads((GOLDEN / "versions.json").read_text())
    same_versions = all(recorded[key] == value for key, value in versions().items())
    for file_name, data in got.items():
        if same_versions:
            assert data == expected[file_name], f"{name}/{file_name} differs from the golden bytes"
            continue
        shape, values = numbers(file_name, data)
        expected_shape, expected_values = numbers(file_name, expected[file_name])
        assert shape == expected_shape
        np.testing.assert_allclose(values, expected_values, rtol=RTOL, atol=ATOL)


def regenerate() -> None:
    """Rewrite golden/ from this checkout's code and record the versions that made it."""
    for name in CASES:
        target = GOLDEN / name
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        scratch = target / ".run"
        for file_name, data in run_case(name, scratch).items():
            (target / file_name).write_bytes(data)
        shutil.rmtree(scratch)
    (GOLDEN / "versions.json").write_text(json.dumps(versions(), indent=2) + "\n")
    total = sum(p.stat().st_size for p in GOLDEN.rglob("*") if p.is_file())
    print(f"wrote {len(CASES)} cases under {GOLDEN}, {total} bytes", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
