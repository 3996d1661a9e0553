"""The raise-coverage tracer finds the raise statements a run misses."""

import gc
import importlib.util
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_raise_coverage_finds_the_raise_that_did_not_run(tmp_path):
    coverage = load_script("raise_coverage")
    source = tmp_path / "pkg" / "checked.py"
    source.parent.mkdir()
    source.write_text(
        "def check(x):\n"
        "    if x < 0:\n"
        "        raise ValueError(\n"
        "            'negative'\n"
        "        )\n"
        "    if x > 9:\n"
        "        raise OverflowError\n"
        "    return x\n"
    )
    path = os.path.realpath(source)
    assert coverage.raise_lines(tmp_path) == {path: {3, 7}}
    spec = importlib.util.spec_from_file_location("checked", source)
    checked = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checked)

    def run():
        try:
            checked.check(-1)
        except ValueError:
            return checked.check(5)

    result, hit = coverage.executed_lines({path}, run)
    assert result == 5
    assert 3 in hit[path] and 7 not in hit[path]


def test_raise_coverage_tracer_leaves_no_garbage_per_call(tmp_path):
    # garbage left per traced call is freed only by the cycle collector, so a memory
    # test run under the tracer would count whatever it has not yet collected
    coverage = load_script("raise_coverage")
    source = tmp_path / "tracked.py"
    source.write_text("def step(x):\n    return x + 1\n")
    spec = importlib.util.spec_from_file_location("tracked", source)
    tracked = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracked)

    def run():
        total = 0
        for _ in range(10_000):
            total = tracked.step(total)
        return total

    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result, hit = coverage.executed_lines({os.path.realpath(source)}, run)
        garbage = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert result == 10_000 and hit[os.path.realpath(source)] == {2}
    assert garbage < 100
