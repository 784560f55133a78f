"""The demos are the public API's callers outside the tests: loading each
one by path (without running its main) fails on any name the package no
longer exports."""

import importlib.util
import pathlib
import re
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_loads(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_distance_zoo_runs_and_prints_its_sampled_estimate(capsys):
    # the one caller of sample_analytic outside the tests
    runpy.run_path(str(DEMOS[0].with_name("distance_zoo.py")))["main"]()
    lines = capsys.readouterr().out.splitlines()
    assert any(re.fullmatch(r"  cmd k=4  analytic \d\.\d{6}  from 20k draws \d\.\d{6}", line)
               for line in lines)
