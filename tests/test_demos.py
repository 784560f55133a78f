"""The demos are the public API's callers outside the tests: loading each
one by path (without running its main) fails on any name the package no
longer exports, and running the quick ones fails on any keyword it no
longer takes."""

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


def test_artificial_adaptation_runs_and_prints_its_ks_counts(capsys):
    # the one caller of alignment_report outside the CLI and the tests
    runpy.run_path(str(DEMOS[0].with_name("artificial_adaptation.py")))["main"]()
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "misaligned nodes: 14 -> 7"


def test_bound_checks_runs_every_suite(capsys):
    # the suites call the bound checks and the gradient oracle with their fixed settings
    runpy.run_path(str(DEMOS[0].with_name("bound_checks.py")))["main"]()
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if not line.startswith(" ")] == [
        "RED appendix-a 16/18 atoms", "ok  gradients  40/40 atoms", "ok  prop-bound 7/7 atoms",
        "ok  char-fct   20/20 atoms", "ok  dual-form  20/20 atoms"]
