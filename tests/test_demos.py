"""Each demo runs end to end on 16-set acquisitions, without matplotlib."""

import dataclasses
import importlib.util
import pathlib
import sys

import pytest

from csilab import scenarios

DEMOS = sorted((pathlib.Path(__file__).parents[1] / "demos").glob("*.py"))


def small_preset(name):
    sc = scenarios.preset(name)
    return dataclasses.replace(
        sc, acquisition=dataclasses.replace(sc.acquisition, num_sets=16))


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    monkeypatch.setattr(demo, "preset", small_preset)
    monkeypatch.setitem(sys.modules, "matplotlib", None)  # import raises ImportError
    demo.main(str(tmp_path))
    assert capsys.readouterr().out
    assert any(p.suffix == ".csv" for p in tmp_path.iterdir())
