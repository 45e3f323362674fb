"""Each fenced ``python`` block of README.md runs, on 16-set presets."""

import dataclasses
import pathlib
import re

import pytest

import csilab

README = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, flags=re.MULTILINE | re.DOTALL)


def small_preset(name):
    sc = csilab.scenarios.preset(name)
    return dataclasses.replace(
        sc, acquisition=dataclasses.replace(sc.acquisition, num_sets=16))


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(code, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # a block may write files
    monkeypatch.setattr(csilab, "preset", small_preset)
    exec(compile(code, "README.md", "exec"), {"__name__": "readme"})
