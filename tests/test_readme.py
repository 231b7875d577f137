"""The README's examples work against the package.

Every fenced ``python`` block runs. The ``json`` blocks are the scenario
example and the sweep example, in that order; each loads through its config's
JSON loader, the sweep with its ``"..."`` base replaced by the scenario. Every
``python tools/<name>.py`` command names a file of ``tools/``.
"""

import json
import re
from pathlib import Path

import pytest

from pimin import ScenarioConfig
from pimin.bench import SweepSpec

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, flags=re.M | re.S)
JSON_BLOCKS = [json.loads(b) for b in re.findall(r"^```json\n(.*?)^```", TEXT,
                                                 flags=re.M | re.S)]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(code):
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})


def test_readme_json_examples_load():
    scenario, sweep = JSON_BLOCKS
    scen = ScenarioConfig.from_json_dict(scenario)
    spec = SweepSpec.from_json_dict({**sweep, "base": scenario})
    assert spec.base == scen


def test_readme_tool_commands_name_existing_files():
    tools = re.findall(r"python (tools/\S+\.py)", TEXT)
    assert tools and [path for path in tools if not (ROOT / path).is_file()] == []
