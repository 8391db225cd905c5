"""tools/output_hashes.py: the sha256 of each output file of a config run,
which two checkouts compare to show their tables are byte-identical."""

import importlib.util
from pathlib import Path

import pytest
import yaml

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_hashes.py"


@pytest.fixture(scope="module")
def output_hashes():
    spec = importlib.util.spec_from_file_location("output_hashes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.output_hashes


def _config(tmp_path, name, points):
    path = tmp_path / name
    path.write_text(yaml.safe_dump({
        "experiment": "transmission-saturation",
        "grid": {"rabi_over_gamma": {"values": points}}}))
    return path


def test_same_config_same_hashes(tmp_path, output_hashes):
    path = _config(tmp_path, "a.yaml", [0.1, 1.0])
    first = output_hashes([path])
    assert sorted(first) == ["transmission-saturation/metadata.json",
                             "transmission-saturation/saturation.csv"]
    assert all(len(h) == 64 for h in first.values())
    assert output_hashes([path]) == first
    other = output_hashes([_config(tmp_path, "b.yaml", [0.2, 1.0])])
    assert other["transmission-saturation/saturation.csv"] != \
        first["transmission-saturation/saturation.csv"]


def test_second_config_of_an_experiment_refused(tmp_path, output_hashes):
    paths = [_config(tmp_path, "a.yaml", [0.1]),
             _config(tmp_path, "b.yaml", [0.2])]
    with pytest.raises(SystemExit, match="a second transmission-saturation"):
        output_hashes(paths)
