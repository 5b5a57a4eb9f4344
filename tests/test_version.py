"""The package version is stated twice, in pyproject.toml and in
`ratrecon.__version__`; every contract bump edits both."""

import pathlib
import re

import ratrecon

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_pyproject_version_matches_package():
    # a regex, not tomllib: requires-python is >= 3.10, tomllib needs 3.11
    text = PYPROJECT.read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert project is not None, "no [project] table in pyproject.toml"
    version = re.search(r'^version\s*=\s*"([^"]+)"', project.group(1), re.M)
    assert version is not None, "no version in [project]"
    assert version.group(1) == ratrecon.__version__
