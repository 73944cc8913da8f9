import re
from pathlib import Path

import paulinoise

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_version_has_one_value():
    # a regex, not tomllib: tomllib is missing on Python 3.10
    text = PYPROJECT.read_text(encoding="utf-8")
    match = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE)
    assert match is not None
    assert match.group(1) == paulinoise.__version__
