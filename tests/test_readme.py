"""README's Library block and the package's exports stay in step with src/."""

import re
from pathlib import Path

import charposet

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_block_prints_the_values_its_comments_state():
    printed = []
    exec(_library_block(), {"print": printed.append})
    assert len(printed) == 6
    assert printed[0] == [1, 1, 1, 1, 2]
    assert printed[1] == (1, 1, 1, 1, 2)
    assert printed[2] == 2
    assert printed[4] == (8192, 0, -8192, 0, 0)


def test_every_name_in_all_resolves():
    names = charposet.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(charposet, name)] == []
