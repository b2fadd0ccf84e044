"""``tools/code_lines.py`` counts the lines of each module of a ``setfuse``
package that are not blank, comments or docstrings, and their total."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MODULE = '''"""A module docstring
over two lines."""

# a comment


class Box:
    """A class docstring."""

    def area(self):
        """A one-line function docstring."""
        return 1.0  # a trailing comment keeps its line
'''


def test_counts_code_lines_per_module_and_their_total(tmp_path):
    package = tmp_path / "src" / "setfuse"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text('"""Docstring."""\n\n# only a comment\nx = 1\n')
    (package / "sub" / "b.py").write_text(MODULE)
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py"), "--src", str(tmp_path / "src")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    counts = {name: int(n) for name, n in (line.split() for line in result.stdout.splitlines())}
    assert counts == {"a.py": 1, "sub/b.py": 3, "total": 4}
