"""README's Python snippets run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_snippets_run(capsys):
    snippets = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert snippets
    for snippet in snippets:
        exec(compile(snippet, str(README), "exec"), {"__name__": "__readme__"})
    assert capsys.readouterr().out.strip()
