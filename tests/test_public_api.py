"""README's "Public API" section is the definition of what ``engage`` exports."""

import importlib
import re
from pathlib import Path

import engage

README = Path(engage.__file__).parent.parent.parent / "README.md"
NAME = r"`([A-Za-z_]\w*)`"  # a backticked identifier; dotted module paths do not match


def test_readme_public_api_lists_exactly_the_exports_by_module():
    text = README.read_text(encoding="utf-8")
    start = text.index("### Public API\n")
    section = text[start : text.index("\n#", start)]
    assert set(re.findall(NAME, section)) == set(engage.__all__) - {"__version__"}

    bullets = [b for b in re.split(r"\n(?=- )", section) if b.startswith("- `engage.")]
    assert bullets
    for bullet in bullets:
        module = importlib.import_module(re.match(r"- `(engage\.\w+)`", bullet).group(1))
        for name in re.findall(NAME, bullet):
            assert getattr(module, name) is getattr(engage, name), (module.__name__, name)


def test_readme_library_example_gives_the_values_in_its_comments():
    text = README.read_text(encoding="utf-8")
    start = text.index("```python\n") + len("```python\n")
    code = text[start : text.index("```", start)]
    namespace = {}
    exec(code, namespace)
    # each "expression  # value" line of the example, evaluated after the whole block
    checks = re.findall(r"^(\S[^#\n]*?)\s+#\s*([-+.\deE]+)", code, re.MULTILINE)
    assert [value for _, value in checks] == [
        "1.4352627699106075", "10.264611817593813", "0.048261093706626484"]
    for expression, value in checks:
        assert eval(expression, namespace) == float(value), expression
