"""The README's library example runs, and every ``qctl.`` name it mentions exists."""

import importlib
import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_library_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert len(namespace["fans"]) == 2
    assert namespace["mixed_field"].values.shape == (161, 161)


def test_every_dotted_qctl_name_resolves():
    names = sorted(set(re.findall(r"\bqctl(?:\.\w+)+", README.read_text(encoding="utf-8"))))
    assert "qctl.position_densities" in names
    for name in names:
        parts = name.split(".")
        # The longest prefix that imports as a module, then attributes.
        for cut in range(len(parts), 0, -1):
            try:
                target = importlib.import_module(".".join(parts[:cut]))
                break
            except ModuleNotFoundError:
                continue
        for attribute in parts[cut:]:
            assert hasattr(target, attribute), f"README names {name}, which does not exist"
            target = getattr(target, attribute)
