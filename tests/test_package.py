"""The package namespace: every exported name resolves, and README's
"Python API" section lists exactly the exported names and where the others
live."""

import importlib
import re
from pathlib import Path

import minsos

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_api_section():
    text = README.read_text()
    return text.split("## Python API\n", 1)[1].split("\n## ", 1)[0]


def test_every_name_in_all_resolves():
    assert [name for name in minsos.__all__ if not hasattr(minsos, name)] == []
    assert len(set(minsos.__all__)) == len(minsos.__all__)


def test_star_import_succeeds():
    namespace = {}
    exec("from minsos import *", namespace)
    assert set(minsos.__all__) <= set(namespace)


def test_all_is_the_readme_list():
    # the bullet list of the section holds the exported names
    bullets = "\n".join(
        line for line in _python_api_section().splitlines() if line.startswith(("- ", "  "))
    )
    listed = re.findall(r"`(\w+)`", bullets)
    assert len(listed) == len(set(listed))
    assert set(listed) == set(minsos.__all__)


def test_former_top_level_names_live_in_their_modules():
    assert minsos.factorization.rank_reduce.__module__ == "minsos.factorization"
    assert issubclass(minsos.errors.NotPSD, minsos.MinsosError)
    assert not hasattr(minsos, "rank_reduce") and not hasattr(minsos, "NotPSD")
    # every row of README's table names a module and what it holds
    rows = re.findall(r"^\| `(minsos\.\w+)` \| (.+) \|$", _python_api_section(), re.M)
    assert len(rows) == 9
    for module, names in rows:
        module = importlib.import_module(module)
        for name in re.findall(r"`(\w+)`", names):
            assert hasattr(module, name), (module.__name__, name)
            assert name not in minsos.__all__
