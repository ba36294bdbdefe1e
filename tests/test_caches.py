"""The package's caches: exactly the ones the README lists, so a cold pass can clear them."""

import importlib
import pkgutil
from pathlib import Path

import bncagg

CACHES = {
    "cli._input_free_lines",
    "cli._parser",
    "frame._scan_plan",
}


def test_every_cache_is_listed_and_named_in_the_readme():
    found = set()
    for info in pkgutil.iter_modules(bncagg.__path__):
        module = importlib.import_module(f"bncagg.{info.name}")
        for name, obj in vars(module).items():
            # An imported cache counts once, in the module that defines it.
            if hasattr(obj, "cache_clear") and obj.__module__ == module.__name__:
                found.add(f"{info.name}.{name}")
    assert found == CACHES
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    assert [name for name in sorted(CACHES) if f"`{name}`" not in readme] == []
