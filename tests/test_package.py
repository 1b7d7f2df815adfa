"""The package's public surface: what `from signopt.<module> import *` gets."""
import importlib
import pkgutil

import signopt


def test_every_all_name_exists_in_its_module():
    missing, declared = [], 0
    for info in pkgutil.iter_modules(signopt.__path__):
        if info.name == "__main__":
            continue  # importing it runs the CLI
        mod = importlib.import_module(f"signopt.{info.name}")
        for name in getattr(mod, "__all__", ()):
            declared += 1
            if not hasattr(mod, name):
                missing.append(f"signopt.{info.name}.{name}")
    assert declared > 0
    assert missing == []
