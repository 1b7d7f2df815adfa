"""The package's public surface: what `from signopt.<module> import *` gets,
and the imports each module makes."""
import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def unused_imports(source: str) -> list[str]:
    """The names an import in source binds that the module never reads, nor
    lists in __all__; an import statement whose first line carries
    `# noqa: F401` is kept on purpose."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}  # __all__, string annotations
    return [f"line {node.lineno}: {bound}" for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and "# noqa: F401" not in lines[node.lineno - 1]
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for alias in node.names
            if (bound := alias.asname or alias.name.split(".")[0]) not in used]


def test_every_import_is_used():
    found = {path.name: unused for path in sorted(Path(signopt.__file__).parent.glob("*.py"))
             if (unused := unused_imports(path.read_text()))}
    assert found == {}


def test_no_assert_statement_in_the_package():
    # python -O strips assert statements, and every check of the package
    # must still run there: each is an explicit raise
    found = [f"{path.name}:{node.lineno}" for path in sorted(Path(signopt.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert found == []


def test_cli_import_leaves_the_oracles_unloaded():
    # only verify-key-identity uses signopt.oracles; every other command
    # should not pay for compiling and running it
    src = str(Path(signopt.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = "import sys, signopt.cli; print('signopt.oracles' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, check=True, timeout=60)
    assert out.stdout.split() == ["False"]


def test_sweep_horizon_script_prints_one_row_per_horizon():
    root = Path(__file__).resolve().parents[1]
    src = str(Path(signopt.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    args = ["--horizons", "100,400", "--seeds", "2"]
    out = subprocess.run([sys.executable, str(root / "scripts" / "sweep_horizon.py"), *args],
                         capture_output=True, text=True, env=env, check=True, timeout=60)
    lines = [line for line in out.stdout.splitlines() if not line.startswith("#")]
    assert lines == ["T,mean_ginf,rate_sqrt_T", "100,0.114139,1.1414", "400,0.113467,2.2693"]
