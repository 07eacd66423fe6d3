import ast
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_loc_package_total_is_the_direct_count():
    out = subprocess.run([sys.executable, str(REPO / "tools" / "loc.py")], capture_output=True,
                         text=True, check=True, timeout=60).stdout.splitlines()
    direct = sum(len([line for line in path.read_text(encoding="utf-8").split("\n")
                      if line.strip()])
                 for path in (REPO / "src" / "poollab").glob("*.py"))
    assert direct > 0
    assert f"{direct:6d}  src/poollab total" in out



def test_every_package_record_is_frozen_and_checked_when_built():
    # a record checks itself in __post_init__, once; an opt-in validate() can be forgotten
    mutable, validating = [], []
    for path in sorted((REPO / "src" / "poollab").glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for deco in map(ast.unparse, cls.decorator_list):
                if deco == "dataclass" or (deco.startswith("dataclass(")
                                           and "frozen=True" not in deco):
                    mutable.append(f"{path.name}:{cls.name}")
            if any(isinstance(f, ast.FunctionDef) and f.name == "validate" for f in cls.body):
                validating.append(f"{path.name}:{cls.name}")
    assert mutable == []
    assert validating == []
