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
