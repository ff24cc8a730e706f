import os
import subprocess
import sys
from pathlib import Path


def test_package_import_loads_no_submodule_and_defines_no_name():
    # the API lives in the submodules; the package itself re-exports nothing
    code = (
        "import sys, wittcalc\n"
        "print(sorted(m for m in sys.modules if m.startswith('wittcalc.')))\n"
        "print(sorted(n for n in vars(wittcalc) if not n.startswith('_')))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.stdout.split("\n") == ["[]", "[]", ""], out.stdout + out.stderr
