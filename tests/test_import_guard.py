"""The package and its shooting and Nystrom paths run without scipy; only the
closed-form references import scipy.special."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: prints, as its last line, the scipy modules loaded by then
_REPORT = ("import json, sys; "
           "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")


def _scipy_modules_after(code: str) -> list[str]:
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{_REPORT}"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    assert _scipy_modules_after("import gcrit") == []


def test_compute_with_both_solvers_loads_no_scipy():
    code = ("from gcrit import cli\n"
            "assert cli.main(['compute', '--potential', 'exponential', '--ell', '0',\n"
            "                 '--methods', 'all', 'shooting', 'nystrom']) == 0")
    assert _scipy_modules_after(code) == []


def test_closed_form_loads_scipy_special_only():
    loaded = _scipy_modules_after("from gcrit import square_well_exact\n"
                                  "square_well_exact(0)")
    assert "scipy.special" in loaded
    # past scipy.special itself, only scipy's private helpers
    public = {m.split(".")[1] for m in loaded
              if m.count(".") and not m.split(".")[1].startswith("_")}
    assert public <= {"special", "version"}, sorted(loaded)
