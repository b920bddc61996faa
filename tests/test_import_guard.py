"""The package, its solvers, its closed forms and its commands run without
scipy, which only the tests use; the package's public names are the ones it
lists in `__all__`; and the numpy it declares has what it calls."""

import ast
import json
import os
import re
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


def test_closed_forms_load_no_scipy():
    code = ("from gcrit import (bessel_first_zero, exponential_exact_swave,\n"
            "                   square_well_exact, stis_exact_swave)\n"
            "[square_well_exact(ell) for ell in range(6)]\n"
            "exponential_exact_swave(); stis_exact_swave(1.0); bessel_first_zero(2.5)")
    assert _scipy_modules_after(code) == []


#: a meta path finder that fails every import of scipy or of a submodule
_REFUSE_SCIPY = """\
import importlib.abc, sys
class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split('.')[0] == 'scipy':
            raise ImportError(f'scipy is refused: {name}')
sys.meta_path.insert(0, RefuseScipy())
"""


def test_commands_and_closed_forms_run_where_scipy_cannot_load():
    code = (_REFUSE_SCIPY +
            "from gcrit import cli, exponential_exact_swave, square_well_exact\n"
            "for argv in (['compute', '--potential', 'square_well', '--ell', '2',\n"
            "              '--methods', 'all', 'shooting', 'nystrom'],\n"
            "             ['check'], ['reproduce', '--table', '1']):\n"
            "    assert cli.main(argv) == 0, argv\n"
            "square_well_exact(0); exponential_exact_swave()")
    assert _scipy_modules_after(code) == []


def test_all_lists_exactly_the_public_names_the_package_binds():
    import gcrit

    bound = set()
    for node in ast.parse(Path(gcrit.__file__).read_text()).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            bound |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    assert len(set(gcrit.__all__)) == len(gcrit.__all__)
    assert set(gcrit.__all__) == {name for name in bound if not name.startswith("_")}
    for name in gcrit.__all__:
        assert hasattr(gcrit, name), name


def test_declared_numpy_floor_has_vecdot():
    # quadrature's panel sums call np.vecdot, which numpy 2.0 added; on 1.x
    # the import succeeds and the first integral fails
    text = (SRC.parent / "pyproject.toml").read_text()
    [floor] = re.findall(r'"numpy>=([0-9][0-9.]*)"', text)
    assert tuple(int(part) for part in floor.split(".")[:2]) >= (2, 0)
