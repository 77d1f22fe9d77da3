"""relsha loads scipy's LAPACK and BLAS extensions without scipy.linalg.

Each test runs a fresh interpreter, since what a process has imported
before relsha is the thing under test.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import relsha

SRC = Path(relsha.__file__).resolve().parent.parent


def run_python(code: str):
    """The JSON value a fresh interpreter prints after running ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_the_cli_does_not_import_scipy_linalg():
    loaded = run_python(
        "import json, sys, relsha.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy.linalg'))))"
    )
    assert loaded == ["scipy.linalg._fblas", "scipy.linalg._flapack"]


@pytest.mark.parametrize("first, second", [("scipy.linalg", "relsha.cli"), ("relsha.cli", "scipy.linalg")])
def test_scipy_linalg_shares_the_routines_relsha_calls(first, second):
    shared = run_python(
        f"import json, importlib\n"
        f"importlib.import_module({first!r}); importlib.import_module({second!r})\n"
        "import scipy.linalg\n"
        "from relsha import design, regularized\n"
        "print(json.dumps([\n"
        "    scipy.linalg.lapack.dpotrf is regularized.dpotrf is design.dpotrf,\n"
        "    scipy.linalg.lapack.dtrcon is design.dtrcon,\n"
        "    scipy.linalg.blas.dsyrk is design.dsyrk,\n"
        "]))"
    )
    assert shared == [True, True, True]


def test_blas_thread_controls_find_every_bundled_openblas():
    found, bundled = run_python(
        "import json\n"
        "from pathlib import Path\n"
        "import numpy, scipy\n"
        "import relsha.cli\n"
        "from relsha import evaluation\n"
        "bundled = sum(\n"
        "    any((Path(p.__file__).parent.parent / f'{p.__name__}.libs').glob('*openblas*'))\n"
        "    for p in (numpy, scipy)\n"
        ")\n"
        "print(json.dumps([len(evaluation._openblas_thread_controls()), bundled]))"
    )
    if not bundled:
        pytest.skip("neither numpy nor scipy bundles an OpenBLAS library")
    assert found == bundled


def test_a_missing_extension_names_the_directory_searched():
    from relsha import _lapack

    directory = Path(_lapack.scipy.__file__).parent / "linalg"
    with pytest.raises(ImportError, match=re.escape(f"no _no_such_module extension module in {directory}")):
        _lapack._load("_no_such_module")
