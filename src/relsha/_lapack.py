"""scipy's compiled LAPACK and BLAS wrappers, loaded without scipy.linalg.

``import scipy.linalg`` takes about half of a ``relsha`` process's wall
time: it pulls in scipy's array-API layer, ``numpy.f2py`` and
``numpy.testing``, while relsha calls seven routines of the two f2py
extensions beneath it. Those extensions are loaded here from scipy's own
``linalg`` directory and registered under their real module names, so a
later ``import scipy.linalg`` shares them: ``scipy.linalg.lapack.dpotrf``
is the ``dpotrf`` below. The top-level ``scipy`` import is kept; it is
cheap and runs scipy's set-up of the library path its extensions link to.
"""

from __future__ import annotations

import importlib.util
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from pathlib import Path

import scipy


def _load(name: str):
    """scipy.linalg's extension module ``name``, loaded once per process."""
    fullname = f"scipy.linalg.{name}"
    module = sys.modules.get(fullname)
    if module is not None:
        return module
    directory = Path(scipy.__file__).parent / "linalg"
    spec = FileFinder(str(directory), (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(fullname)
    if spec is None:
        raise ImportError(f"no {name} extension module in {directory}", name=fullname)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[fullname] = module
    return module


_flapack = _load("_flapack")
_fblas = _load("_fblas")

dgeqrf = _flapack.dgeqrf
dgeqrf_lwork = _flapack.dgeqrf_lwork
dpotrf = _flapack.dpotrf
dpotrs = _flapack.dpotrs
dtrcon = _flapack.dtrcon
dtrtrs = _flapack.dtrtrs
dsyrk = _fblas.dsyrk
