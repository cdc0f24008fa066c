"""NumPy, executed on first attribute access, and SciPy's compiled LAPACK.

`from ._lazy import np` binds the one `numpy` module of the process: the
real one if something imported it already, else a lazy module registered in
`sys.modules`, which `importlib.util.LazyLoader` executes when code first
reads an attribute such as `np.linspace`.  So the closed-form commands,
which never touch an array, do not pay NumPy's import.  In Python 3.11 that
first access is not thread-safe; pdmtpt starts no threads.

`lapack()` returns SciPy's f2py LAPACK extension, `scipy.linalg._flapack`,
without executing `scipy/linalg/__init__.py`.  The oracle needs only its
`dgtsv` and `dstebz`; the package would add about 350 ms and 28 MB to a
cold `verify`.  The extension alone adds a median 24 ms (21-65 ms) and
3.0 MB of max RSS: the first `lapack()` call timed by `time.perf_counter`,
and the rise of `resource.getrusage(RUSAGE_SELF).ru_maxrss` across it, in
10 fresh processes that had imported NumPy first (2-core Intel Xeon,
Python 3.11.7, NumPy 2.4.6, SciPy 1.17.1).  The module is registered under
its own name, so a later `import scipy.linalg` adopts it and
`scipy.linalg.lapack.dgtsv` is the same object.
"""

import importlib.machinery
import importlib.util
import os
import sys

_FLAPACK = "scipy.linalg._flapack"


def _numpy():
    module = sys.modules.get("numpy")
    if module is not None:
        return module
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


def lapack():
    """SciPy's compiled LAPACK module, loaded on the first call.

    `import scipy` is cheap and keeps SciPy's own loader set-up; the
    extension is then found in `scipy/linalg` and executed by itself.
    """
    module = sys.modules.get(_FLAPACK)
    if module is not None:
        return module
    import scipy

    spec = importlib.machinery.PathFinder.find_spec(
        _FLAPACK, [os.path.join(scipy.__path__[0], "linalg")]
    )
    if spec is None:
        raise ModuleNotFoundError(f"No module named '{_FLAPACK}'", name=_FLAPACK)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_FLAPACK] = module
    spec.loader.exec_module(module)
    return module


np = _numpy()
