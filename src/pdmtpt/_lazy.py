"""NumPy, executed on first attribute access.

`from ._lazy import np` binds the one `numpy` module of the process: the
real one if something imported it already, else a lazy module registered in
`sys.modules`, which `importlib.util.LazyLoader` executes when code first
reads an attribute such as `np.linspace`.  So the closed-form commands,
which never touch an array, do not pay NumPy's import.  In Python 3.11 that
first access is not thread-safe; pdmtpt starts no threads.
"""

import importlib.util
import sys


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


np = _numpy()
