"""meyerlab: exact model sets, S-integer certification, covering certificates.

Each CLI command runs in a fresh process and uses only some of the
submodules, so they load on first use: each is registered in `sys.modules`
through `importlib.util.LazyLoader` and bound as a package attribute, and its
source is compiled and executed only when one of its attributes is first
read.  `from . import cps` therefore returns the unexecuted module, and
`from .cps import Patch` executes it.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_LAZY = ("exactnum", "verify", "cps", "heis", "places", "serialize")


def _register_lazy(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in _LAZY:
    globals()[_name] = _register_lazy(_name)
del _name
