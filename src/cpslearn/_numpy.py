"""numpy, imported on first use.

Every module of the package binds ``np`` from here, and none reads it at import time, so
``import cpslearn``, ``cpslearn validate`` and every CLI error record run without loading numpy.
The first attribute read of ``np`` imports numpy, copies its namespace (its own ``__getattr__``
included, which loads its lazy submodules) and turns ``np`` into a plain module, so each later
read is an ordinary module lookup. Nothing goes into ``sys.modules``: numpy itself is untouched.
"""

import types


class _Numpy(types.ModuleType):
    __slots__ = ()

    def __getattr__(self, name):  # reached only before the first load: a plain module never calls it
        import numpy

        vars(self).update(vars(numpy))
        self.__class__ = types.ModuleType
        return getattr(self, name)


np = _Numpy("numpy")
