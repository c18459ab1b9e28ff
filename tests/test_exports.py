import pkgutil

import adelic


def test_every_export_resolves():
    # a name deleted from a module but left in its __all__ fails the star import
    modules = [m.name for m in pkgutil.iter_modules(adelic.__path__)]
    for m in modules:
        exec("from adelic.%s import *" % m, {})
    for name in adelic.__all__:
        getattr(adelic, name)
