import importlib
import pkgutil

import adelic

LIBRARY = [m.name for m in pkgutil.iter_modules(adelic.__path__) if m.name != "cli"]

# the package's public interface, frozen: a name dropped from a module's
# __all__, or added to one, changes it
PUBLIC = [
    "ARCH", "ArchWeight", "BerkPoint", "Certificate", "DomainError",
    "EffectiveDivisor", "ExperimentResult", "FiniteWeight", "GlobalReport",
    "HeightInterval", "INF", "INF_POINT", "IntPoly", "LogValue", "Place",
    "PlaceRow", "Radii", "Refusal", "SequenceSpec", "Weight", "arch_support",
    "certified_roots", "chordal_arch", "discriminant", "divisor_from_poly",
    "equilibrium_energy", "ex5_weight", "experiment_run", "fekete_sum",
    "fekete_sum_arch_identity", "float_sum", "gauss_point", "generate",
    "global_fekete", "height", "hsia_kernel", "integral_against",
    "lemma43_certify", "log_abs", "mahler_g", "mahler_sharp", "newton_polygon",
    "normalize", "potential_kernel", "product_formula_check", "radii",
    "relevant_places", "resultant", "squarefree_decomposition", "std_weight",
    "trivial_weight", "val_p", "weight_eval", "zero_weight",
]


def _module(name):
    return importlib.import_module("adelic." + name)


def test_every_export_resolves():
    # a name deleted from a module but left in its __all__ fails the star
    # import, and a star import hands out exactly the names in __all__
    for m in LIBRARY + ["cli"]:
        ns = {}
        exec("from adelic.%s import *" % m, ns)
        del ns["__builtins__"]
        assert sorted(ns) == sorted(_module(m).__all__), m
    ns = {}
    exec("from adelic import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == PUBLIC


def test_every_library_module_declares_all():
    for m in LIBRARY:
        assert isinstance(_module(m).__all__, list), m


def test_package_all_is_the_union_of_the_module_lists():
    lists = [_module(m).__all__ for m in LIBRARY]
    names = [n for names in lists for n in names]
    assert len(names) == len(set(names)), "a name is exported by two modules"
    assert adelic.__all__ == sorted(names) == PUBLIC
