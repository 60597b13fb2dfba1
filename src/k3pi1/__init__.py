"""Exact-arithmetic finiteness trichotomy for fundamental groups of
smooth loci of normal K3 surfaces.

The package decides, from combinatorial input (ADE singularity
configurations, or Kodaira fiber configurations of an elliptic
fibration decorated with removed component sets), whether the
fundamental group of the smooth locus is finite, whether the surface
is covered by a torus ramified in finitely many points, or whether the
configuration would force the impossible hyperbolic case.  All
arithmetic is exact: Python integers and fractions throughout.
"""

__all__ = [
    "AdeConfig", "Decoration", "IntegerGram", "KodairaType",
    "MonodromyRep", "NormalK3Input", "analyze", "orbifold_euler_number",
]
__version__ = "0.1.0"

# each export's module, imported on first use: `import k3pi1` loads none,
# and only `IntegerGram` loads `lattice`
_MODULE_OF = {
    "AdeConfig": "dynkin", "Decoration": "kodaira", "IntegerGram": "lattice",
    "KodairaType": "kodaira", "MonodromyRep": "pi1", "NormalK3Input": "surface",
    "analyze": "surface", "orbifold_euler_number": "surface",
}


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value
