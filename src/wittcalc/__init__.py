"""Exact Witt-ring computations: quadratic form arithmetic over five simple
base fields, mod-2 cohomology symbols, trace forms of etale algebras,
signed-permutation-group torsor twisting, and sample-level decomposition of
Witt-valued invariants over generator families.

The API lives in the submodules (``wittcalc.fields``, ``wittcalc.witt``,
...); importing the package loads none of them."""
