"""Verification tools for chain-type nilpotent filtered Higgs bundles.

Exact combinatorics (admissibility, tail-slope stability, the three-term
multiplicity inequality with injective matching certificates, bounded
enumeration), exact filtered-degree and residue-translation calculus, and
floating-point checks of the explicit harmonic metric and its operators.
"""

__version__ = "0.1.0"
