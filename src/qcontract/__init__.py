"""Exact computer algebra for edge contraction of Cartan data and quivers,
with the induced maps on quantum Serre algebras and quantum groups, verified
mechanically at small rank.
"""

__version__ = "0.1.0"
