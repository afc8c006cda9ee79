"""Exact certificates and numerical solving for exponential-algebraic
intersections on products of elliptic curves."""

__version__ = "0.1.0"
