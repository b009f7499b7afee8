"""Relational entropic dynamics on periodic grids."""

__version__ = "0.1.0"
