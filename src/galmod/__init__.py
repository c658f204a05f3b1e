"""Exact Krull-Schmidt decomposition of H^0(X, L) under a cyclic p-group
action in characteristic p, from combinatorial ramification data, with an
independent Artin-Schreier brute-force oracle."""

__version__ = "0.1.0"
