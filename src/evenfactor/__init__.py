"""Verification lab for size and spectral-radius conditions for even factors."""
