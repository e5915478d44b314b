"""Exact verification of para-Kahler structures on low-dimensional Lie algebras."""
