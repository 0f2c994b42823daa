"""Sparsity-driven evolutionary model merging at desk scale."""
