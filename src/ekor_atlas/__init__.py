"""Admissible sets, twisted supports and basic strata for extended affine
Weyl groups, with closed-form cross-checks for symplectic similitude
groups."""
