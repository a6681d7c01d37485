"""Exact model of the line with k glued origins and its projection audit."""
