"""Exact graph-minor and triangle-structure toolkit for small graphs."""
