"""End-to-end and per-layer benchmark of lagot (see README.md)."""
