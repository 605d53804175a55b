"""End-to-end and per-layer benchmark of the PATU reproduction (see run.py)."""
