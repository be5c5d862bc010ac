"""esdbench: the layered benchmark (see README.md; entry point run.py)."""
