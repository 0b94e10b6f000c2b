"""The campaign benchmark (see README.md); run it with ``python3 bench/run.py``."""
