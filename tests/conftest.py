"""Hypothesis runs derandomized and without an example database, so a run
draws the same examples whatever runs came before it; every @example still
runs first."""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
