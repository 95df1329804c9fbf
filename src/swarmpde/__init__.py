"""Age-structured swarmer/swimmer colony simulator with bound diagnostics."""

__version__ = "0.1.0"
