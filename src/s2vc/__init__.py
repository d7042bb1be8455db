"""Desk-scale any-to-any voice conversion with cross-attention alignment."""

__version__ = "0.1.0"


class Error(Exception):
    """The root of every exception the package raises on purpose.  The
    command line reports one as a single ``error:`` line and exit code 1."""
