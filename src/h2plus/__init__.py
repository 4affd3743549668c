"""Hyperfine structure and two-photon ro-vibrational spectra of H2+.

The package root holds only the version and the data error, so importing
it loads no kernel; import the submodules for everything else.
"""

__version__ = "0.1.0"


class DataError(Exception):
    """A required data file is missing, unreadable or malformed."""
