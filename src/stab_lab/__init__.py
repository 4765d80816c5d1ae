"""Desk-scale laboratory for stabilizer complexity: characteristic tables,
degree-3 uniformity norms, Bell difference sampling, tolerant stabilizer
testing, and constructive stabilizer-witness extraction."""

__all__ = [
    "gf2",
    "states",
    "clifford",
    "charfn",
    "measures",
    "witness",
    "tester",
    "cli",
]

__version__ = "0.1.0"


class InvariantError(Exception):
    """Marker base of the errors that report a violated identity or stage
    contract; the CLI maps it to exit 3. Defined here, where importing it
    loads no numpy and no submodule."""
