"""qtoboggan: eigenproblems on winding complex contours, rectified and certified."""

__version__ = "0.1.0"

__all__ = ["__version__"]
