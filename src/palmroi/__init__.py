"""Palm-print ROI extraction and texture-matching toolkit."""

from .kernels import backend_name

__version__ = "0.1.0"

__all__ = ["backend_name"]
