"""Cross-variate patch embedding for channel-independent forecasters.

The package trains a small patch-based transformer forecaster in float64 on
a hand-rolled reverse-mode engine, and compares two patch embeddings under a
paired protocol: a vanilla per-channel projection, and the same projection
followed by a router-attention block that mixes information across variates
at each patch position with cost linear in the channel count.
"""

# The Python API is the submodules (``cvpe.model``, ``cvpe.train``, ...).
# Importing ``autodiff`` here pins glibc's malloc thresholds and OpenBLAS to
# one thread as soon as the package is imported, before any array work.
from . import autodiff  # noqa: F401

__version__ = "0.1.0"
