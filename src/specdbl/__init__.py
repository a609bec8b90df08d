"""Fourier spectra of subsets of finite abelian groups.

Exact mixed-radix Fourier analysis of indicator functions, coherence-matrix
regularity with certificates and witnesses, and audited refinement
procedures that shrink a set until its spectrum has a small sumset.
The package exports each module's ``__all__``.
"""

from . import coherence, diagnostics, fileio, fourier, groups, refine, regularity
from .coherence import *
from .diagnostics import *
from .fileio import *
from .fourier import *
from .groups import *
from .refine import *
from .regularity import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (groups, fourier, coherence, regularity, refine, diagnostics, fileio)
    for name in module.__all__
]
