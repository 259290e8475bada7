"""Semiclassical spectra and eigenfunctions of 1D Schrodinger operators
-hbar^2 d^2/dx^2 + v(x) in a single potential well.

Bohr-Sommerfeld and generalized quantization conditions, Weyl counts,
uniform Airy-type eigenfunction approximations, classical observable
averages, and an independent brute-force reference solver.
"""

from .action import classical_average, kinetic_cl, power_law_closed_forms
from .airy import AiryValues, airy_eval, airy_many, airy_scaled
from .langer import (
    Eigenfunction,
    LangerChart,
    build_chart,
    eigenfunction,
    error_control,
)
from .oracle import OracleSpectrum, eigenvector, observable, solve_spectrum
from .potential import (
    Potential,
    TurningPoints,
    WellCertificate,
    certify_well,
    halfline_power_law,
    make_polynomial,
    make_power_law,
    potential_from_spec,
    turning_points,
)
from .quantize import (
    CountResult,
    SemiclassicalLevel,
    levels,
    weyl_count,
)

__version__ = "0.1.0"
