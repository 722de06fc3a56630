"""Numerical spectral toolkit for the complex two-term Hill operator.

Computes Floquet eigenvalue curves, normalized Bloch functions and their
adjoint partners, Hill-discriminant data from ODE integration, projection
norms |d_n(t)|, spectral singularities, and the classification of the
spectral-expansion form, for q(x) = a e^{-2 pi i x} + b e^{2 pi i x}.
"""

from .errors import (ContourError, ConvergenceError, DegenerateProductError,
                     FormMismatchError, MathieuSpecError,
                     MultipleEigenvalueError, PoleProximityError,
                     QuadratureError, SimplenessError, StepSizeUnderflowError,
                     TrackingAmbiguityError, ValidationError)
from .potential import (AsymptoticConstants, DiophantineVerdict, LogComplex,
                        MathieuPotential, alpha_of, antiperiodic_pair,
                        asymptotic_constants, check_diophantine,
                        format_complex, parse_complex, parse_rational,
                        periodic_pair, snap_rational)
from .floquet import (BandSolver, BlochCurveSet, EndpointSpectrum,
                      TruncatedOperator, assemble, default_grid,
                      endpoint_spectrum, free_lambda, track_curves)
from .discriminant import (CriticalPoint, EigenRoot, FundamentalData,
                           count_roots, dn_via_wronskian, eigenvalues_at,
                           find_critical_points, fundamental_solutions)
from .asymptotic import (DTerm, PredictedDegeneracy, SeriesValue, A_series,
                         D_of, a_series_term, asymptotic_lambda,
                         b_series_leading, b_series_term, predict_double)
from .spectrality import (EssRecord, InverseIntegral, ProjectionProfile,
                          RegionDecomposition, SpectralityReport,
                          classify_operator, detect_singularities, dn_profile,
                          dn_profiles,
                          integral_inverse_dn, make_solver,
                          region_decomposition)
from .expansion import (ExpansionPlan, ResidualReport, TestFunction,
                        bloch_coefficient, coefficient_from_vectors,
                        make_plan, reconstruct)

__version__ = "0.1.0"
