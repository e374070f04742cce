"""Verification, recovery and discovery of correctable subsystems.

Given a quantum channel in Kraus form and a candidate subsystem
decomposition H = (H_A (x) H_B) ⊕ K, this package tests the
correctability of B, constructs the unitary recovery operation
explicitly, and — for unital channels — discovers the unitarily
correctable subsystems from the fixed-point algebra of the channel
composed with its dual.
"""

from .algebra import (AlgebraStructure, NoiselessSubsystems, algebra_structure,
                      commutant, enumerate_noiseless, noiseless_subsystems)
from .channel import (KrausChannel, channels_equal, compose, dual, fixed_point_basis,
                      to_superoperator)
from .correctability import (CorrectabilityCertificate, NoiselessResult,
                             check_correctable, check_noiseless)
from .demos import DemoSpec, demo_build, intersect_chords, planted_channel
from .errors import (BadParams, CertificateMismatch, DimensionMismatch, FactorMismatch,
                     LengthMismatch, MalformedInput, NotAnAlgebra, NotFinite,
                     NotHermitian, NotPartialIsometry, NotTracePreserving, NotUnital,
                     NumericalDegeneracy, PreconditionViolated, SubrecError,
                     UnluckySeed)
from .linalg import (DEFAULT_TOL, complete_to_unitary, dagger, frobenius, hermitian_eig,
                     majorizes, numeric_rank, operator_basis, partial_trace_b,
                     polar_isometry_on_support, unvec, vec)
from .recovery import (RecoveryResult, construct_recovery, recovery_to_correction,
                       verify_correction)
from .subsystem import (CodeMapCertificate, FactorResult, SubsystemDecomposition,
                        certify_code_map, embed_product, factor_on_range)
from .ucc import (InternalContradiction, UccReport, UccSubsystem, find_ucc,
                  rank_support_equivalence)

__version__ = "0.1.0"
