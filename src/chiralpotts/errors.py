"""Exception types shared across the package."""


class ChiralPottsError(Exception):
    """Base of every typed error below; the CLI maps it to an exit code."""


class SizeGuardError(ChiralPottsError):
    """An exact-enumeration request exceeds the configured size guard."""


class NonRealRootError(ChiralPottsError):
    """A counts polynomial produced a root that could not be certified real."""


class RootClusterTooTightError(ChiralPottsError):
    """Two roots could not be separated at the working precision."""


class OrthogonalityViolationError(ChiralPottsError):
    """The Cauchy-kernel matrix failed its exact orthogonality identity,
    signalling insufficient working precision."""


class DomainError(ChiralPottsError):
    """A derived quantity left its proven domain (k' outside (0,1),
    lambda outside (1-k', 1+k'), a non-positive square-root argument)."""


class SingularConfigurationError(ChiralPottsError):
    """A subset overlap hit coincident roots across sectors, so a
    denominator of the closed product form vanished."""


class CurveMismatchError(ChiralPottsError):
    """A rapidity point failed the spectral-curve residual check."""


class DegenerateMaxEigenvalueError(ChiralPottsError):
    """A sector transfer matrix has no isolated top eigenvalue at the
    working tolerance, or ARPACK did not converge on the extreme
    eigenpair of a sector, so the overlap of interest is ill-defined."""


class EigenbasisMismatchError(ChiralPottsError):
    """The dominant transfer eigenvector and the Hamiltonian ground state
    of the same sector failed their proportionality check, or a transfer
    block couples different levels of the chain Hamiltonian that it must
    commute with."""


class CountingInvariantError(ChiralPottsError):
    """An exact structural fact of the counting failed: the degree, top
    coefficient, coefficient total N^(L-1) or projection identity of a
    sector counting polynomial, the root-count gap of a sector pair, or
    the configuration count or symmetry of the overlap table."""


class IdentityViolationError(ChiralPottsError):
    """Two sides of an identity disagreed beyond their bound: a power sum
    and its two-pole form, or a Hamiltonian block and its adjoint."""
