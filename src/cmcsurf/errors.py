"""Exception hierarchy shared by all cmcsurf modules.

Every error carries a short kebab-case ``code`` that the CLI prints as
``ERROR[<code>]`` on stderr, so scripts can dispatch on failures without
parsing prose.
"""

from __future__ import annotations


class CmcError(Exception):
    """Base class for all cmcsurf errors."""

    code = "error"


class DegenerateFrameError(CmcError):
    """Gram-Schmidt residual became lightlike or zero."""

    code = "degenerate-frame"


class NonLorentzMetricError(CmcError):
    """Induced metric is not of signature (1,1) at the requested point."""

    code = "non-lorentz-metric"


class StencilOutOfDomainError(CmcError):
    """A finite-difference stencil left the patch domain."""

    code = "stencil-out-of-domain"


class ExprSyntaxError(CmcError):
    """Malformed profile expression; ``offset`` is the byte position."""

    code = "syntax"

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifierError(CmcError):
    """Identifier is neither ``u``, a grammar function, nor a bound constant."""

    code = "unknown-identifier"

    def __init__(self, name: str, offset: int = -1):
        where = f" (at offset {offset})" if offset >= 0 else ""
        super().__init__(f"unknown identifier '{name}'{where}")
        self.name = name
        self.offset = offset


class EvalDomainError(CmcError):
    """Evaluation left the domain of a grammar function; carries the offending u."""

    code = "domain"

    def __init__(self, message: str, u: float):
        super().__init__(f"{message} at u={u!r}")
        self.u = u


class InvariantViolationError(CmcError):
    """A generating-curve invariant (arc-length, positivity) failed."""

    code = "invariant-violation"


class NearNullSlopeError(CmcError):
    """(r')^2 is within the exclusion band around 1 (hyperbolic surfaces)."""

    code = "near-null-slope"


class CaseMismatchError(CmcError):
    """Profile slope does not match the requested hyperbolic case."""

    code = "case-mismatch"


class NegativeRadicandError(CmcError):
    """The phi-equation radicand is negative: the (h_sign, C) choice is
    infeasible at the reported u."""

    code = "negative-radicand"

    def __init__(self, message: str, u: float):
        super().__init__(f"{message} at u={u!r}")
        self.u = u


class BasePointError(CmcError, ValueError):
    """The quadrature base point u0 lies outside the generation interval."""

    code = "base-point"


class NonpositiveProfileError(CmcError):
    """Profile r(u) is not strictly positive where required."""

    code = "nonpositive-profile"


class ZeroDerivativeProfileError(CmcError):
    """Parabolic profile has f'(u) = 0 inside the working interval."""

    code = "zero-derivative-profile"


class QuadratureError(CmcError):
    """Adaptive quadrature could not reach the requested tolerance."""

    code = "quadrature-failure"
