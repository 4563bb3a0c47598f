"""Exception types shared across the package.

The CLI maps these onto process exit codes: configuration problems exit
with 2, registration failures with 3, numeric faults with 4.
"""

from __future__ import annotations


class RegLabError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(RegLabError, ValueError):
    """Operands have incompatible shapes. Messages name both shapes."""


class DegenerateInputError(RegLabError, ValueError):
    """Input is structurally too thin for the operation (too few rows,
    collinear or coincident geometry, empty candidate list)."""


class ContractError(RegLabError, ValueError):
    """A documented precondition was violated (negative weights, all-zero
    weights, non-scalar loss, non-finite input)."""


class ConfigurationError(RegLabError, ValueError):
    """A configuration value is out of range or inconsistent."""


class ConvergenceError(RegLabError, RuntimeError):
    """An iterative solver exhausted its iteration budget. Carries the
    iteration count and the last residual in the message."""


class RegistrationFailure(RegLabError, RuntimeError):
    """No usable transform hypothesis could be produced."""


class NumericFault(RegLabError, ArithmeticError):
    """A non-finite value appeared where the contract requires finite
    results (NaN loss during training, overflow in a kernel)."""
