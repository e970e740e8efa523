"""Exception hierarchy.

Every computational precondition failure raises a subclass of OpmcError
carrying a short machine-readable ``code`` used by the CLI.
"""


class OpmcError(Exception):
    code = "error"


class InvalidRingError(OpmcError):
    code = "invalid-ring"


class NonUnitError(OpmcError):
    code = "non-unit"


class ShapeError(OpmcError):
    code = "shape"


class RingRequirementError(OpmcError):
    code = "ring-requirement"


class FreenessError(OpmcError):
    code = "freeness"


class CompletenessError(OpmcError):
    code = "completeness"


class ResourceLimitError(OpmcError):
    code = "resource-limit"


# Term and assignment cap of a job before it is refused as a resource limit
DEFAULT_RESOURCE_CAP = 200000


class UnsupportedError(OpmcError):
    code = "unsupported"


class PreconditionError(OpmcError):
    code = "precondition"


class ConventionError(OpmcError):
    """An operation was invoked outside the conventions it assumes
    (e.g. a construction only defined for flat structures)."""

    code = "convention"


class ValidationError(OpmcError):
    code = "validation"


class InternalCheckError(OpmcError):
    """Two independently computed forms of the same quantity disagreed.

    Signals a sign or normalization bug, never expected on valid input.
    """

    code = "internal-check"


class InstanceFormatError(OpmcError):
    code = "instance-format"
