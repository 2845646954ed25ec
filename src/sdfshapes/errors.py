"""Exception types shared across the package."""


class SdfShapesError(Exception):
    """Base class for all package-specific errors."""


class MeshParseError(SdfShapesError):
    """Malformed mesh file; carries the offending line number."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class IndexOutOfRange(SdfShapesError):
    pass


class DegenerateMesh(SdfShapesError):
    pass


class ZeroArea(SdfShapesError):
    pass


class InvalidCount(SdfShapesError):
    pass


class DimensionMismatch(SdfShapesError):
    pass


class ShapeMismatch(SdfShapesError):
    pass


class TooFewPoints(SdfShapesError):
    pass


class EmptySurfaceSet(SdfShapesError):
    pass


class ConfigMismatch(SdfShapesError):
    pass


class NonFiniteLoss(SdfShapesError):
    pass


class NonFiniteValue(SdfShapesError):
    pass


class InvalidResolution(SdfShapesError):
    pass


class NetworkTooLarge(SdfShapesError):
    pass


class NotConvex(SdfShapesError):
    pass


class DuplicateIndex(SdfShapesError):
    pass


class InterpCountTooLarge(SdfShapesError):
    pass


class EmptySet(SdfShapesError):
    pass


class TooFewMeshes(SdfShapesError):
    pass


class UnknownKey(SdfShapesError):
    pass


class BadValue(SdfShapesError):
    pass


class BadMagic(SdfShapesError):
    pass


class UnsupportedVersion(SdfShapesError):
    pass


class TruncatedFile(SdfShapesError):
    pass


class ShapeInconsistency(SdfShapesError):
    pass
