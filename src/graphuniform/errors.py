"""Exception types shared across the package."""


class GeometryError(ValueError):
    """A geometric quantity is outside its valid range or violates an invariant."""


class NotHyperbolicError(GeometryError):
    """An isometry expected to be a hyperbolic translation is not one."""


class TangencyError(GeometryError):
    """A vector fails the tangency condition at its base point."""


class DegenerateEdgeError(GeometryError):
    """An edge of zero length where a geodesic direction is required."""


class DomainError(ValueError):
    """A parameter lies outside the domain of the requested family or formula."""


class GraphValidationError(ValueError):
    """A weighted graph violates a structural invariant.

    The `code` attribute carries a stable machine-readable tag.
    """

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


class SchemaError(ValueError):
    """A JSON document, or a setting read with it, does not match the expected schema.

    The `path` attribute locates the offending field or names the setting.
    """

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class BracketError(RuntimeError):
    """A one-dimensional search bracket does not contain the sought point."""


class NonConvergenceError(RuntimeError):
    """An iterative solve stopped before reaching its tolerance."""
