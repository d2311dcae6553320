"""Exception hierarchy shared by the library and the command line tool.

Every error raised on a documented failure path derives from ToolError so
the CLI can map it to a stable exit code: UsageError -> 2, DataError -> 3,
ComputeError -> 4.  Plain ValueError/TypeError remain reserved for
programming mistakes (bad argument types, malformed arrays).
"""


class ToolError(Exception):
    """Base class for all documented failure modes."""

    exit_code = 4


class UsageError(ToolError):
    """Bad command line usage (unknown flag combinations, missing args)."""

    exit_code = 2


class DataError(ToolError):
    """Input data could not be loaded, parsed, or validated."""

    exit_code = 3


class ParseError(DataError):
    """Malformed file content.  Carries the offending path and line."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f"{path}"
            if line is not None:
                loc += f":{line}"
            loc = f" [{loc}]"
        super().__init__(f"{message}{loc}")
        self.path = path
        self.line = line


class ManifestError(DataError):
    """A JSON input (manifest, scenario or calibration file) is missing keys, has unknown keys, or bad values."""


class MissingFrameError(DataError):
    """Cloud sequence is shorter than the trajectory that indexes it."""


class EmptyTrajectoryError(DataError):
    """A user's trace has no samples or spans less than one frame interval."""


class ComputeError(ToolError):
    """A computation's preconditions were violated or it cannot proceed."""

    exit_code = 4


class InvalidParamsError(ComputeError):
    """Numeric parameters outside their documented domain."""


class SizeLimitError(ComputeError):
    """Exact clique search is only supported up to 64 users per graph."""


class MissingGraphError(ComputeError):
    """A geodesic metric was requested without a surface graph."""


class DegenerateLabelsError(ComputeError):
    """Calibration needs at least one positive and one negative label."""


class UnattainableTargetError(ComputeError):
    """No candidate threshold reaches the requested true-positive rate."""


class EmptySeriesError(ComputeError):
    """Aggregation over an empty (or all-invalid) series is undefined."""


class PreconditionError(ComputeError):
    """Operation invoked on inputs that violate a stated precondition."""
