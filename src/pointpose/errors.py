"""Exception types shared across the package.

The type alone says whose fault a failure is. An `InputError` is bad
input: a config value, or an input file that is malformed or does not
fit the run. Any other `PointPoseError` is a run that cannot finish on
valid input, such as a detection that finds no pose. The CLI exits 2 on
the first and 1 on the second.
"""


class PointPoseError(Exception):
    """Base class for all package-specific errors."""


class InputError(PointPoseError):
    """Bad input: an invalid config value or option, or an input file that
    is malformed or does not fit the run."""


class EmptyIndexError(PointPoseError):
    """Nearest-neighbor query against an index built from zero points."""


class DegenerateCorrespondencesError(PointPoseError):
    """Too few or rank-deficient point pairs for rigid alignment."""


class NoOverlapError(PointPoseError):
    """ICP never found enough correspondences at any schedule level."""


class EmptyNeighborhoodError(PointPoseError):
    """Spherical extraction found no usable points around the center."""


class InsufficientForegroundError(PointPoseError):
    """Scene has too few foreground points to sample positives from."""


class NoHypothesisError(PointPoseError):
    """Pose voting could not produce a hypothesis."""


class InvalidHypothesisError(PointPoseError):
    """Hypothesis violates its invariants (e.g. non-positive density score)."""


class NonFiniteSceneError(InputError, ValueError):
    """A scene point position is NaN or infinite."""


class MissingChannelError(InputError):
    """The scene lacks an input channel: RGB that the network weights
    expect, or the normals and curvatures of a training example."""


class DatasetFormatError(InputError):
    """Malformed training-example file."""


class PlyFormatError(InputError, ValueError):
    """Not a PLY file, or a PLY file this reader cannot parse."""


class SceneFormatError(InputError, ValueError):
    """A scene PLY of no points, or a malformed scene sidecar
    (`<scene>.json`): invalid JSON, or a pose, intrinsics or view origin of
    the wrong type or shape."""


class ModelFormatError(InputError, ValueError):
    """An object model PLY of no points or of a non-finite coordinate, or a
    malformed model sidecar (`<model>.json`): invalid JSON, or keypoints, a
    diameter or a symmetry of the wrong type, shape or value."""


class WeightsFormatError(InputError):
    """Malformed or mismatched network weights file."""


class ConfigError(InputError):
    """Unknown or invalid configuration key/value."""
