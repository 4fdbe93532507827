"""Exception types shared across the package."""


class PointPoseError(Exception):
    """Base class for all package-specific errors."""


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


class EmptySceneError(PointPoseError):
    """Detection was asked to run on an empty scene cloud."""


class NonFiniteSceneError(PointPoseError, ValueError):
    """A scene point position is NaN or infinite."""


class MissingChannelError(PointPoseError):
    """The scene lacks an input channel the network weights expect (RGB)."""


class DatasetFormatError(PointPoseError):
    """Malformed training-example file."""


class PlyFormatError(PointPoseError, ValueError):
    """Not a PLY file, or a PLY file this reader cannot parse."""


class SceneFormatError(PointPoseError, ValueError):
    """A scene PLY of no points, or a malformed scene sidecar
    (`<scene>.json`): invalid JSON, or a pose, intrinsics or view origin of
    the wrong type or shape."""


class ModelFormatError(PointPoseError, ValueError):
    """An object model PLY of no points or of a non-finite coordinate, or a
    malformed model sidecar (`<model>.json`): invalid JSON, or keypoints, a
    diameter or a symmetry of the wrong type, shape or value."""


class WeightsFormatError(PointPoseError):
    """Malformed or mismatched network weights file."""


class ConfigError(PointPoseError):
    """Unknown or invalid configuration key/value."""
