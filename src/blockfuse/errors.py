"""Exception hierarchy shared across the package."""


class BlockfuseError(Exception):
    """Base class for all domain errors."""


class ShapeError(BlockfuseError):
    """Tensor/layer dimension mismatch; message names the offending axis."""


class NumericError(BlockfuseError):
    """Non-finite values in a tensor, or BN statistics out of range."""


class GraphError(BlockfuseError):
    """IR-level violation: cycles, dangling references, bad block structure."""


class FormatError(BlockfuseError):
    """File-format violation in graph/weights/mask/latency files."""


class ConfigError(BlockfuseError, ValueError):
    """A setting out of its range, such as a training config with zero epochs."""


class MergeError(BlockfuseError):
    """A merge precondition does not hold (e.g. activations still present)."""
