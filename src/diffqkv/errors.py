"""Exception types shared across the package."""


class DiffQKVError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(DiffQKVError, ValueError):
    """A configuration value is invalid or an operation was called with an
    incompatible configuration (e.g. augmented Q requested with aug_q_dim=0)."""


class DivisibilityError(ConfigError):
    """The number of Q heads is not an exact multiple of a K/V head count."""


class DimensionError(ConfigError):
    """A dimension constraint is violated (d_k_head > d_head, odd rotary dim,
    n_q_heads * d_head != d_model, ...)."""


class ShapeError(DiffQKVError, ValueError):
    """A tensor argument does not have the shape the operation requires."""


class CapacityError(DiffQKVError, ValueError):
    """Cache constructed with a non-positive capacity."""


class CapacityExceededError(DiffQKVError, RuntimeError):
    """An append or incremental feed would grow a cache past its reserved capacity."""


class EmptyInputError(DiffQKVError, ValueError):
    """An operation was given nothing to work on: a kernel call with no cached
    key below its causal limit, decode with an empty prompt, or a training
    step with an empty batch."""


class TokenRangeError(DiffQKVError, ValueError):
    """A token id falls outside [0, vocab_size)."""


class LengthError(DiffQKVError, ValueError):
    """A token sequence is longer than the model's max_seq_len."""


class PositionError(DiffQKVError, ValueError):
    """An incremental pass was given a start position other than the number of
    positions its caches already hold, or a causal limit past them."""


class DivergenceError(DiffQKVError, ArithmeticError):
    """Training produced a non-finite loss."""


class ConfigFileError(ConfigError):
    """A config file contains an unknown key, a malformed line, or is missing
    a required field."""


class UsageError(DiffQKVError, ValueError):
    """A CLI, benchmark or library argument is outside its accepted range
    (exit code 2 in the CLI)."""

