"""Exception types shared across the package."""


class TunescoutError(Exception):
    """Base class for all tunescout errors."""


class WavHeaderError(TunescoutError):
    """Malformed RIFF/WAVE header."""


class WavCodecError(TunescoutError):
    """WAV file uses a codec or layout we do not support."""


class WavTruncatedError(TunescoutError):
    """Data chunk is shorter than the header promises."""


class DbError(TunescoutError):
    """Base class for database file errors."""


class DbMagicError(DbError):
    """File does not start with the expected magic bytes."""


class DbVersionError(DbError):
    """File version is not one we can read."""


class DbChecksumError(DbError):
    """Stored checksum does not match the file contents."""


class DbBoundsError(DbError):
    """A section offset or length points outside the file."""


class WeightsFormatError(TunescoutError):
    """Malformed weight file."""


class ConfigError(TunescoutError):
    """A config, TUNESCOUT_SEED or corpus.json the program cannot use."""
