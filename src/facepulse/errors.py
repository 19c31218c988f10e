"""Exception hierarchy shared by all facepulse modules.

Two branches: InputError covers bad files, flags, and malformed sidecar
data (CLI exit code 1); ProcessingError covers failures inside the
estimation pipeline itself (CLI exit code 2).
"""


class FacePulseError(Exception):
    exit_code = 2


class InputError(FacePulseError):
    exit_code = 1


class ProcessingError(FacePulseError):
    exit_code = 2


# frame ingest
class MissingFileError(InputError):
    pass


class MalformedManifestError(InputError):
    pass


class SizeMismatchError(InputError):
    pass


class FrameReadError(ProcessingError):
    """The frames file could not be mapped; message carries the path and
    the byte counts."""


# face-box track
class EmptyTrackError(InputError):
    pass


class NonMonotonicIndicesError(InputError):
    pass


# trace / signal conditioning
class AllFramesInvalidError(ProcessingError):
    pass


class NonPositiveMeanError(ProcessingError):
    pass


class WindowTooShortError(ProcessingError):
    pass


class SignalTooShortError(ProcessingError):
    pass


class FlatSignalError(ProcessingError):
    """A pulse signal is constant throughout: no pulse to estimate."""


# windowed spectral estimation
class SessionTooShortError(ProcessingError):
    pass


class EmptyBandError(ProcessingError):
    pass


# evaluation
class EmptyWindowGtError(ProcessingError):
    pass
