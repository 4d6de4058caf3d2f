"""The toolkit's exception types, ``raised``: a batch's first error, and
``check_keys``: a JSON object's key set."""


class ReebAtlasError(Exception):
    """Base class for all toolkit errors."""


class DomainError(ReebAtlasError):
    """Input outside the mathematical domain of an operation."""


class OffLevelError(DomainError):
    """Point is not on the unit energy level within tolerance."""


class FrameDegeneracyError(ReebAtlasError):
    """The global contact-plane frame degenerates at a point.

    A degenerate frame would silently corrupt every index computed
    downstream, so this is always a hard error.
    """

    def __init__(self, point, norm):
        self.point = point
        self.norm = norm
        super().__init__(
            f"frame generator has norm {norm:.3e} < 1e-6 at {point}; "
            "refine the sampling or reject the form"
        )


class StiffnessError(ReebAtlasError):
    """Integrator step size underflowed; carries the last good state."""

    def __init__(self, message, t_last, y_last):
        self.t_last = t_last
        self.y_last = y_last
        super().__init__(message)


class RefinementError(ReebAtlasError):
    """Newton refinement of a candidate periodic orbit failed."""


class DegenerateOrbitError(ReebAtlasError):
    """Operation requires a non-degenerate orbit."""


class ResolutionError(ReebAtlasError):
    """Sampled data are too coarse for a reliable answer."""


class ProximityError(ReebAtlasError):
    """Curves are too close together for a reliable linking number."""


class PoleSelectionError(ReebAtlasError):
    """No admissible stereographic pole among the candidate directions."""


class GridQualityError(ReebAtlasError):
    """Disk grid fails a quality requirement (degenerate cell, bad quadrature)."""


class InconsistencyError(ReebAtlasError):
    """Two internally computed quantities disagree where theory says they cannot."""


class ConfigError(DomainError):
    """Malformed run configuration or form; carries a JSON pointer to the
    bad field."""

    def __init__(self, message, pointer=""):
        self.message, self.pointer = message, pointer
        super().__init__(f"{message} (at {pointer})" if pointer else message)


class MissingArtifactError(ReebAtlasError):
    """A prerequisite artifact file is missing; names the producing command."""

    def __init__(self, path, producer):
        self.path = path
        self.producer = producer
        super().__init__(f"missing artifact {path}; produce it with `{producer}`")


def raised(values):
    """A batch's per-row results ``values`` unchanged, or the first
    exception among them, raised."""
    for v in values:
        if isinstance(v, Exception):
            raise v
    return values


def check_keys(obj, required, optional, where):
    """Refuse ``obj``, at JSON pointer ``where`` (``/`` for the root), unless
    it is an object that holds each key of ``required`` and no key outside
    ``required`` and ``optional``; the error points at the first missing
    key, else at the first unknown one, in sorted order."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{obj!r} is not a JSON object", where or "/")
    missing = sorted(set(required) - set(obj))
    unknown = sorted(set(obj) - set(required) - set(optional))
    if missing or unknown:
        key = (missing or unknown)[0]
        raise ConfigError(f"{'missing' if missing else 'unknown'} key {key!r}",
                          f"{where}/{key}")
