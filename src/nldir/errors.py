"""Error types shared across the package.

Every anticipated failure raises an NldirError subclass carrying a
structured info dict, so the command line can report it as machine
readable JSON and exit with status 1. Anything else escaping is a bug.
"""

import numpy as np


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not np.isfinite(value):
        return repr(value)  # JSON has no NaN or Infinity
    if isinstance(value, np.ndarray):
        if value.size <= 32:
            return _jsonable(value.tolist())
        return {"size": int(value.size),
                "norm": _jsonable(float(np.linalg.norm(value)))}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


class NldirError(Exception):
    """Base domain error. Keyword arguments become payload entries."""

    def __init__(self, message, **info):
        super().__init__(message)
        self.info = dict(info)

    def payload(self):
        out = {"error": type(self).__name__, "message": str(self)}
        for key, value in self.info.items():
            out[key] = _jsonable(value)
        return out


class ConfigError(NldirError):
    """Invalid configuration value; info carries the offending field."""


class KernelError(NldirError):
    """Kernel construction, catalog lookup or validation failure."""


class QuadratureError(NldirError):
    """Quadrature ladder exhausted its point budget before converging."""


class MeshError(NldirError):
    """Degenerate shape, bad mesh parameters, or point outside the domain."""


class AssemblyError(NldirError):
    """Operator assembly rejected its inputs."""


class SolverError(NldirError):
    """Iteration-level failure, e.g. negative curvature in the CG loop."""


class MassFormError(NldirError):
    """Mass form failed the positive definiteness check."""


class MollifierError(NldirError):
    """Mollifier normalization weight vanished at some node."""
