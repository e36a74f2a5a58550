"""Exception types shared across the package, and the resource limits."""

MAX_GROUP_ORDER = 10000  # closure size in generate, element order in element_order
MAX_SUBGROUP_ENUMERATION = 200  # group order for subgroups
MAX_RESOLUTION_ORDER = 48  # group order for resolution
MAX_RESOLUTION_DEPTH = 10  # depth for resolution; mu is searched up to depth - 1
MAX_BOX_RADIUS = 8  # infinity-norm radius of the invariants box in the CLI
MAX_BOX_POINTS = 17**5  # (2 radius + 1)^n points of the invariants box: radius 8 at n = 5
MAX_QUOTIENT_INDEX = 1_000_000  # lattice index whose cosets covers enumerates
MAX_PRIMALITY = 3_317_044_064_679_887_385_961_981  # is_prime is exact below it


class NonUnimodularError(ValueError):
    """An integer matrix that must lie in GL_n(Z) has |det| != 1."""


class BoundExceededError(RuntimeError):
    """A resource limit was passed (one of the limits above, an orbit norm
    guard, or the int64 prime bound of F_p elimination)."""
