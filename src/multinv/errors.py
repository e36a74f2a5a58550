"""Exception types shared across the package, and the resource limits."""

MAX_GROUP_ORDER = 10000  # closure size in generate
MAX_SUBGROUP_ENUMERATION = 200  # group order for subgroups
MAX_SUBGROUPS = 3000  # subgroups that subgroups lists (diag(±1)^6 has 2825)
MAX_RESOLUTION_ORDER = 48  # group order for resolution
MAX_RESOLUTION_DEPTH = 10  # depth for resolution; mu is searched up to depth - 1
MAX_RESOLUTION_ENTRIES = 10_000_000  # entries of the boundary matrix one resolution step eliminates
MAX_BOX_RADIUS = 8  # infinity-norm radius of the invariants box in the CLI
MAX_BOX_POINTS = 17**5  # (2 radius + 1)^n points of the invariants box: radius 8 at n = 5
MAX_ORBIT_SPREAD = 8  # row l1-norm in box_orbits: orbits of the radius-B box stay within 8 B
MAX_PRIMALITY = 3_317_044_064_679_887_385_961_981  # is_prime is exact below it
MAX_PRIME = 3037000499  # the largest p with p * p < 2**63, for int64 F_p elimination
BLOCK_ENTRIES = 1 << 18  # entries of one block of a batched temporary


class NonUnimodularError(ValueError):
    """An integer matrix that must lie in GL_n(Z) has |det| != 1."""


class BoundExceededError(RuntimeError):
    """One of the resource limits above was passed."""
