"""The tests' one enumeration of the cube as points; lmqlab itself enumerates masks only."""

from lmqlab.cube import CubePoint


def cube_points(n: int) -> list[CubePoint]:
    """All 2^n points of {-1,+1}^n in mask order, which is lexicographic order of the coordinates with -1 < +1."""
    return [CubePoint(n, mask) for mask in range(1 << n)]
