"""The seeded CLI invocations of acceptance criterion 12."""

#: Contents of the points file the ``eval`` and ``glue`` invocations read.
POINTS = "0.25,0.1\n-0.3,0.44\n2.0,0.0\n"


def invocations(points: str) -> list[list[str]]:
    """The invocations in order; ``points`` is the path of a file holding :data:`POINTS`."""
    return [
        ["params", "--t", "1", "--K", "2", "--m", "19"],
        ["disks", "--t", "1", "--K", "2", "--m", "7", "--N", "2", "--side", "image",
         "--format", "csv"],
        ["eval", "--points", points, "--m", "19", "--depth", "24"],
        ["eval", "--points", points, "--m", "19", "--mode", "inverse"],
        ["eval", "--points", points, "--m", "19", "--mode", "jacobian"],
        ["lp-mass", "--p", "1.5", "--m", "19", "--samples", "5000", "--depth", "4",
         "--seed", "5"],
        ["lp-mass", "--p", "1.5", "--m", "19", "--samples", "5000", "--depth", "4",
         "--seed", "5", "--method", "uniform"],
        ["dimension", "--side", "image", "--N", "4", "--m", "7", "--seed", "3"],
        ["holder", "--t", "1", "--K", "2", "--m", "19", "--seed", "2"],
        ["packing", "--N", "2", "--m", "7", "--trials", "60", "--seed", "4"],
        ["growth", "--N", "3", "--m", "7", "--trials", "6", "--depth", "4",
         "--samples", "400", "--seed", "6"],
        ["cauchy", "--alpha", "0.5", "--K", "1", "--t", "1.6", "--N", "2", "--seed", "1"],
        ["glue", "--t", "1", "--K", "2", "--hosts=-0.45,0.0,0.1;0.4,0.2,0.045",
         "--piece-m", "7,19", "--points", points],
    ]
