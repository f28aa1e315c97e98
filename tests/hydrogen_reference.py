"""The reference hydrogen table at alpha*|W| = 0.15 eV, to five decimals.

n -> (bare -R_y/n**2, relativistic, quaternionic), in eV, with the
tabulated R_y = 13.6 eV.
"""

HYDROGEN_TABLE = {
    1: (-13.60000, -13.60090, -13.60083),
    2: (-3.40000, -3.40015, -3.40331),
    3: (-1.51111, -1.51116, -1.51854),
    4: (-0.85000, -0.85002, -0.86313),
    5: (-0.54400, -0.54401, -0.56430),
}
