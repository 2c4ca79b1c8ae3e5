"""Characteristic polynomial against a spectrum: a check of the Laplacian
spectra in test_scheme and test_acceptance."""

from qjordan import bareiss_det


def charpoly_matches(matrix, spectrum) -> bool:
    """Does det(tI - matrix) equal prod (t - eig)^mult, exactly?

    Both sides are monic of degree |V|, so agreement at |V|+1 integer points
    proves equality of the characteristic polynomial with the spectrum.
    """
    mat = [[int(x) for x in row] for row in matrix]
    size = len(mat)
    for t in range(size + 1):
        shifted = [
            [(t if i == j else 0) - mat[i][j] for j in range(size)]
            for i in range(size)
        ]
        lhs = bareiss_det(shifted)
        rhs = 1
        for eig, mult in spectrum:
            rhs *= (t - eig) ** mult
        if lhs != rhs:
            return False
    return True
