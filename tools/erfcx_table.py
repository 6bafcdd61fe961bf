"""Print the piecewise polynomial table of erfcx that numerics.scaled_normal_tail reads.

    python tools/erfcx_table.py > table.txt

The table represents E(a) = erfcx(a/sqrt(2))/2, for a >= 0, as

    E(a) = U P_j(U - j),   U = N K/(K + a),   j = floor(U),

with N = 16 pieces of unit width in U, K = 3 and P_j of degree 8.  U maps
a in [0, inf) onto (0, N], so the pieces are fine where erfcx bends and
coarse in its 1/a tail; P_j(w) = E(a)/U tends to a constant as a -> inf,
so the relative accuracy of U P_j holds out to a = inf.  Piece N holds
the single point a = 0 (U = N).  Each P_j is mpmath's Chebyshev
interpolant at 120 bits of E/U on its piece, in powers of w = U - j in
[0, 1], and is printed with the shortest repr of each coefficient.
Requires mpmath.
"""

import mpmath as mp

N, K, DEGREE = 16, 3, 8


def main():
    mp.mp.prec = 120
    k = mp.mpf(K)

    def scaled(u):
        a = N * k / u - k
        t = a / mp.sqrt(2)
        return mp.exp(t * t) * mp.erfc(t) / 2 / u

    print("_ERFCX_PIECES = np.array([")
    for j in range(N + 1):
        coeffs = mp.chebyfit(lambda w: scaled(j + w), [0, 1], DEGREE + 1)
        row = [repr(float(c)) for c in coeffs[::-1]]  # w^0 first
        lines, line = [], "    ("
        for c in row:
            if len(line) + len(c) + 2 > 96:
                lines.append(line.rstrip())
                line = "     "
            line += c + ", "
        lines.append(line.rstrip(", ") + "),")
        print("\n".join(lines))
    print("]).T")


if __name__ == "__main__":
    main()
