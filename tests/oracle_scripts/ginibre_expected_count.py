"""Independent oracle: expected point count and count variance of the
truncated Ginibre sampler.

The disk process built from the first N eigenfunctions has expected count
sum_{k=0}^{N-1} lambda_k, lambda_k = P(Gamma(k+1,1) <= R^2) a regularized
lower incomplete gamma, and count variance sum_k lambda_k (1 - lambda_k).
Computed here with mpmath at 40 digits.
"""

import mpmath as mp

mp.mp.dps = 40


def eigenvalues(n_rank, radius):
    r2 = mp.mpf(radius) ** 2
    return [mp.gammainc(k + 1, 0, r2, regularized=True) for k in range(n_rank)]


def expected_count(n_rank, radius):
    return sum(eigenvalues(n_rank, radius))


def count_variance(n_rank, radius):
    return sum(lam * (1 - lam) for lam in eigenvalues(n_rank, radius))


def main():
    val = expected_count(40, 3.0)
    print("E[count], N=40, R=3:", mp.nstr(val, 20))
    print("Var[count], N=40, R=3:", mp.nstr(count_variance(40, 3.0), 20))
    # Per-eigenvalue sum for a couple of other configurations as cross-checks.
    print("E[count], N=16, R=2:", mp.nstr(expected_count(16, 2.0), 20))
    print("E[count], N=4,  R=1:", mp.nstr(expected_count(4, 1.0), 20))


if __name__ == "__main__":
    main()
