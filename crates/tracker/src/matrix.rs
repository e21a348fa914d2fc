//! Minimal fixed-size matrix arithmetic for the Kalman filter.
//!
//! Dimensions are const generics, so shape errors are compile errors and no
//! allocation happens on the tracking hot path. The filter spells its
//! constant-shaped products out itself (see [`crate::kalman`]); what it
//! takes from here is the [`Mat`] type and the innovation's [`invert`].
//! The general dense helpers (`identity`, `matmul`, `matvec`,
//! `transpose`, `add`, `sub`) are test-only: they build the dense
//! reference filter the structured one is held to, bit for bit.

/// An `R x C` matrix of `f32`, stored row-major.
pub type Mat<const R: usize, const C: usize> = [[f32; C]; R];

/// Inverse by Gauss-Jordan elimination with partial pivoting, in `f64`,
/// for `N <= 4`.
///
/// Returns `None` for (near-)singular matrices.
pub fn invert<const N: usize>(a: &Mat<N, N>) -> Option<Mat<N, N>> {
    assert!(N <= 4, "invert supports N <= 4");
    // `[a | I]`: the elimination runs over these `2N` columns only.
    let width = 2 * N;
    let mut aug = [[0.0f64; 8]; 4];
    for i in 0..N {
        for j in 0..N {
            aug[i][j] = a[i][j] as f64;
        }
        aug[i][N + i] = 1.0;
    }
    for col in 0..N {
        // Partial pivot.
        let mut pivot = col;
        for r in (col + 1)..N {
            if aug[r][col].abs() > aug[pivot][col].abs() {
                pivot = r;
            }
        }
        if aug[pivot][col].abs() < 1e-12 {
            return None;
        }
        aug.swap(pivot, col);
        let div = aug[col][col];
        for v in &mut aug[col][..width] {
            *v /= div;
        }
        let pivot_row = aug[col];
        for (r, row) in aug[..N].iter_mut().enumerate() {
            let factor = row[col];
            if r == col || factor == 0.0 {
                continue;
            }
            for (v, pv) in row[..width].iter_mut().zip(&pivot_row[..width]) {
                *v -= factor * pv;
            }
        }
    }
    let mut out = [[0.0f32; N]; N];
    for i in 0..N {
        for j in 0..N {
            out[i][j] = aug[i][N + j] as f32;
        }
    }
    Some(out)
}

/// The dense reference arithmetic: general products over every entry.
#[cfg(test)]
pub(crate) mod dense {
    use super::Mat;

    /// The `N x N` identity matrix.
    pub fn identity<const N: usize>() -> Mat<N, N> {
        let mut m = [[0.0; N]; N];
        for (i, row) in m.iter_mut().enumerate() {
            row[i] = 1.0;
        }
        m
    }

    /// Matrix product `a * b`.
    pub fn matmul<const R: usize, const K: usize, const C: usize>(
        a: &Mat<R, K>,
        b: &Mat<K, C>,
    ) -> Mat<R, C> {
        let mut out = [[0.0; C]; R];
        for i in 0..R {
            for k in 0..K {
                let aik = a[i][k];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..C {
                    out[i][j] += aik * b[k][j];
                }
            }
        }
        out
    }

    /// Matrix-vector product `a * v`.
    pub fn matvec<const R: usize, const C: usize>(a: &Mat<R, C>, v: &[f32; C]) -> [f32; R] {
        let mut out = [0.0; R];
        for i in 0..R {
            for j in 0..C {
                out[i] += a[i][j] * v[j];
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose<const R: usize, const C: usize>(a: &Mat<R, C>) -> Mat<C, R> {
        let mut out = [[0.0; R]; C];
        for i in 0..R {
            for j in 0..C {
                out[j][i] = a[i][j];
            }
        }
        out
    }

    /// Element-wise sum.
    pub fn add<const R: usize, const C: usize>(a: &Mat<R, C>, b: &Mat<R, C>) -> Mat<R, C> {
        let mut out = [[0.0; C]; R];
        for i in 0..R {
            for j in 0..C {
                out[i][j] = a[i][j] + b[i][j];
            }
        }
        out
    }

    /// Element-wise difference `a - b`.
    pub fn sub<const R: usize, const C: usize>(a: &Mat<R, C>, b: &Mat<R, C>) -> Mat<R, C> {
        let mut out = [[0.0; C]; R];
        for i in 0..R {
            for j in 0..C {
                out[i][j] = a[i][j] - b[i][j];
            }
        }
        out
    }

    /// Inverse by Gauss-Jordan elimination with partial pivoting, over an
    /// `[a | I]` scratch 16 columns wide, every column eliminated.
    pub fn invert<const N: usize>(a: &Mat<N, N>) -> Option<Mat<N, N>> {
        let mut aug = [[0.0f64; 16]; 8];
        assert!(N <= 8, "invert supports N <= 8");
        for i in 0..N {
            for j in 0..N {
                aug[i][j] = a[i][j] as f64;
            }
            aug[i][N + i] = 1.0;
        }
        for col in 0..N {
            let mut pivot = col;
            for r in (col + 1)..N {
                if aug[r][col].abs() > aug[pivot][col].abs() {
                    pivot = r;
                }
            }
            if aug[pivot][col].abs() < 1e-12 {
                return None;
            }
            aug.swap(pivot, col);
            let div = aug[col][col];
            for v in aug[col].iter_mut() {
                *v /= div;
            }
            for r in 0..N {
                if r == col {
                    continue;
                }
                let factor = aug[r][col];
                if factor == 0.0 {
                    continue;
                }
                let pivot_row = aug[col];
                for (v, pv) in aug[r].iter_mut().zip(pivot_row.iter()) {
                    *v -= factor * pv;
                }
            }
        }
        let mut out = [[0.0f32; N]; N];
        for i in 0..N {
            for j in 0..N {
                out[i][j] = aug[i][N + j] as f32;
            }
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::dense::{add, identity, matmul, matvec, sub, transpose};
    use super::*;

    fn approx_eq<const R: usize, const C: usize>(a: &Mat<R, C>, b: &Mat<R, C>, tol: f32) -> bool {
        (0..R).all(|i| (0..C).all(|j| (a[i][j] - b[i][j]).abs() < tol))
    }

    #[test]
    fn identity_multiplication() {
        let a: Mat<3, 3> = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 10.0]];
        let i = identity::<3>();
        assert!(approx_eq(&matmul(&a, &i), &a, 1e-6));
        assert!(approx_eq(&matmul(&i, &a), &a, 1e-6));
    }

    #[test]
    fn inverse_roundtrip() {
        let a: Mat<3, 3> = [[4.0, 7.0, 2.0], [3.0, 6.0, 1.0], [2.0, 5.0, 3.0]];
        let inv = invert(&a).expect("invertible");
        let prod = matmul(&a, &inv);
        assert!(approx_eq(&prod, &identity::<3>(), 1e-4), "{prod:?}");
    }

    #[test]
    fn singular_matrix_returns_none() {
        let a: Mat<2, 2> = [[1.0, 2.0], [2.0, 4.0]];
        assert!(invert(&a).is_none());
    }

    #[test]
    fn transpose_twice_is_identity_op() {
        let a: Mat<2, 3> = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]];
        assert_eq!(transpose(&transpose(&a)), a);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a: Mat<2, 2> = [[1.0, 2.0], [3.0, 4.0]];
        let v = [5.0, 6.0];
        let got = matvec(&a, &v);
        assert_eq!(got, [17.0, 39.0]);
    }

    #[test]
    fn add_sub_inverse() {
        let a: Mat<2, 2> = [[1.0, 2.0], [3.0, 4.0]];
        let b: Mat<2, 2> = [[0.5, 0.5], [0.5, 0.5]];
        assert_eq!(sub(&add(&a, &b), &b), a);
    }

    #[test]
    fn random_invertible_roundtrip() {
        for seed in 0u64..500 {
            // Build a diagonally-dominant (hence invertible) 4x4 matrix.
            let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            let mut next = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ((x % 1000) as f32) / 100.0 - 5.0
            };
            let mut a: Mat<4, 4> = [[0.0; 4]; 4];
            for (i, row) in a.iter_mut().enumerate() {
                for v in row.iter_mut() {
                    *v = next();
                }
                row[i] += 25.0;
            }
            let inv = invert(&a).expect("diagonally dominant is invertible");
            let prod = matmul(&a, &inv);
            assert!(approx_eq(&prod, &identity::<4>(), 1e-2), "seed {seed}");
        }
    }

    /// `invert` gives the dense inverse's bits, zero signs included:
    /// random 1×1 to 4×4 matrices with structural zeros, signed zeros and
    /// negative pivots, singular ones included.
    #[test]
    fn invert_is_bit_identical_to_the_dense_inverse() {
        fn check<const N: usize>(next: &mut impl FnMut() -> u64) {
            let mut a: Mat<N, N> = [[0.0; N]; N];
            for row in a.iter_mut() {
                for v in row.iter_mut() {
                    *v = match next() % 6 {
                        0 => 0.0,
                        1 => -0.0,
                        _ => (next() % 20_001) as f32 / 100.0 - 100.0,
                    };
                }
            }
            let bits = |m: Option<Mat<N, N>>| m.map(|m| m.map(|row| row.map(f32::to_bits)));
            assert_eq!(bits(invert(&a)), bits(dense::invert(&a)), "{a:?}");
        }
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..5_000 {
            check::<1>(&mut next);
            check::<2>(&mut next);
            check::<3>(&mut next);
            check::<4>(&mut next);
        }
    }
}
