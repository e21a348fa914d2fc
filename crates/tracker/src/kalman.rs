//! Constant-velocity Kalman filter over bounding boxes.
//!
//! State is `[cx, cy, w, h, vcx, vcy, vw, vh]`; measurements are box
//! `[cx, cy, w, h]`. This is the "lightweight tracker based on the Kalman
//! filter" that §4.2 uses to re-identify objects across frames and unlock
//! intrinsic-property reuse.
//!
//! The model's matrices are constants, so they are the shape of the code
//! rather than fields: the transition is `F = [[I, I], [0, I]]`, the
//! observation `H = [I 0]`, and the noises `Q` and `R` are diagonal. A
//! filter holds only its state `x` and covariance `P`. With `P` in 4×4
//! blocks `[[A, B], [C, D]]`, `predict` is block sums,
//! `P' = [[A+C + B+D, B+D], [C+D, D]] + Q`; `update` reads `P Hᵀ` as `P`'s
//! first four columns and `S` as its top-left block plus `R`, so only
//! `K = P Hᵀ S⁻¹` and `(I − K H) P` are real products.
//!
//! Every result is bit-identical to the dense formulation (`F P Fᵀ + Q`
//! and friends, built from [`crate::matrix`]'s reference helpers in the
//! tests): each kept sum runs in the dense order, and the dense sums'
//! leading `0.0 +`, which turns `-0.0` into `+0.0`, is kept where it can
//! show. The terms dropped are the dense products' exact zeros, which
//! cannot change a sum that starts at `+0.0` while the state is finite.

use crate::matrix::{invert, Mat};
use vqpy_video::geometry::{BBox, Point};

const DIM_X: usize = 8;
const DIM_Z: usize = 4;

/// Process noise `Q`'s diagonal: position and size, then their velocities
/// (tuned for ~px-scale jitter).
const Q_POS: f32 = 1.0;
const Q_VEL: f32 = 0.1;
/// Measurement noise `R`'s diagonal.
const R_DIAG: f32 = 4.0;

/// A per-track Kalman filter.
#[derive(Debug, Clone, PartialEq)]
pub struct KalmanFilter {
    x: [f32; DIM_X],
    p: Mat<DIM_X, DIM_X>,
}

// A filter is its state and covariance: no constant rides along in a
// track or in a checkpoint's clone of it.
const _: () = assert!(std::mem::size_of::<KalmanFilter>() == (DIM_X + DIM_X * DIM_X) * 4);

fn measurement_of(bbox: &BBox) -> [f32; DIM_Z] {
    let c = bbox.center();
    [c.x, c.y, bbox.width(), bbox.height()]
}

impl KalmanFilter {
    /// Initializes a filter at a first observation.
    pub fn new(bbox: &BBox) -> Self {
        let mut x = [0.0; DIM_X];
        x[..DIM_Z].copy_from_slice(&measurement_of(bbox));
        // Generous initial velocity uncertainty.
        let mut p = [[0.0; DIM_X]; DIM_X];
        for (i, row) in p.iter_mut().enumerate() {
            row[i] = if i < DIM_Z { 10.0 } else { 1000.0 };
        }
        Self { x, p }
    }

    /// Advances the state one frame: `x' = F x`, `P' = F P Fᵀ + Q`.
    pub fn predict(&mut self) {
        let x = &mut self.x;
        for i in 0..DIM_Z {
            // Position += velocity.
            let (pos, vel) = (x[i], x[i + DIM_Z]);
            x[i] = (0.0 + pos) + vel;
            x[i + DIM_Z] = 0.0 + vel;
        }
        // Sizes must stay positive even under negative size velocity.
        x[2] = x[2].max(1.0);
        x[3] = x[3].max(1.0);
        let p = &self.p;
        let mut out = [[0.0; DIM_X]; DIM_X];
        for i in 0..DIM_Z {
            for j in 0..DIM_Z {
                let (a, b) = (p[i][j], p[i][j + DIM_Z]);
                let (c, d) = (p[i + DIM_Z][j], p[i + DIM_Z][j + DIM_Z]);
                out[i][j] = ((0.0 + a) + c) + ((0.0 + b) + d);
                out[i][j + DIM_Z] = (0.0 + b) + d;
                out[i + DIM_Z][j] = (0.0 + c) + (0.0 + d);
                out[i + DIM_Z][j + DIM_Z] = 0.0 + d;
            }
            out[i][i] += Q_POS;
            out[i + DIM_Z][i + DIM_Z] += Q_VEL;
        }
        self.p = out;
    }

    /// Folds in an observation.
    pub fn update(&mut self, bbox: &BBox) {
        let z = measurement_of(bbox);
        let p = &self.p;
        // S = H P Hᵀ + R: P's top-left block, R on its diagonal.
        let mut s = [[0.0; DIM_Z]; DIM_Z];
        for (i, row) in s.iter_mut().enumerate() {
            for (v, pv) in row.iter_mut().zip(&p[i]) {
                *v = 0.0 + pv;
            }
            row[i] += R_DIAG;
        }
        let Some(s_inv) = invert(&s) else {
            // Degenerate covariance: fall back to trusting the measurement.
            self.x[..DIM_Z].copy_from_slice(&z);
            return;
        };
        // K = P Hᵀ S⁻¹, where P Hᵀ is P's first four columns.
        let mut k = [[0.0; DIM_Z]; DIM_X];
        for (k_row, p_row) in k.iter_mut().zip(p) {
            for (j, kv) in k_row.iter_mut().enumerate() {
                let mut acc = 0.0;
                for m in 0..DIM_Z {
                    acc += p_row[m] * s_inv[m][j];
                }
                *kv = acc;
            }
        }
        // x += K (z − H x).
        let mut y = [0.0; DIM_Z];
        for i in 0..DIM_Z {
            y[i] = z[i] - (0.0 + self.x[i]);
        }
        for (x, k_row) in self.x.iter_mut().zip(&k) {
            let mut ky = 0.0;
            for (kv, yv) in k_row.iter().zip(&y) {
                ky += kv * yv;
            }
            *x += ky;
        }
        // P = (I − K H) P. I − K H is I but for its first four columns,
        // so each row is four products plus, below the top block, its
        // own row of P.
        let mut out = [[0.0; DIM_X]; DIM_X];
        for (i, (out_row, k_row)) in out.iter_mut().zip(&k).enumerate() {
            let mut ikh = [0.0; DIM_Z];
            for (m, v) in ikh.iter_mut().enumerate() {
                let eye = if i == m { 1.0 } else { 0.0 };
                *v = eye - (0.0 + k_row[m]);
            }
            for (j, o) in out_row.iter_mut().enumerate() {
                let mut acc = 0.0;
                for m in 0..DIM_Z {
                    acc += ikh[m] * p[m][j];
                }
                if i >= DIM_Z {
                    acc += p[i][j];
                }
                *o = acc;
            }
        }
        self.p = out;
    }

    /// Current state as a bounding box.
    pub fn bbox(&self) -> BBox {
        BBox::from_center(
            Point::new(self.x[0], self.x[1]),
            self.x[2].max(1.0),
            self.x[3].max(1.0),
        )
    }

    /// Estimated center velocity in pixels per frame.
    pub fn velocity(&self) -> Point {
        Point::new(self.x[4], self.x[5])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::dense::{self, add, identity, matmul, matvec, sub, transpose};

    #[test]
    fn converges_on_constant_velocity_motion() {
        let mut kf = KalmanFilter::new(&BBox::from_center(Point::new(100.0, 100.0), 40.0, 20.0));
        // Object moving +5 px/frame in x.
        for step in 1..=30 {
            kf.predict();
            let truth = BBox::from_center(Point::new(100.0 + 5.0 * step as f32, 100.0), 40.0, 20.0);
            kf.update(&truth);
        }
        let v = kf.velocity();
        assert!((v.x - 5.0).abs() < 0.5, "vx estimate {v:?}");
        assert!(v.y.abs() < 0.5, "vy estimate {v:?}");
        let c = kf.bbox().center();
        assert!((c.x - 250.0).abs() < 3.0);
    }

    #[test]
    fn prediction_extrapolates() {
        let mut kf = KalmanFilter::new(&BBox::from_center(Point::new(0.0, 0.0), 10.0, 10.0));
        for step in 1..=10 {
            kf.predict();
            kf.update(&BBox::from_center(
                Point::new(step as f32 * 3.0, 0.0),
                10.0,
                10.0,
            ));
        }
        // Two pure predictions should continue the motion.
        kf.predict();
        kf.predict();
        let c = kf.bbox().center();
        assert!((c.x - 36.0).abs() < 3.0, "extrapolated center {c:?}");
    }

    #[test]
    fn sizes_stay_positive() {
        let mut kf = KalmanFilter::new(&BBox::from_center(Point::new(0.0, 0.0), 5.0, 5.0));
        // Shrinking observations drive negative size velocity.
        for step in 1..=10 {
            kf.predict();
            let s = (5.0 - step as f32).max(0.5);
            kf.update(&BBox::from_center(Point::new(0.0, 0.0), s, s));
        }
        for _ in 0..20 {
            kf.predict();
        }
        assert!(kf.bbox().width() >= 1.0);
        assert!(kf.bbox().height() >= 1.0);
    }

    #[test]
    fn stationary_object_has_near_zero_velocity() {
        let b = BBox::from_center(Point::new(50.0, 60.0), 30.0, 30.0);
        let mut kf = KalmanFilter::new(&b);
        for _ in 0..20 {
            kf.predict();
            kf.update(&b);
        }
        assert!(kf.velocity().norm() < 0.2);
        assert!(kf.bbox().center().distance(&b.center()) < 1.0);
    }

    /// The dense formulation the filter is held to: every matrix stored,
    /// every step a general product.
    struct Dense {
        x: [f32; DIM_X],
        p: Mat<DIM_X, DIM_X>,
        f: Mat<DIM_X, DIM_X>,
        h: Mat<DIM_Z, DIM_X>,
        q: Mat<DIM_X, DIM_X>,
        r: Mat<DIM_Z, DIM_Z>,
    }

    impl Dense {
        fn new(bbox: &BBox) -> Self {
            let z = measurement_of(bbox);
            let mut x = [0.0; DIM_X];
            x[..4].copy_from_slice(&z);
            let mut f = identity::<DIM_X>();
            for i in 0..4 {
                f[i][i + 4] = 1.0;
            }
            let mut h = [[0.0; DIM_X]; DIM_Z];
            for (i, row) in h.iter_mut().enumerate() {
                row[i] = 1.0;
            }
            let mut p = identity::<DIM_X>();
            for (i, row) in p.iter_mut().enumerate() {
                row[i] = if i < 4 { 10.0 } else { 1000.0 };
            }
            let mut q = identity::<DIM_X>();
            for (i, row) in q.iter_mut().enumerate() {
                row[i] = if i < 4 { 1.0 } else { 0.1 };
            }
            let mut r = identity::<DIM_Z>();
            for (i, row) in r.iter_mut().enumerate() {
                row[i] = 4.0;
            }
            Self { x, p, f, h, q, r }
        }

        fn predict(&mut self) {
            self.x = matvec(&self.f, &self.x);
            self.x[2] = self.x[2].max(1.0);
            self.x[3] = self.x[3].max(1.0);
            let fp = matmul(&self.f, &self.p);
            self.p = add(&matmul(&fp, &transpose(&self.f)), &self.q);
        }

        /// Folds in `bbox`; false when S was degenerate.
        fn update(&mut self, bbox: &BBox) -> bool {
            let z = measurement_of(bbox);
            let hx = matvec(&self.h, &self.x);
            let mut y = [0.0; DIM_Z];
            for i in 0..DIM_Z {
                y[i] = z[i] - hx[i];
            }
            let ph_t = matmul(&self.p, &transpose(&self.h));
            let s = add(&matmul(&self.h, &ph_t), &self.r);
            let Some(s_inv) = dense::invert(&s) else {
                self.x[..4].copy_from_slice(&z);
                return false;
            };
            let k = matmul(&ph_t, &s_inv);
            let ky = matvec(&k, &y);
            for (x, dy) in self.x.iter_mut().zip(ky.iter()) {
                *x += dy;
            }
            let kh = matmul(&k, &self.h);
            let i_kh = sub(&identity::<DIM_X>(), &kh);
            self.p = matmul(&i_kh, &self.p);
            true
        }
    }

    /// xorshift64: the tests' seeded source of steps.
    struct Rng(u64);

    impl Rng {
        fn new(seed: u64) -> Self {
            Self(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
        }
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
        /// Uniform in `[lo, hi)`.
        fn range(&mut self, lo: f32, hi: f32) -> f32 {
            lo + (hi - lo) * ((self.next() >> 40) as f32 / (1u64 << 24) as f32)
        }
        fn chance(&mut self, one_in: u64) -> bool {
            self.next().is_multiple_of(one_in)
        }
    }

    fn bits<const N: usize>(v: &[f32; N]) -> [u32; N] {
        v.map(f32::to_bits)
    }

    /// Asserts `kf` and `dense` hold the same bits, naming the step.
    fn assert_same(kf: &KalmanFilter, dense: &Dense, what: &str) {
        assert_eq!(bits(&kf.x), bits(&dense.x), "x after {what}");
        for (i, (a, b)) in kf.p.iter().zip(&dense.p).enumerate() {
            assert_eq!(bits(a), bits(b), "P row {i} after {what}");
        }
    }

    /// A box near `kf`'s estimate: jittered, sometimes of zero size,
    /// sometimes far off.
    fn observation(rng: &mut Rng, kf: &KalmanFilter) -> BBox {
        let c = kf.bbox().center();
        if rng.chance(25) {
            // Zero-size boxes, signed zeros included.
            let (x, y) = if rng.chance(2) {
                (-0.0, -0.0)
            } else {
                (c.x, c.y)
            };
            return BBox {
                x1: x,
                y1: y,
                x2: x,
                y2: y,
            };
        }
        let (dx, dy) = if rng.chance(20) {
            (rng.range(-300.0, 300.0), rng.range(-300.0, 300.0))
        } else {
            (rng.range(-4.0, 4.0), rng.range(-4.0, 4.0))
        };
        BBox::from_center(
            Point::new(c.x + dx, c.y + dy),
            rng.range(0.0, 200.0),
            rng.range(0.0, 120.0),
        )
    }

    /// One tracked object's life: predicts, updates and predict-only gaps
    /// up to `max_age`, moving or standing still.
    fn trajectory(seed: u64, steps: usize) {
        let mut rng = Rng::new(seed);
        let first = BBox::from_center(
            Point::new(rng.range(-50.0, 1_000.0), rng.range(-50.0, 600.0)),
            rng.range(0.0, 200.0),
            rng.range(0.0, 120.0),
        );
        let (mut kf, mut dense) = (KalmanFilter::new(&first), Dense::new(&first));
        assert_same(&kf, &dense, "new");
        let stationary = rng.chance(3).then_some(first);
        let max_age = crate::sort::TrackerParams::default().max_age as u64;
        let mut step = 0;
        while step < steps {
            let gap = if rng.chance(8) {
                rng.next() % (max_age + 1)
            } else {
                0
            };
            for _ in 0..=gap {
                kf.predict();
                dense.predict();
                step += 1;
                assert_same(&kf, &dense, &format!("predict {step} (seed {seed})"));
            }
            let obs = stationary.unwrap_or_else(|| observation(&mut rng, &kf));
            kf.update(&obs);
            dense.update(&obs);
            assert_same(&kf, &dense, &format!("update {step} (seed {seed})"));
        }
    }

    #[test]
    fn structured_steps_are_bit_identical_to_the_dense_filter() {
        for seed in 0..300 {
            trajectory(seed, 150);
        }
    }

    /// States the tracker cannot reach on its own: signed-zero velocities
    /// and covariance entries, and arbitrary finite covariances.
    #[test]
    fn crafted_states_step_bit_identically() {
        let mut rng = Rng::new(7);
        for case in 0..2_000 {
            let b = BBox::from_center(Point::new(rng.range(-10.0, 10.0), 5.0), 10.0, 10.0);
            let (mut kf, mut dense) = (KalmanFilter::new(&b), Dense::new(&b));
            let zero = |rng: &mut Rng| if rng.chance(2) { -0.0 } else { 0.0 };
            for i in 0..DIM_X {
                kf.x[i] = if rng.chance(2) {
                    zero(&mut rng)
                } else {
                    rng.range(-5.0, 5.0)
                };
                for j in 0..DIM_X {
                    kf.p[i][j] = if rng.chance(3) {
                        zero(&mut rng)
                    } else {
                        rng.range(-50.0, 50.0)
                    };
                }
                kf.p[i][i] = rng.range(1.0, 2_000.0);
            }
            (dense.x, dense.p) = (kf.x, kf.p);
            for step in 0..4 {
                kf.predict();
                dense.predict();
                assert_same(&kf, &dense, &format!("predict {step} (case {case})"));
                let obs = b.translate(rng.range(-2.0, 2.0), zero(&mut rng));
                kf.update(&obs);
                dense.update(&obs);
                assert_same(&kf, &dense, &format!("update {step} (case {case})"));
            }
        }
    }

    /// A singular S takes the fallback on both paths: the measurement
    /// replaces the position, and P is left as it was.
    #[test]
    fn a_degenerate_innovation_trusts_the_measurement_on_both_paths() {
        let b = BBox::from_center(Point::new(20.0, 30.0), 8.0, 6.0);
        let (mut kf, mut dense) = (KalmanFilter::new(&b), Dense::new(&b));
        // P's top-left block = −R makes S zero.
        for i in 0..DIM_Z {
            kf.p[i][i] = -R_DIAG;
        }
        (dense.x, dense.p) = (kf.x, kf.p);
        let before = kf.p;
        let obs = BBox::from_center(Point::new(25.0, 31.0), 9.0, 7.0);
        kf.update(&obs);
        assert!(!dense.update(&obs), "S must be singular");
        assert_same(&kf, &dense, "degenerate update");
        assert_eq!(kf.x[..DIM_Z], measurement_of(&obs));
        assert_eq!(kf.p, before);
    }
}
