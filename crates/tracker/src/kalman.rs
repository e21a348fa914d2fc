//! Constant-velocity Kalman filter over bounding boxes.
//!
//! State is `[cx, cy, w, h, vcx, vcy, vw, vh]`; measurements are box
//! `[cx, cy, w, h]`. This is the "lightweight tracker based on the Kalman
//! filter" that §4.2 uses to re-identify objects across frames and unlock
//! intrinsic-property reuse.

use crate::matrix::{add, identity, invert, matmul, matvec, sub, transpose, Mat};
use vqpy_video::geometry::{BBox, Point};

const DIM_X: usize = 8;
const DIM_Z: usize = 4;

/// A per-track Kalman filter.
#[derive(Debug, Clone, PartialEq)]
pub struct KalmanFilter {
    x: [f32; DIM_X],
    p: Mat<DIM_X, DIM_X>,
    f: Mat<DIM_X, DIM_X>,
    h: Mat<DIM_Z, DIM_X>,
    q: Mat<DIM_X, DIM_X>,
    r: Mat<DIM_Z, DIM_Z>,
}

fn measurement_of(bbox: &BBox) -> [f32; DIM_Z] {
    let c = bbox.center();
    [c.x, c.y, bbox.width(), bbox.height()]
}

impl KalmanFilter {
    /// Initializes a filter at a first observation.
    pub fn new(bbox: &BBox) -> Self {
        let z = measurement_of(bbox);
        let mut x = [0.0; DIM_X];
        x[..4].copy_from_slice(&z);

        // Transition: position += velocity each step.
        let mut f = identity::<DIM_X>();
        for i in 0..4 {
            f[i][i + 4] = 1.0;
        }
        // Observation: we see position and size.
        let mut h = [[0.0; DIM_X]; DIM_Z];
        for (i, row) in h.iter_mut().enumerate() {
            row[i] = 1.0;
        }
        // Covariances: generous initial velocity uncertainty, modest
        // process and measurement noise (tuned for ~px-scale jitter).
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

    /// Advances the state one frame.
    pub fn predict(&mut self) {
        self.x = matvec(&self.f, &self.x);
        // Sizes must stay positive even under negative size velocity.
        self.x[2] = self.x[2].max(1.0);
        self.x[3] = self.x[3].max(1.0);
        let fp = matmul(&self.f, &self.p);
        self.p = add(&matmul(&fp, &transpose(&self.f)), &self.q);
    }

    /// Folds in an observation.
    pub fn update(&mut self, bbox: &BBox) {
        let z = measurement_of(bbox);
        let hx = matvec(&self.h, &self.x);
        let mut y = [0.0; DIM_Z];
        for i in 0..DIM_Z {
            y[i] = z[i] - hx[i];
        }
        let ph_t = matmul(&self.p, &transpose(&self.h));
        let s = add(&matmul(&self.h, &ph_t), &self.r);
        let Some(s_inv) = invert(&s) else {
            // Degenerate covariance: fall back to trusting the measurement.
            self.x[..4].copy_from_slice(&z);
            return;
        };
        let k = matmul(&ph_t, &s_inv);
        let ky = matvec(&k, &y);
        for (x, dy) in self.x.iter_mut().zip(ky.iter()) {
            *x += dy;
        }
        let kh = matmul(&k, &self.h);
        let i_kh = sub(&identity::<DIM_X>(), &kh);
        self.p = matmul(&i_kh, &self.p);
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
}
