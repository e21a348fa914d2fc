//! Detection outputs and deterministic simulation RNG.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use vqpy_video::entity::EntityId;
use vqpy_video::geometry::BBox;

/// One detected object on a frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// Detector class label: "car", "bus", "truck", "person", "ball".
    pub class_label: String,
    /// Detected box (jittered relative to ground truth).
    pub bbox: BBox,
    /// Confidence score in `[0, 1]`.
    pub score: f32,
    /// Simulation linkage to the ground-truth entity. `None` for false
    /// positives. Only simulated attribute models and scorers may read it;
    /// query engines must treat detections as opaque.
    pub sim_entity: Option<EntityId>,
}

impl Detection {
    /// True positive detections carry their source entity.
    pub fn is_true_positive(&self) -> bool {
        self.sim_entity.is_some()
    }
}

/// Deterministic RNG for a simulation decision.
///
/// Seeding with `(salt, frame, entity)` makes every model's noise
/// reproducible across runs and across *query plans*: the same model asked
/// about the same entity on the same frame always answers the same, which is
/// exactly how a deterministic neural network behaves. That property is what
/// lets optimized and unoptimized plans reach identical accuracy.
pub fn det_rng(salt: u64, frame: u64, entity: u64) -> SmallRng {
    let mut h = salt ^ 0x517C_C1B7_2722_0A95;
    for v in [frame, entity] {
        h ^= v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h = h.rotate_left(23).wrapping_mul(0x2545_F491_4F6C_DD1D);
    }
    SmallRng::seed_from_u64(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn det_rng_is_deterministic() {
        let a: f64 = det_rng(1, 2, 3).gen();
        let b: f64 = det_rng(1, 2, 3).gen();
        assert_eq!(a, b);
    }

    #[test]
    fn det_rng_varies_with_inputs() {
        let a: f64 = det_rng(1, 2, 3).gen();
        let b: f64 = det_rng(1, 2, 4).gen();
        let c: f64 = det_rng(1, 3, 3).gen();
        let d: f64 = det_rng(2, 2, 3).gen();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }
}
