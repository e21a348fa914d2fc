//! # vqpy-models
//!
//! Simulated model zoo for the VQPy reproduction.
//!
//! Real pretrained vision models (YOLOX, UPT, color CNNs) are unavailable in
//! this environment, so each model here is a *cost-and-noise simulator*: it
//! charges its declared cost to a virtual [`clock::Clock`] and samples the
//! frame's ground truth through a deterministic noise channel (recall,
//! confusion, jitter). Because the paper's evaluation compares *relative
//! runtimes at equal accuracy with identical models on both sides*, a
//! cost-faithful simulation reproduces exactly the quantity being measured:
//! how many model invocations each system performs.
//!
//! Determinism matters: a model asked about the same entity on the same
//! frame always answers identically (like a real frozen network), which is
//! what lets optimized and unoptimized plans reach identical accuracy.
//!
//! ## Example
//!
//! ```
//! use vqpy_models::{clock::Clock, zoo::ModelZoo};
//! use vqpy_video::{presets, scene::Scene, source::{SyntheticVideo, VideoSource}};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let zoo = ModelZoo::standard();
//! let video = SyntheticVideo::new(Scene::generate(presets::banff(), 1, 5.0));
//! let clock = Clock::new();
//! let detector = zoo.detector("yolox")?;
//! let detections = detector.detect(&video.frame(0), &clock);
//! assert!(clock.virtual_ms() >= 30.0); // one detector invocation charged
//! # let _ = detections;
//! # Ok(())
//! # }
//! ```

pub mod classifiers;
pub mod clock;
pub mod decode;
pub mod detection;
pub mod detectors;
pub mod fault;
pub mod frame_filters;
pub mod hoi;
pub mod traits;
pub mod value;
pub mod zoo;

pub use clock::{ChargeStat, Clock, ClockMode, CostUnits, DeviceModel, DeviceStat};
pub use decode::{DecodeError, FromRow, FromValue, Row};
pub use detection::{det_rng, Detection};
pub use fault::{FaultInjector, FaultPlan, ModelFault, FAULT_SPIKE_LABEL};
pub use traits::{
    Classifier, Detector, FrameClassifier, HoiModel, HoiTriple, ModelProfile, TaskKind,
    BATCH_OVERHEAD_FRACTION, DISPATCH_LABEL, DISPATCH_LAUNCH_COST,
};
pub use value::{Value, ValueKind};
pub use zoo::{LookupModelError, ModelZoo};
