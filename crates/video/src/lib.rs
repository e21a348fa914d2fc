//! # vqpy-video
//!
//! Synthetic surveillance-video substrate for the VQPy reproduction.
//!
//! The paper evaluates on real camera streams (CityFlow-NL, Banff, Jackson
//! Hole, Southampton, Auburn) that are not available offline, so this crate
//! provides the closest synthetic equivalent: deterministic scenes of
//! vehicles, pedestrians, and balls with full ground truth, rendered into
//! real (downscaled) pixel buffers.
//!
//! What downstream crates rely on:
//! - [`scene::Scene::truth_at`] — the per-frame answer key that simulated
//!   models observe (noisily) and that accuracy scoring uses.
//! - [`frame::PixelBuffer`] — real pixels for differencing frame filters and
//!   the pixel-reading color classifier: the scene's background plus the
//!   frame's entities as a paint list, rendered only where they are read.
//! - [`source::VideoSource`] — streaming access; frames are decoded on
//!   demand, never materialized wholesale.
//!
//! ## Example
//!
//! ```
//! use vqpy_video::{presets, scene::Scene, source::{SyntheticVideo, VideoSource}};
//!
//! let scene = Scene::generate(presets::banff(), 42, 10.0);
//! let video = SyntheticVideo::new(scene);
//! let frame = video.frame(0);
//! assert_eq!(video.fps(), 15);
//! assert!(frame.pixels.width() > 0);
//! ```

pub mod color;
pub mod entity;
pub mod events;
pub mod frame;
pub mod geometry;
pub mod presets;
pub mod render;
pub mod scene;
pub mod source;
pub mod trajectory;

pub use color::NamedColor;
pub use entity::{Entity, EntityAttrs, EntityId, PersonAction, VehicleType};
pub use events::{Interaction, InteractionKind, ScriptedEvent};
pub use frame::{Frame, PixelBuffer};
pub use geometry::{BBox, Point};
pub use presets::CameraPreset;
pub use scene::{GroundTruth, Scene, SceneBuilder, VisibleEntity};
pub use source::{frames, Clip, DecodeFault, FaultyVideo, SyntheticVideo, VideoSource};
pub use trajectory::{Direction, Trajectory, Waypoint};
