//! Video sources: the stream abstraction the rest of the system consumes.
//!
//! [`VideoSource`] hides whether frames come from a whole synthetic video, a
//! clip of one, or (in a real deployment) a camera. Frames are produced on
//! demand — a 10-minute 15 fps clip is 9 000 frames and is never
//! materialized in memory at once.

use crate::frame::Frame;
use crate::render::render_truth;
use crate::scene::{Scene, SharedScene};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static NEXT_VIDEO_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates a process-unique video id (used as a cache key by
/// query-level result reuse).
pub fn fresh_video_id() -> u64 {
    NEXT_VIDEO_ID.fetch_add(1, Ordering::Relaxed)
}

/// A source of frames. Implementations must be cheap to clone-iterate:
/// `frame(i)` may be called out of order and from multiple threads.
pub trait VideoSource: Send + Sync {
    /// Stable identifier of the underlying video content.
    fn video_id(&self) -> u64;
    /// Frames per second.
    fn fps(&self) -> u32;
    /// Full resolution `(width, height)`.
    fn resolution(&self) -> (u32, u32);
    /// Number of frames available.
    fn frame_count(&self) -> u64;
    /// Produces frame `index`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `index >= frame_count()`.
    fn frame(&self, index: u64) -> Frame;

    /// Fallible twin of [`VideoSource::frame`]: the entry point decode
    /// loops call. A corrupt or undecodable frame surfaces as a
    /// [`DecodeFault`] so the executor can skip it with a counter instead
    /// of aborting the stream. The default delegates to the infallible
    /// `frame` (synthetic sources never fail to render).
    ///
    /// # Errors
    ///
    /// A [`DecodeFault`] when the frame exists but cannot be decoded.
    fn try_frame(&self, index: u64) -> Result<Frame, DecodeFault> {
        Ok(self.frame(index))
    }

    /// The scene behind this source, for ground-truth scoring. Returns
    /// `None` for sources without an answer key.
    fn scene(&self) -> Option<&Scene> {
        None
    }

    /// Duration in seconds.
    fn duration_s(&self) -> f64 {
        self.frame_count() as f64 / self.fps() as f64
    }
}

/// Iterator over all frames of a source.
pub struct Frames<'a> {
    source: &'a dyn VideoSource,
    next: u64,
}

impl<'a> Iterator for Frames<'a> {
    type Item = Frame;

    fn next(&mut self) -> Option<Frame> {
        if self.next >= self.source.frame_count() {
            return None;
        }
        let f = self.source.frame(self.next);
        self.next += 1;
        Some(f)
    }
}

/// Convenience: iterate any source's frames in order.
pub fn frames(source: &dyn VideoSource) -> Frames<'_> {
    Frames { source, next: 0 }
}

/// A synthetic video rendered from a [`Scene`].
#[derive(Debug, Clone)]
pub struct SyntheticVideo {
    scene: SharedScene,
    video_id: u64,
}

impl SyntheticVideo {
    /// Wraps a scene as a playable video.
    pub fn new(scene: Scene) -> Self {
        Self {
            scene: Arc::new(scene),
            video_id: fresh_video_id(),
        }
    }

    /// The underlying scene.
    pub fn scene_arc(&self) -> SharedScene {
        Arc::clone(&self.scene)
    }

    /// A clip spanning `[start_s, end_s)` seconds of this video.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or extends past the video.
    pub fn clip(&self, start_s: f64, end_s: f64) -> Clip {
        let fps = self.scene.preset.fps as f64;
        let start = (start_s * fps).floor() as u64;
        let end = (end_s * fps).floor() as u64;
        assert!(start < end, "empty clip");
        assert!(
            end <= self.frame_count(),
            "clip ends past the video ({} > {})",
            end,
            self.frame_count()
        );
        Clip {
            scene: Arc::clone(&self.scene),
            video_id: fresh_video_id(),
            start,
            len: end - start,
        }
    }
}

impl VideoSource for SyntheticVideo {
    fn video_id(&self) -> u64 {
        self.video_id
    }

    fn fps(&self) -> u32 {
        self.scene.preset.fps
    }

    fn resolution(&self) -> (u32, u32) {
        (self.scene.preset.width, self.scene.preset.height)
    }

    fn frame_count(&self) -> u64 {
        self.scene.frame_count()
    }

    fn frame(&self, index: u64) -> Frame {
        assert!(index < self.frame_count(), "frame index out of range");
        let truth = self.scene.truth_at(index);
        Frame {
            video_id: self.video_id,
            index,
            time_s: truth.time_s,
            pixels: render_truth(&self.scene, &truth),
            truth: Arc::new(truth),
        }
    }

    fn scene(&self) -> Option<&Scene> {
        Some(&self.scene)
    }
}

/// A contiguous sub-range of a synthetic video. Frame indices are
/// re-based to start at 0 so downstream code sees an ordinary video.
#[derive(Debug, Clone)]
pub struct Clip {
    scene: SharedScene,
    video_id: u64,
    start: u64,
    len: u64,
}

impl Clip {
    /// First frame of the clip in the parent video's numbering.
    pub fn start_frame(&self) -> u64 {
        self.start
    }
}

impl VideoSource for Clip {
    fn video_id(&self) -> u64 {
        self.video_id
    }

    fn fps(&self) -> u32 {
        self.scene.preset.fps
    }

    fn resolution(&self) -> (u32, u32) {
        (self.scene.preset.width, self.scene.preset.height)
    }

    fn frame_count(&self) -> u64 {
        self.len
    }

    fn frame(&self, index: u64) -> Frame {
        assert!(index < self.len, "frame index out of range");
        let mut truth = self.scene.truth_at(self.start + index);
        let pixels = render_truth(&self.scene, &truth);
        // Downstream code sees an ordinary video starting at frame 0.
        truth.frame = index;
        truth.time_s = self.scene.frame_time(index);
        Frame {
            video_id: self.video_id,
            index,
            time_s: truth.time_s,
            pixels,
            truth: Arc::new(truth),
        }
    }

    fn scene(&self) -> Option<&Scene> {
        Some(&self.scene)
    }
}

/// A frame that exists but cannot be decoded (bitstream corruption,
/// truncated packet, reference loss after a dropped keyframe).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeFault {
    /// The source's video id.
    pub video_id: u64,
    /// Index of the undecodable frame.
    pub frame: u64,
}

impl fmt::Display for DecodeFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "frame {} of video {} failed to decode",
            self.frame, self.video_id
        )
    }
}

impl std::error::Error for DecodeFault {}

/// A wrapper that corrupts an explicit set of frames of any source:
/// [`VideoSource::try_frame`] returns a [`DecodeFault`] for them and the
/// infallible [`VideoSource::frame`] panics (mirroring a real decoder
/// hitting unrecoverable bitstream damage on the legacy path).
///
/// The corrupt set is fixed at construction, so a chaos schedule is
/// exactly reproducible: the same indices fail on every run.
pub struct FaultyVideo {
    inner: Arc<dyn VideoSource>,
    corrupt: BTreeSet<u64>,
}

impl FaultyVideo {
    /// Wraps `inner`, corrupting exactly the given frame indices.
    pub fn new(inner: Arc<dyn VideoSource>, corrupt: impl IntoIterator<Item = u64>) -> Self {
        Self {
            inner,
            corrupt: corrupt.into_iter().collect(),
        }
    }

    /// The corrupt frame indices, in order.
    pub fn corrupt_frames(&self) -> impl Iterator<Item = u64> + '_ {
        self.corrupt.iter().copied()
    }
}

impl VideoSource for FaultyVideo {
    fn video_id(&self) -> u64 {
        self.inner.video_id()
    }

    fn fps(&self) -> u32 {
        self.inner.fps()
    }

    fn resolution(&self) -> (u32, u32) {
        self.inner.resolution()
    }

    fn frame_count(&self) -> u64 {
        self.inner.frame_count()
    }

    fn frame(&self, index: u64) -> Frame {
        assert!(
            !self.corrupt.contains(&index),
            "frame {index} is corrupt and cannot be decoded"
        );
        self.inner.frame(index)
    }

    fn try_frame(&self, index: u64) -> Result<Frame, DecodeFault> {
        if self.corrupt.contains(&index) {
            return Err(DecodeFault {
                video_id: self.video_id(),
                frame: index,
            });
        }
        self.inner.try_frame(index)
    }

    fn scene(&self) -> Option<&Scene> {
        self.inner.scene()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn video() -> SyntheticVideo {
        SyntheticVideo::new(Scene::generate(presets::banff(), 9, 20.0))
    }

    #[test]
    fn frame_count_matches_duration() {
        let v = video();
        assert_eq!(v.frame_count(), 20 * 15);
        assert!((v.duration_s() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn frames_are_reproducible() {
        let v = video();
        let a = v.frame(100);
        let b = v.frame(100);
        assert_eq!(a.pixels, b.pixels);
        assert_eq!(a.truth.visible, b.truth.visible);
    }

    #[test]
    fn clip_rebases_indices() {
        let v = video();
        let c = v.clip(5.0, 10.0);
        assert_eq!(c.frame_count(), 5 * 15);
        let f = c.frame(0);
        assert_eq!(f.index, 0);
        // Clip frame 0 equals parent frame 75 pixel-wise.
        let parent = v.frame(75);
        assert_eq!(f.pixels, parent.pixels);
    }

    #[test]
    fn clip_frames_are_the_parent_frames_rebased() {
        let v = video();
        let c = v.clip(10.0, 15.0);
        for i in [0, 1, 37, 74] {
            let (f, parent) = (c.frame(i), v.frame(150 + i));
            assert_eq!(f.pixels, parent.pixels);
            assert_eq!(f.truth.visible, parent.truth.visible);
            // Both halves of the truth are clip-relative, like the frame.
            assert_eq!(f.truth.frame, f.index);
            assert_eq!(f.truth.time_s, f.time_s);
            assert_eq!(f.time_s, i as f64 / 15.0);
        }
    }

    fn data_ptr(f: &Frame) -> *const u8 {
        f.pixels.data().as_ptr()
    }

    #[test]
    fn background_is_shared_by_clips_and_by_clones_made_after_first_decode() {
        let scene = crate::scene::SceneBuilder::new(presets::banff(), 2.0).build();
        let cloned_before = SyntheticVideo::new(scene.clone());
        let v = SyntheticVideo::new(scene);
        let first = v.frame(0);
        assert_eq!(data_ptr(&v.clip(1.0, 2.0).frame(3)), data_ptr(&first));
        let cloned_after = SyntheticVideo::new(v.scene().unwrap().clone());
        assert_eq!(data_ptr(&cloned_after.frame(0)), data_ptr(&first));
        // A clone taken before the first decode builds its own, equal, copy.
        let own = cloned_before.frame(0);
        assert_ne!(data_ptr(&own), data_ptr(&first));
        assert_eq!(own.pixels, first.pixels);
    }

    #[test]
    fn concurrent_first_decodes_match_a_single_threaded_decode() {
        const THREADS: u64 = 8;
        let scene = Scene::generate(presets::banff(), 9, 20.0);
        let expected: Vec<Frame> = frames(&SyntheticVideo::new(scene.clone())).collect();
        let fresh = SyntheticVideo::new(scene);
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (fresh, start, expected) = (&fresh, &start, &expected);
                s.spawn(move || {
                    start.wait();
                    // Every thread's first call races to build the background.
                    for i in (t..fresh.frame_count()).step_by(THREADS as usize) {
                        let f = fresh.frame(i);
                        assert_eq!(f.pixels, expected[i as usize].pixels, "frame {i}");
                        assert_eq!(f.truth, expected[i as usize].truth, "frame {i}");
                    }
                });
            }
        });
    }

    #[test]
    fn iterator_yields_all_frames() {
        let v = SyntheticVideo::new(Scene::generate(presets::banff(), 1, 2.0));
        let n = frames(&v).count();
        assert_eq!(n as u64, v.frame_count());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_frame_panics() {
        let v = video();
        let _ = v.frame(v.frame_count());
    }

    #[test]
    fn faulty_video_fails_exactly_its_corrupt_frames() {
        let v = Arc::new(video());
        let faulty = FaultyVideo::new(v.clone(), [3, 7]);
        assert!(faulty.try_frame(2).is_ok());
        let err = faulty.try_frame(3).unwrap_err();
        assert_eq!(err.frame, 3);
        assert_eq!(err.video_id, v.video_id());
        assert!(faulty.try_frame(7).is_err());
        // Surviving frames are byte-identical to the unwrapped source.
        assert_eq!(faulty.try_frame(4).unwrap().pixels, v.frame(4).pixels);
    }

    #[test]
    #[should_panic(expected = "corrupt")]
    fn faulty_video_infallible_path_panics_on_corrupt_frame() {
        let faulty = FaultyVideo::new(Arc::new(video()), [0]);
        let _ = faulty.frame(0);
    }

    #[test]
    fn distinct_video_ids() {
        let a = video();
        let b = video();
        assert_ne!(a.video_id(), b.video_id());
        let c1 = a.clip(0.0, 1.0);
        let c2 = a.clip(0.0, 1.0);
        assert_ne!(c1.video_id(), c2.video_id());
    }
}
