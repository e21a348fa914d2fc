//! Frame and pixel-buffer types.
//!
//! Frames carry a *real* (if low-resolution) RGB image so that frame
//! differencing filters and the pixel-reading color classifier do genuine
//! computation, plus an `Arc` to the frame's ground truth used by simulated
//! model inference and by accuracy scoring.
//!
//! A [`PixelBuffer`] is a recipe, not a bitmap: a background shared behind
//! an `Arc` (for a decoded frame, its scene's cached one) plus the paints
//! the frame draws over it, in draw order (see [`crate::render`]). Pixels
//! are rendered only where something reads them:
//! - a crop read ([`PixelBuffer::pixel`], [`PixelBuffer::mean_rgb_in`],
//!   [`PixelBuffer::dominant_rgb_in`]) renders each pixel of its crop from
//!   the topmost paint over it, or the background, looking only at the
//!   paints that meet the crop, and allocates no pixels;
//! - [`PixelBuffer::data`] (and so `==` and [`PixelBuffer::mean_abs_diff`])
//!   renders the whole frame once, into a cell every clone of the buffer
//!   shares.
//!
//! Every path gives the bytes of drawing each paint over the background in
//! order. A buffer has no mutating method, so its bytes may be shared
//! freely: clones share them, and so do *different* frames when neither
//! paints anything — both are the scene's background. Compare buffers by
//! value, never by address.

use crate::geometry::BBox;
use crate::render::Paint;
use crate::scene::GroundTruth;
use std::sync::{Arc, OnceLock};

/// A downscaled RGB8 image. Cloning is cheap: the background, the paints
/// and the rendered bytes are shared behind `Arc`s.
#[derive(Debug, Clone)]
pub struct PixelBuffer {
    width: u32,
    height: u32,
    /// Ratio of full-resolution coordinates to buffer pixels.
    scale: u32,
    /// The image under the paints, row-major RGB8.
    background: Arc<[u8]>,
    /// `None` when nothing is painted: the image is `background`.
    painted: Option<Arc<Painted>>,
}

/// What a buffer draws over its background.
#[derive(Debug)]
struct Painted {
    /// In draw order: where two overlap, the later one shows.
    paints: Vec<Paint>,
    /// The whole image, rendered by the first [`PixelBuffer::data`].
    full: OnceLock<Box<[u8]>>,
}

/// The buffer pixels `[x1, y1, x2, y2]` (columns `x1..x2`, rows `y1..y2`)
/// under a full-resolution `bbox`, clipped to a `width` × `height` buffer of
/// downscale `scale`; `None` when that leaves no pixel.
pub(crate) fn buffer_rect(bbox: &BBox, scale: u32, width: u32, height: u32) -> Option<[u32; 4]> {
    let s = scale as f32;
    let x1 = (bbox.x1 / s).floor().max(0.0) as u32;
    let y1 = (bbox.y1 / s).floor().max(0.0) as u32;
    let x2 = ((bbox.x2 / s).ceil() as u32).min(width);
    let y2 = ((bbox.y2 / s).ceil() as u32).min(height);
    (x1 < x2 && y1 < y2).then_some([x1, y1, x2, y2])
}

/// How many paints a crop read gathers on the stack; a crop that more
/// paints meet looks each pixel up among all of them.
pub(crate) const NEAR: usize = 16;

/// Sum of `|a - b|` over paired bytes. Exact: `u32` lanes, which vectorise,
/// over chunks too short to overflow one (2^24 bytes × 255 < 2^32).
fn abs_diff_sum(a: &[u8], b: &[u8]) -> u64 {
    const CHUNK: usize = 1 << 24;
    let mut sum = 0u64;
    for (a, b) in a.chunks(CHUNK).zip(b.chunks(CHUNK)) {
        let diffs = a.iter().zip(b).map(|(a, b)| u32::from(a.abs_diff(*b)));
        sum += u64::from(diffs.sum::<u32>());
    }
    sum
}

impl PixelBuffer {
    /// Wraps raw RGB8 data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width * height * 3`.
    pub fn from_rgb(width: u32, height: u32, scale: u32, data: Vec<u8>) -> Self {
        Self::painted(width, height, scale, data.into(), Vec::new())
    }

    /// `paints` (in draw order, each inside the buffer) over `background`,
    /// which is shared, not copied: the renderer hands every frame of a
    /// scene the scene's one cached background this way.
    ///
    /// # Panics
    ///
    /// Panics if `background.len() != width * height * 3`.
    pub(crate) fn painted(
        width: u32,
        height: u32,
        scale: u32,
        background: Arc<[u8]>,
        paints: Vec<Paint>,
    ) -> Self {
        assert_eq!(
            background.len(),
            (width * height * 3) as usize,
            "pixel data must be width * height * 3 bytes"
        );
        let painted = (!paints.is_empty()).then(|| {
            Arc::new(Painted {
                paints,
                full: OnceLock::new(),
            })
        });
        Self {
            width,
            height,
            scale,
            background,
            painted,
        }
    }

    /// Buffer width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Buffer height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Full-resolution-to-buffer downscale factor.
    pub fn scale(&self) -> u32 {
        self.scale
    }

    fn paints(&self) -> &[Paint] {
        self.painted.as_deref().map_or(&[], |p| &p.paints)
    }

    /// Raw RGB8 bytes, row-major. The first call on a buffer that paints
    /// anything renders the whole image; every clone shares the result.
    pub fn data(&self) -> &[u8] {
        match &self.painted {
            None => &self.background,
            Some(painted) => painted.full.get_or_init(|| {
                let mut full: Box<[u8]> = Box::from(&self.background[..]);
                for p in &painted.paints {
                    for y in p.y1..p.y2 {
                        for x in p.x1..p.x2 {
                            let i = ((y * self.width + x) * 3) as usize;
                            full[i..i + 3].copy_from_slice(&p.at(x, y));
                        }
                    }
                }
                full
            }),
        }
    }

    /// The pixel at `(x, y)`, which must be in bounds: the topmost of
    /// `paints` over it, else the background. `paints` must hold, in draw
    /// order, every paint of the buffer that covers `(x, y)`.
    fn rgb_at(&self, paints: &[Paint], x: u32, y: u32) -> [u8; 3] {
        match paints.iter().rev().find(|p| p.covers(x, y)) {
            Some(p) => p.at(x, y),
            None => {
                let i = ((y * self.width + x) * 3) as usize;
                [
                    self.background[i],
                    self.background[i + 1],
                    self.background[i + 2],
                ]
            }
        }
    }

    /// The RGB value at buffer coordinates `(x, y)`; `None` out of bounds.
    pub fn pixel(&self, x: u32, y: u32) -> Option<[u8; 3]> {
        (x < self.width && y < self.height).then(|| self.rgb_at(self.paints(), x, y))
    }

    /// Calls `f` on each pixel of the crop of a full-resolution `bbox`,
    /// row-major; `false` when the crop covers no buffer pixel.
    ///
    /// Only the paints that meet the crop can show in it, so each pixel is
    /// looked up among those: gathered once, in draw order, on the stack,
    /// or all of the buffer's paints when more than [`NEAR`] meet it.
    fn for_each_in_crop(&self, bbox: &BBox, mut f: impl FnMut([u8; 3])) -> bool {
        let Some([x1, y1, x2, y2]) = buffer_rect(bbox, self.scale, self.width, self.height) else {
            return false;
        };
        let mut near = [Paint::NONE; NEAR];
        let mut n = 0;
        for p in self.paints() {
            if p.x1 < x2 && x1 < p.x2 && p.y1 < y2 && y1 < p.y2 {
                if let Some(slot) = near.get_mut(n) {
                    *slot = *p;
                }
                n += 1;
            }
        }
        let paints = near.get(..n).unwrap_or(self.paints());
        for y in y1..y2 {
            for x in x1..x2 {
                f(self.rgb_at(paints, x, y));
            }
        }
        true
    }

    /// Mean RGB over the crop of a full-resolution `bbox`, or `None` when
    /// the crop covers no buffer pixels.
    pub fn mean_rgb_in(&self, bbox: &BBox) -> Option<[u8; 3]> {
        let mut sum = [0u64; 3];
        let mut n = 0u64;
        let read = self.for_each_in_crop(bbox, |p| {
            for c in 0..3 {
                sum[c] += p[c] as u64;
            }
            n += 1;
        });
        read.then(|| sum.map(|s| (s / n) as u8))
    }

    /// The dominant (modal, quantized) RGB over the crop of a
    /// full-resolution `bbox`. More robust than the mean when the crop
    /// includes background; this is what the simulated color model uses.
    pub fn dominant_rgb_in(&self, bbox: &BBox) -> Option<[u8; 3]> {
        // Quantize to 4 bits per channel and take the mode.
        let mut counts: std::collections::HashMap<u16, (u32, [u32; 3])> =
            std::collections::HashMap::new();
        let read = self.for_each_in_crop(bbox, |p| {
            let key = ((p[0] as u16 >> 4) << 8) | ((p[1] as u16 >> 4) << 4) | (p[2] as u16 >> 4);
            let e = counts.entry(key).or_insert((0, [0, 0, 0]));
            e.0 += 1;
            e.1[0] += p[0] as u32;
            e.1[1] += p[1] as u32;
            e.1[2] += p[2] as u32;
        });
        if !read {
            return None;
        }
        // Ties break on the key: `HashMap` iteration order differs from
        // call to call, and the answer must not.
        let (_, (n, sums)) = counts.into_iter().max_by_key(|(key, (n, _))| (*n, *key))?;
        Some([
            (sums[0] / n) as u8,
            (sums[1] / n) as u8,
            (sums[2] / n) as u8,
        ])
    }

    /// Mean absolute per-channel difference with `other` (same dimensions
    /// required); used by differencing frame filters. Reads both images
    /// whole (see [`PixelBuffer::data`]).
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn mean_abs_diff(&self, other: &PixelBuffer) -> f32 {
        assert_eq!(self.width, other.width, "buffer widths must match");
        assert_eq!(self.height, other.height, "buffer heights must match");
        let sum = abs_diff_sum(self.data(), other.data());
        sum as f32 / self.background.len() as f32
    }
}

/// By value: two buffers are equal when their dimensions, scale and bytes
/// are, however each came by them.
impl PartialEq for PixelBuffer {
    fn eq(&self, other: &Self) -> bool {
        (self.width, self.height, self.scale) == (other.width, other.height, other.scale)
            && self.data() == other.data()
    }
}

/// One video frame: index, timestamp, pixels, and ground-truth handle.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Identifier of the source video (distinguishes clips in caches).
    pub video_id: u64,
    /// Frame index within the video.
    pub index: u64,
    /// Seconds since the start of the video.
    pub time_s: f64,
    /// Rendered pixels.
    pub pixels: PixelBuffer,
    /// Ground truth for simulated inference and scoring. Real systems do not
    /// have this; only `vqpy-models` and scorers may read it.
    pub truth: Arc<GroundTruth>,
}

// Frames cross threads (pipeline lanes, shards): a buffer's lazily rendered
// bytes must stay shareable.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<Frame>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn solid(width: u32, height: u32, rgb: [u8; 3]) -> PixelBuffer {
        let mut data = Vec::with_capacity((width * height * 3) as usize);
        for _ in 0..(width * height) {
            data.extend_from_slice(&rgb);
        }
        PixelBuffer::from_rgb(width, height, 8, data)
    }

    #[test]
    fn pixel_access() {
        let b = solid(4, 4, [10, 20, 30]);
        assert_eq!(b.pixel(0, 0), Some([10, 20, 30]));
        assert_eq!(b.pixel(4, 0), None);
    }

    #[test]
    fn mean_rgb_of_solid_buffer() {
        let b = solid(8, 8, [100, 150, 200]);
        let bbox = BBox::new(0.0, 0.0, 64.0, 64.0); // full-res coords, scale 8
        assert_eq!(b.mean_rgb_in(&bbox), Some([100, 150, 200]));
    }

    /// An 8x4 buffer (scale 8): left half red, right half blue.
    fn red_blue_halves() -> PixelBuffer {
        let (w, h) = (8u32, 4u32);
        let mut data = Vec::new();
        for _y in 0..h {
            for x in 0..w {
                if x < w / 2 {
                    data.extend_from_slice(&[200, 0, 0]);
                } else {
                    data.extend_from_slice(&[0, 0, 200]);
                }
            }
        }
        PixelBuffer::from_rgb(w, h, 8, data)
    }

    #[test]
    fn dominant_rgb_prefers_majority() {
        // Crop over the left 3/4: red dominates.
        let crop = BBox::new(0.0, 0.0, 48.0, 32.0); // 6x4 buffer pixels
        let rgb = red_blue_halves().dominant_rgb_in(&crop).unwrap();
        assert!(rgb[0] > rgb[2], "expected red-dominant, got {rgb:?}");
    }

    #[test]
    fn dominant_rgb_breaks_ties_the_same_way_every_call() {
        // The whole buffer is an exact 50/50 tie between two modes. Each
        // call counts in a fresh, freshly seeded `HashMap`, so an answer
        // taken from iteration order flips between calls.
        let b = red_blue_halves();
        let crop = BBox::new(0.0, 0.0, 64.0, 32.0);
        for call in 0..64 {
            assert_eq!(b.dominant_rgb_in(&crop), Some([200, 0, 0]), "call {call}");
        }
    }

    #[test]
    fn mean_abs_diff_zero_for_identical() {
        let a = solid(4, 4, [50, 50, 50]);
        let b = solid(4, 4, [50, 50, 50]);
        assert_eq!(a.mean_abs_diff(&b), 0.0);
        let c = solid(4, 4, [60, 50, 50]);
        assert!((a.mean_abs_diff(&c) - 10.0 / 3.0).abs() < 1e-4);
    }

    /// The scalar loop `mean_abs_diff` replaced: every byte widened to
    /// `u64`. The kernel must agree with it to the bit.
    fn reference_mean_abs_diff(a: &PixelBuffer, b: &PixelBuffer) -> f32 {
        let mut sum = 0u64;
        for (x, y) in a.data().iter().zip(b.data()) {
            sum += (*x as i32 - *y as i32).unsigned_abs() as u64;
        }
        sum as f32 / a.data().len() as f32
    }

    fn assert_kernel_exact(a: &PixelBuffer, b: &PixelBuffer) {
        let (got, want) = (a.mean_abs_diff(b), reference_mean_abs_diff(a, b));
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{}x{}: {got} vs {want}",
            a.width(),
            a.height()
        );
    }

    #[test]
    fn mean_abs_diff_is_bit_equal_to_the_scalar_reference_on_random_buffers() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
        let mut random = |w: u32, h: u32| {
            let data = (0..w * h * 3).map(|_| rng.gen::<u8>()).collect();
            PixelBuffer::from_rgb(w, h, 8, data)
        };
        // 3, 48, 3·(2^16+1) and 97 200 bytes (one 240x135 auburn frame).
        for (w, h) in [(1, 1), (4, 4), ((1 << 16) + 1, 1), (240, 135)] {
            for _ in 0..4 {
                let (a, b) = (random(w, h), random(w, h));
                assert_kernel_exact(&a, &b);
            }
        }
    }

    #[test]
    fn mean_abs_diff_is_exact_at_the_largest_difference_past_a_u32_lane() {
        // 4096x1400x3 bytes of difference 255 sum past u32::MAX: a single
        // u32 sum would wrap, and the buffers span two of the kernel's chunks.
        let (w, h) = (4096, 1400);
        let black = PixelBuffer::from_rgb(w, h, 8, vec![0; (w * h * 3) as usize]);
        let white = PixelBuffer::from_rgb(w, h, 8, vec![255; (w * h * 3) as usize]);
        assert!(u64::from(w * h * 3) * 255 > u64::from(u32::MAX));
        assert_kernel_exact(&black, &white);
        assert_kernel_exact(&white, &black);
        assert_eq!(black.mean_abs_diff(&white), 255.0);
        let (small_black, small_white) = (solid(4, 4, [0; 3]), solid(4, 4, [255; 3]));
        assert_kernel_exact(&small_black, &small_white);
    }

    #[test]
    fn mean_abs_diff_is_bit_equal_to_the_scalar_reference_on_rendered_frames() {
        use crate::source::{frames, SyntheticVideo};
        let video = SyntheticVideo::new(crate::scene::Scene::generate(
            crate::presets::auburn(),
            12,
            2.0,
        ));
        let rendered: Vec<PixelBuffer> = frames(&video).map(|f| f.pixels).collect();
        assert_eq!(rendered[0].data().len(), 97_200);
        for pair in rendered.windows(2) {
            assert_kernel_exact(&pair[0], &pair[1]);
        }
    }

    #[test]
    fn empty_crop_returns_none() {
        let b = solid(4, 4, [1, 2, 3]);
        let off = BBox::new(1000.0, 1000.0, 1010.0, 1010.0);
        assert_eq!(b.mean_rgb_in(&off), None);
        assert_eq!(b.dominant_rgb_in(&off), None);
    }
}
