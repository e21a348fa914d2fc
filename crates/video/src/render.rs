//! Rasterization of scenes into pixel buffers.
//!
//! Entities are drawn as filled rectangles of their attribute color over a
//! road-textured background, in z order, with deterministic per-pixel noise.
//! This is intentionally simple — what downstream code needs is that (a)
//! frames with motion differ from frames without, and (b) a crop of an
//! entity is dominated by its ground-truth color.
//!
//! The background is static per scene, so it is rendered once: the first
//! decode of a [`Scene`] (never its construction — attaching a stream must
//! stay free) fills `Scene::background`, and every video, clip and later
//! clone of that scene reads it from there.
//!
//! Decoding a frame draws nothing. `render_truth` turns the frame's
//! visible entities into a `Paint` list in draw order and hands it to the
//! [`PixelBuffer`] beside the shared background; the buffer renders pixels
//! only where they are read (see [`crate::frame`]). A frame with nothing
//! visible has no paints: it *is* the cached background, allocation and
//! all.

use crate::frame::{buffer_rect, PixelBuffer};
use crate::scene::{GroundTruth, Scene};
use std::sync::Arc;

/// Deterministic per-pixel hash noise in `[-amp, amp]`.
fn noise(x: u32, y: u32, seed: u64, amp: i32) -> i32 {
    let mut h = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((x as u64) << 32 | y as u64);
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    ((h % (2 * amp as u64 + 1)) as i32) - amp
}

/// `rgb` shifted by `n`, clamped per channel.
fn shade(rgb: [u8; 3], n: i32) -> [u8; 3] {
    rgb.map(|c| (c as i32 + n).clamp(0, 255) as u8)
}

/// One visible entity as the renderer draws it: a filled rectangle of its
/// colour, shaded by per-pixel noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Paint {
    /// Buffer-pixel columns `x1..x2` and rows `y1..y2`: inside the buffer
    /// and never empty.
    pub(crate) x1: u32,
    pub(crate) y1: u32,
    pub(crate) x2: u32,
    pub(crate) y2: u32,
    pub(crate) rgb: [u8; 3],
    /// Noise seed, from the entity's id: its shading follows it.
    pub(crate) seed: u64,
    /// Draw order: a higher `z` covers a lower one.
    pub(crate) z: u8,
}

impl Paint {
    /// A placeholder that covers nothing, for filling fixed-size arrays.
    pub(crate) const NONE: Paint = Paint {
        x1: 0,
        y1: 0,
        x2: 0,
        y2: 0,
        rgb: [0; 3],
        seed: 0,
        z: 0,
    };

    pub(crate) fn covers(&self, x: u32, y: u32) -> bool {
        (self.x1..self.x2).contains(&x) && (self.y1..self.y2).contains(&y)
    }

    /// The colour this paint leaves at `(x, y)`, whatever lay beneath:
    /// slight shading noise, so crops are not constant-colour.
    pub(crate) fn at(&self, x: u32, y: u32) -> [u8; 3] {
        shade(self.rgb, noise(x, y, self.seed, 6))
    }
}

/// Buffer `(width, height, scale)` of `scene`'s frames:
/// `resolution / preset.render_scale`.
fn buffer_dims(scene: &Scene) -> (u32, u32, u32) {
    let preset = &scene.preset;
    let scale = preset.render_scale.max(1);
    let bw = (preset.width / scale).max(1);
    let bh = (preset.height / scale).max(1);
    (bw, bh, scale)
}

/// The scene's background — asphalt-gray roads on darker ground — rendered
/// by the first caller and cached on the scene for every later one.
fn background(scene: &Scene) -> &Arc<[u8]> {
    scene.background.get_or_init(|| {
        let (bw, bh, _) = buffer_dims(scene);
        let mut data = Vec::with_capacity((bw * bh * 3) as usize);
        let road_y = (0.46 * bh as f32) as u32..(0.64 * bh as f32) as u32;
        let road_x = (0.42 * bw as f32) as u32..(0.58 * bw as f32) as u32;
        for y in 0..bh {
            for x in 0..bw {
                let base: [u8; 3] = if road_y.contains(&y) || road_x.contains(&x) {
                    [95, 95, 98]
                } else if scene.preset.is_day {
                    [70, 110, 70]
                } else {
                    [30, 40, 30]
                };
                data.extend(shade(base, noise(x, y, 0xBACC_0FFE, 4)));
            }
        }
        data.into()
    })
}

/// Renders frame `frame` of `scene` into a downscaled RGB buffer.
///
/// Rendering is deterministic: the same scene and frame always produce
/// identical bytes, which keeps differencing-filter behaviour reproducible.
pub fn render_frame(scene: &Scene, frame: u64) -> PixelBuffer {
    render_truth(scene, &scene.truth_at(frame))
}

/// The frame of `scene` whose ground truth is `truth` (sources compute the
/// truth once and use it for both the pixels and the frame), as the
/// scene's background plus one paint per visible entity that covers a
/// buffer pixel, in draw order: stable on `z`, so equal `z` draws in scene
/// order.
pub(crate) fn render_truth(scene: &Scene, truth: &GroundTruth) -> PixelBuffer {
    let (bw, bh, scale) = buffer_dims(scene);
    let bg = Arc::clone(background(scene));
    let mut paints = Vec::with_capacity(truth.visible.len());
    for v in &truth.visible {
        if let Some([x1, y1, x2, y2]) = buffer_rect(&v.bbox, scale, bw, bh) {
            paints.push(Paint {
                x1,
                y1,
                x2,
                y2,
                rgb: v.attrs.render_color().rgb(),
                seed: v.entity ^ 0xCAFE,
                z: v.z,
            });
        }
    }
    paints.sort_by_key(|p| p.z);
    PixelBuffer::painted(bw, bh, scale, bg, paints)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::NamedColor;
    use crate::entity::VehicleType;
    use crate::geometry::Point;
    use crate::presets;
    use crate::presets::CameraPreset;
    use crate::scene::SceneBuilder;
    use crate::source::{frames, SyntheticVideo, VideoSource};
    use crate::trajectory::Trajectory;
    use crate::{BBox, PersonAction};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Writes `rgb` shifted by `n` (clamped per channel) at `(x, y)`.
    fn put(data: &mut [u8], w: u32, x: u32, y: u32, rgb: [u8; 3], n: i32) {
        let i = ((y * w + x) * 3) as usize;
        for c in 0..3 {
            data[i + c] = (rgb[c] as i32 + n).clamp(0, 255) as u8;
        }
    }

    /// The eager renderer paint lists replaced, kept as the reference: a
    /// copy of the background with every visible entity drawn into it.
    /// Its buffer holds plain bytes, so every read of it indexes them.
    fn eager(scene: &Scene, truth: &GroundTruth) -> PixelBuffer {
        let (bw, bh, scale) = buffer_dims(scene);
        let mut data = background(scene).to_vec();
        // Entities in z order (stable: equal z draws in scene order).
        let mut order: Vec<_> = truth.visible.iter().collect();
        order.sort_by_key(|v| v.z);
        let s = scale as f32;
        for v in order {
            let rgb = v.attrs.render_color().rgb();
            let x1 = (v.bbox.x1 / s).floor().max(0.0) as u32;
            let y1 = (v.bbox.y1 / s).floor().max(0.0) as u32;
            let x2 = ((v.bbox.x2 / s).ceil() as u32).min(bw);
            let y2 = ((v.bbox.y2 / s).ceil() as u32).min(bh);
            for y in y1..y2 {
                for x in x1..x2 {
                    put(&mut data, bw, x, y, rgb, noise(x, y, v.entity ^ 0xCAFE, 6));
                }
            }
        }
        PixelBuffer::from_rgb(bw, bh, scale, data)
    }

    /// Crops on every visible bbox, on each pair's overlap, on random boxes
    /// (many partly off-frame) and on zero-area boxes.
    fn crops(truth: &GroundTruth, (w, h): (u32, u32), rng: &mut StdRng) -> Vec<BBox> {
        let mut boxes: Vec<BBox> = truth.visible.iter().map(|v| v.bbox).collect();
        for (i, a) in truth.visible.iter().enumerate() {
            for b in &truth.visible[i + 1..] {
                let (x1, y1) = (a.bbox.x1.max(b.bbox.x1), a.bbox.y1.max(b.bbox.y1));
                let (x2, y2) = (a.bbox.x2.min(b.bbox.x2), a.bbox.y2.min(b.bbox.y2));
                if x1 < x2 && y1 < y2 {
                    boxes.push(BBox::new(x1, y1, x2, y2));
                }
            }
        }
        let (w, h) = (w as f32, h as f32);
        for _ in 0..3 {
            let (x, y) = (rng.gen_range(-0.1 * w..w), rng.gen_range(-0.1 * h..h));
            let (dx, dy) = (rng.gen_range(0.0..0.2 * w), rng.gen_range(0.0..0.2 * h));
            boxes.push(BBox::new(x, y, x + dx, y + dy));
        }
        let (x, y) = (rng.gen_range(0.0..w), rng.gen_range(0.0..h));
        boxes.push(BBox::new(x, y, x, y));
        boxes.push(BBox::new(x, y, x, y + 40.0));
        boxes
    }

    /// Every read of `lazy` against the same read of `want`, the eager
    /// rendering of one frame, before and after `lazy` is materialised.
    fn assert_reads_match(lazy: &PixelBuffer, want: &PixelBuffer, boxes: &[BBox], what: &str) {
        let (w, h) = (want.width(), want.height());
        for y in (0..h).step_by(5).chain([h - 1, h]) {
            for x in (0..w).step_by(9).chain([w - 1, w]) {
                assert_eq!(lazy.pixel(x, y), want.pixel(x, y), "{what} at {x},{y}");
            }
        }
        let wanted: Vec<_> = boxes
            .iter()
            .map(|b| (want.mean_rgb_in(b), want.dominant_rgb_in(b)))
            .collect();
        let assert_crops = |pass: &str| {
            for (b, (mean, dominant)) in boxes.iter().zip(&wanted) {
                assert_eq!(lazy.mean_rgb_in(b), *mean, "{what} {pass} {b:?}");
                assert_eq!(lazy.dominant_rgb_in(b), *dominant, "{what} {pass} {b:?}");
            }
        };
        assert_crops("recipe");
        assert_eq!(lazy.data(), want.data(), "{what}");
        assert_eq!(lazy, want, "{what}");
        assert_crops("materialised");
    }

    /// `a.mean_abs_diff(b)` to the bit in both argument orders.
    fn assert_diff(a: &PixelBuffer, b: &PixelBuffer, want: f32, what: &str) {
        for got in [a.mean_abs_diff(b), b.mean_abs_diff(a)] {
            assert_eq!(got.to_bits(), want.to_bits(), "{what}: {got} vs {want}");
        }
    }

    /// Every frame of `source` read every way, against the eager renderer.
    fn assert_source_matches_eager(source: &dyn VideoSource, rng: &mut StdRng) {
        let scene = source.scene().expect("synthetic");
        let mut prev: Option<(PixelBuffer, PixelBuffer)> = None;
        for frame in frames(source) {
            let what = format!("{} frame {}", scene.preset.name, frame.index);
            let want = eager(scene, &frame.truth);
            let boxes = crops(&frame.truth, source.resolution(), rng);
            assert_reads_match(&frame.pixels, &want, &boxes, &what);
            // A fresh decode, diffed before anything materialises it.
            let lazy = render_truth(scene, &frame.truth);
            if let Some((lazy_prev, want_prev)) = &prev {
                let exact = want_prev.mean_abs_diff(&want);
                assert_diff(&lazy, lazy_prev, exact, &what);
                assert_diff(&lazy, want_prev, exact, &what);
                assert_diff(&lazy, &lazy, 0.0, &what);
            }
            prev = Some((lazy, want));
        }
    }

    /// Every frame of `preset`'s seed-12 and seed-29 videos, whole and
    /// clipped, read every way.
    fn assert_preset_matches_eager(preset: CameraPreset) {
        let mut rng = StdRng::seed_from_u64(0xD1FF);
        for seed in [12, 29] {
            let video = SyntheticVideo::new(Scene::generate(preset.clone(), seed, 8.0));
            assert_source_matches_eager(&video, &mut rng);
            assert_source_matches_eager(&video.clip(2.0, 5.0), &mut rng);
        }
    }

    #[test]
    fn every_read_of_an_auburn_frame_equals_the_eager_renderer() {
        assert_preset_matches_eager(presets::auburn());
    }

    #[test]
    fn every_read_of_a_banff_frame_equals_the_eager_renderer() {
        assert_preset_matches_eager(presets::banff());
    }

    #[test]
    fn every_read_of_a_jackson_frame_equals_the_eager_renderer() {
        assert_preset_matches_eager(presets::jackson());
    }

    #[test]
    fn overlapping_entities_of_equal_z_read_like_the_eager_renderer() {
        // Two cars of one z crossing each other, both under a person.
        let preset = presets::banff();
        let (w, h) = (preset.width as f32, preset.height as f32);
        let mut b = SceneBuilder::new(preset, 4.0);
        let mid = Point::new(0.5 * w, 0.55 * h);
        b.add_person(
            NamedColor::Blue,
            PersonAction::Standing,
            Trajectory::stationary(mid, 0.0, 4.0),
        );
        for (color, from, to) in [(NamedColor::Red, 0.3, 0.7), (NamedColor::Green, 0.7, 0.3)] {
            let (a, b2) = (Point::new(from * w, 0.55 * h), Point::new(to * w, 0.56 * h));
            b.add_vehicle(
                color,
                VehicleType::Sedan,
                Trajectory::linear(a, b2, 0.0, 4.0),
            );
        }
        let video = SyntheticVideo::new(b.build());
        let truth = video.frame(30).truth;
        let zs: Vec<u8> = truth.visible.iter().map(|v| v.z).collect();
        assert!(zs.len() == 3 && zs[1] == zs[2] && zs[0] > zs[1], "{zs:?}");
        assert_source_matches_eager(&video, &mut StdRng::seed_from_u64(7));
    }

    #[test]
    fn crops_that_more_paints_meet_than_a_read_gathers_read_like_the_eager_renderer() {
        // A crowd on one spot: each person's crop meets every other person.
        let preset = presets::banff();
        let (w, h) = (preset.width as f32, preset.height as f32);
        let mut b = SceneBuilder::new(preset, 1.0);
        let crowd = crate::frame::NEAR as u32 + 4;
        for i in 0..crowd {
            let at = Point::new(0.5 * w + 3.0 * i as f32, 0.5 * h + 2.0 * (i % 3) as f32);
            let color = [NamedColor::Red, NamedColor::Green, NamedColor::Blue][i as usize % 3];
            let standing = Trajectory::stationary(at, 0.0, 1.0);
            b.add_person(color, PersonAction::Standing, standing);
        }
        let video = SyntheticVideo::new(b.build());
        assert_eq!(video.frame(0).truth.visible.len(), crowd as usize);
        assert_source_matches_eager(&video, &mut StdRng::seed_from_u64(3));
    }

    #[test]
    fn clones_on_two_threads_materialise_one_frame() {
        let (scene, _) = one_car_scene(NamedColor::Red);
        let frame = render_frame(&scene, scene.frame_count() / 2);
        let start = std::sync::Barrier::new(2);
        let addrs: Vec<usize> = std::thread::scope(|s| {
            let spawn = || {
                let (frame, start) = (frame.clone(), &start);
                s.spawn(move || {
                    start.wait();
                    frame.data().as_ptr() as usize
                })
            };
            let handles = [spawn(), spawn()];
            handles.map(|h| h.join().unwrap()).to_vec()
        });
        assert_eq!(addrs[0], addrs[1]);
        assert_eq!(addrs[0], frame.data().as_ptr() as usize);
    }

    fn one_car_scene(color: NamedColor) -> (Scene, u64) {
        let preset = presets::banff();
        let w = preset.width as f32;
        let h = preset.height as f32;
        let mut b = SceneBuilder::new(preset, 10.0);
        let tr = Trajectory::linear(
            Point::new(-200.0, 0.55 * h),
            Point::new(w + 200.0, 0.55 * h),
            0.0,
            10.0,
        );
        let id = b.add_vehicle(color, VehicleType::Suv, tr);
        (b.build(), id)
    }

    #[test]
    fn rendering_is_deterministic() {
        let (scene, _) = one_car_scene(NamedColor::Red);
        let a = render_frame(&scene, 30);
        let b = render_frame(&scene, 30);
        assert_eq!(a, b);
    }

    #[test]
    fn moving_entity_changes_pixels() {
        let (scene, _) = one_car_scene(NamedColor::Red);
        let a = render_frame(&scene, 30);
        let b = render_frame(&scene, 60);
        assert!(a.mean_abs_diff(&b) > 0.1, "motion must show up in pixels");
    }

    #[test]
    fn empty_frames_are_nearly_identical() {
        let preset = presets::banff();
        let scene = SceneBuilder::new(preset, 10.0).build();
        let a = render_frame(&scene, 0);
        let b = render_frame(&scene, 50);
        assert!(
            a.mean_abs_diff(&b) < 0.01,
            "static background must not differ"
        );
        // Stronger: with nothing visible both *are* the scene's one cached
        // background, the first frame ever rendered.
        assert_eq!(a.data().as_ptr(), b.data().as_ptr());
        assert_eq!(a, b);
    }

    #[test]
    fn entity_frames_never_write_through_to_the_background() {
        let (scene, _) = one_car_scene(NamedColor::Red);
        assert!(
            scene.truth_at(0).visible.is_empty(),
            "car starts off-screen"
        );
        let empty = render_frame(&scene, 0);
        let pristine = empty.data().to_vec();
        let with_car = render_frame(&scene, scene.frame_count() / 2);
        assert_ne!(with_car.data().as_ptr(), empty.data().as_ptr());
        assert_ne!(with_car.data(), &pristine[..]);
        // `empty` *is* the cache, so compare against the copy taken earlier.
        let after = render_frame(&scene, 0);
        assert_eq!(after.data().as_ptr(), empty.data().as_ptr());
        assert_eq!(after.data(), &pristine[..]);
    }

    #[test]
    fn crop_color_matches_entity_color() {
        for color in [NamedColor::Red, NamedColor::Green, NamedColor::Blue] {
            let (scene, id) = one_car_scene(color);
            let frame = scene.frame_count() / 2;
            let buf = render_frame(&scene, frame);
            let truth = scene.truth_at(frame);
            let v = truth.entity(id).expect("car visible");
            let rgb = buf.dominant_rgb_in(&v.bbox).expect("crop non-empty");
            assert_eq!(
                crate::color::NamedColor::nearest(rgb),
                color,
                "rendered crop should classify as {color}"
            );
        }
    }
}
