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
//! clone of that scene reads it from there. A frame then costs one copy of
//! those bytes plus its entities, and a frame with nothing visible is not
//! even copied: it *shares* the cached allocation. That is safe because a
//! [`PixelBuffer`] is immutable once built; the only writes go to a frame's
//! own fresh copy, before anyone else can hold it.

use crate::frame::PixelBuffer;
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

/// Writes `rgb` shifted by `n` (clamped per channel) at `(x, y)`.
fn put(data: &mut [u8], w: u32, x: u32, y: u32, rgb: [u8; 3], n: i32) {
    let i = ((y * w + x) * 3) as usize;
    for c in 0..3 {
        data[i + c] = (rgb[c] as i32 + n).clamp(0, 255) as u8;
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
        let mut data = vec![0u8; (bw * bh * 3) as usize];
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
                put(&mut data, bw, x, y, base, noise(x, y, 0xBACC_0FFE, 4));
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

/// Renders the frame of `scene` whose ground truth is `truth` (sources
/// compute the truth once and use it for both the pixels and the frame).
pub(crate) fn render_truth(scene: &Scene, truth: &GroundTruth) -> PixelBuffer {
    let (bw, bh, scale) = buffer_dims(scene);
    let bg = background(scene);
    if truth.visible.is_empty() {
        return PixelBuffer::from_shared(bw, bh, scale, Arc::clone(bg));
    }
    let mut pixels: Arc<[u8]> = Arc::from(&bg[..]);
    let data = Arc::get_mut(&mut pixels).expect("a fresh Arc has one owner");

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
                // Slight shading noise so crops are not constant-color.
                put(data, bw, x, y, rgb, noise(x, y, v.entity ^ 0xCAFE, 6));
            }
        }
    }
    PixelBuffer::from_shared(bw, bh, scale, pixels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::NamedColor;
    use crate::entity::VehicleType;
    use crate::geometry::Point;
    use crate::presets;
    use crate::scene::SceneBuilder;
    use crate::trajectory::Trajectory;

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
