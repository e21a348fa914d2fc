//! Golden frame bytes.
//!
//! Every constant below was computed with the renderer of commit 5afbdb6
//! (background re-hashed per frame, `Vec` → `Arc` copy) and must never be
//! regenerated from a newer one: the differencing filters, the colour model
//! and every oracle read these bytes, so a renderer change that moves one
//! is a behaviour change, not an optimisation. CI runs this file in both the
//! debug and the release profile.

use vqpy_video::entity::VehicleType;
use vqpy_video::source::{SyntheticVideo, VideoSource};
use vqpy_video::{
    frames, presets, CameraPreset, NamedColor, PersonAction, Point, Scene, SceneBuilder, Trajectory,
};

/// FNV-1a-64 over the pixel bytes of every frame of `source`, in order.
fn fnv_frames(source: &dyn VideoSource) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for frame in frames(source) {
        for &b in frame.pixels.data() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn assert_preset(preset: CameraPreset, whole: u64, clip: u64) {
    let name = preset.name;
    let video = SyntheticVideo::new(Scene::generate(preset, 12, 60.0));
    let got = [fnv_frames(&video), fnv_frames(&video.clip(10.0, 20.0))];
    assert_eq!(
        got,
        [whole, clip],
        "{name}: frame bytes of [whole video, clip(10, 20)] changed (got {got:#018x?})"
    );
}

#[test]
fn auburn_frames_are_golden() {
    assert_preset(
        presets::auburn(),
        0x72bd_ffde_48fc_516a,
        0xff24_e5c2_55e8_db05,
    );
}

#[test]
fn banff_frames_are_golden() {
    assert_preset(
        presets::banff(),
        0x6b18_181f_bfbc_31c3,
        0x47da_e62d_90aa_f8db,
    );
}

#[test]
fn jackson_frames_are_golden() {
    assert_preset(
        presets::jackson(),
        0xab86_00e9_ff47_dbc5,
        0x6b16_e53b_a48c_4e4a,
    );
}

/// A person (z 2) added *before* the car (z 1) it stands in front of, plus
/// a second car of the same z crossing the first: the draw order must be
/// "stable sort on z", not insertion order and not entity id.
#[test]
fn overlapping_entities_draw_in_z_order() {
    let preset = presets::banff();
    let (w, h) = (preset.width as f32, preset.height as f32);
    let mid = Point::new(0.5 * w, 0.55 * h);
    let mut b = SceneBuilder::new(preset, 4.0);
    b.add_person(
        NamedColor::Blue,
        PersonAction::Standing,
        Trajectory::stationary(mid, 0.0, 4.0),
    );
    b.add_vehicle(
        NamedColor::Red,
        VehicleType::Suv,
        Trajectory::linear(
            Point::new(0.3 * w, 0.55 * h),
            Point::new(0.7 * w, 0.55 * h),
            0.0,
            4.0,
        ),
    );
    b.add_vehicle(
        NamedColor::Green,
        VehicleType::Sedan,
        Trajectory::linear(
            Point::new(0.7 * w, 0.56 * h),
            Point::new(0.3 * w, 0.56 * h),
            0.0,
            4.0,
        ),
    );
    let video = SyntheticVideo::new(b.build());
    let f = video.frame(30);
    assert_eq!(f.truth.visible.len(), 3, "all three overlap mid-scene");
    // The person is on top although it was added first.
    let top = f.pixels.dominant_rgb_in(&f.truth.visible[0].bbox).unwrap();
    assert_eq!(NamedColor::nearest(top), NamedColor::Blue);
    let got = fnv_frames(&video);
    assert_eq!(
        got, 0x84df_7d19_f84e_beb4,
        "scripted overlap bytes changed (got {got:#018x})"
    );
}
