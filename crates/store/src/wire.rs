//! The compact binary codec segment records are written in.
//!
//! The workspace has no general-purpose serialization dependency, so this
//! module hand-rolls a small length-prefixed little-endian format for the
//! primitives, [`BBox`]es and [`Detection`]s a [`FrameRecord`] holds. Two
//! properties matter more than speed:
//!
//! - **Determinism**: encoding the same value always yields the same bytes,
//!   so segment indices and crash-recovery scans can compare byte-for-byte.
//! - **Hostile-input safety**: decoding arbitrary (truncated, garbled)
//!   bytes must fail with a typed [`WireError`], never panic or allocate
//!   unboundedly — corrupted segments are an expected runtime condition.
//!
//! [`FrameRecord`]: crate::FrameRecord

use std::fmt;
use vqpy_models::Detection;
use vqpy_video::geometry::BBox;

/// Upper bound on any decoded string length. Garbled length prefixes must
/// not trigger multi-gigabyte allocations; nothing the store writes comes
/// anywhere near this.
const MAX_LEN: usize = 1 << 24;

/// A decoding failure. Encoding is infallible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value was complete.
    Truncated,
    /// An enum tag byte had no corresponding variant.
    BadTag(u8),
    /// A length prefix exceeded the sanity cap.
    OversizedLength(u64),
    /// A decoded string was not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated input"),
            WireError::BadTag(t) => write!(f, "unknown tag byte {t}"),
            WireError::OversizedLength(n) => write!(f, "length prefix {n} exceeds sanity cap"),
            WireError::BadUtf8 => write!(f, "invalid utf-8 in string"),
        }
    }
}

impl std::error::Error for WireError {}

fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    if buf.len() < n {
        return Err(WireError::Truncated);
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

/// Appends a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Reads a `u8`, advancing `buf`.
pub fn get_u8(buf: &mut &[u8]) -> Result<u8, WireError> {
    Ok(take(buf, 1)?[0])
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Reads a little-endian `u32`, advancing `buf`.
pub fn get_u32(buf: &mut &[u8]) -> Result<u32, WireError> {
    Ok(u32::from_le_bytes(take(buf, 4)?.try_into().unwrap()))
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Reads a little-endian `u64`, advancing `buf`.
pub fn get_u64(buf: &mut &[u8]) -> Result<u64, WireError> {
    Ok(u64::from_le_bytes(take(buf, 8)?.try_into().unwrap()))
}

/// Appends a little-endian IEEE-754 `f32`.
pub fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Reads a little-endian `f32`, advancing `buf`.
pub fn get_f32(buf: &mut &[u8]) -> Result<f32, WireError> {
    Ok(f32::from_le_bytes(take(buf, 4)?.try_into().unwrap()))
}

/// Appends a little-endian IEEE-754 `f64`.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Reads a little-endian `f64`, advancing `buf`.
pub fn get_f64(buf: &mut &[u8]) -> Result<f64, WireError> {
    Ok(f64::from_le_bytes(take(buf, 8)?.try_into().unwrap()))
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Reads a length-prefixed UTF-8 string, advancing `buf`.
pub fn get_str(buf: &mut &[u8]) -> Result<String, WireError> {
    let len = get_u32(buf)? as usize;
    if len > MAX_LEN {
        return Err(WireError::OversizedLength(len as u64));
    }
    let bytes = take(buf, len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
}

/// Appends a [`BBox`].
pub fn put_bbox(out: &mut Vec<u8>, b: &BBox) {
    put_f32(out, b.x1);
    put_f32(out, b.y1);
    put_f32(out, b.x2);
    put_f32(out, b.y2);
}

/// Reads a [`BBox`], advancing `buf`.
pub fn get_bbox(buf: &mut &[u8]) -> Result<BBox, WireError> {
    Ok(BBox {
        x1: get_f32(buf)?,
        y1: get_f32(buf)?,
        x2: get_f32(buf)?,
        y2: get_f32(buf)?,
    })
}

/// Appends a [`Detection`].
pub fn put_detection(out: &mut Vec<u8>, d: &Detection) {
    put_str(out, &d.class_label);
    put_bbox(out, &d.bbox);
    put_f32(out, d.score);
    match d.sim_entity {
        None => put_u8(out, 0),
        Some(e) => {
            put_u8(out, 1);
            put_u64(out, e);
        }
    }
}

/// Reads a [`Detection`], advancing `buf`.
pub fn get_detection(buf: &mut &[u8]) -> Result<Detection, WireError> {
    let class_label = get_str(buf)?;
    let bbox = get_bbox(buf)?;
    let score = get_f32(buf)?;
    let sim_entity = match get_u8(buf)? {
        0 => None,
        1 => Some(get_u64(buf)?),
        t => return Err(WireError::BadTag(t)),
    };
    Ok(Detection {
        class_label,
        bbox,
        score,
        sim_entity,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FrameRecord;

    fn detection(sim_entity: Option<u64>) -> Detection {
        Detection {
            class_label: "car".into(),
            bbox: BBox::new(10.0, 20.0, 30.0, 40.0),
            score: 0.93,
            sim_entity,
        }
    }

    #[test]
    fn detection_roundtrips() {
        for sim_entity in [None, Some(7u64)] {
            let d = detection(sim_entity);
            let mut buf = Vec::new();
            put_detection(&mut buf, &d);
            let mut slice = buf.as_slice();
            assert_eq!(get_detection(&mut slice).unwrap(), d);
            assert!(slice.is_empty(), "codec must consume exactly its bytes");
        }
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        put_detection(&mut buf, &detection(Some(7)));
        for cut in 0..buf.len() {
            let mut slice = &buf[..cut];
            assert_eq!(
                get_detection(&mut slice),
                Err(WireError::Truncated),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn bad_tag_and_oversized_length_are_typed() {
        // The entity tag is the detection's last byte before its id.
        let mut buf = Vec::new();
        put_detection(&mut buf, &detection(None));
        *buf.last_mut().unwrap() = 99;
        assert_eq!(
            get_detection(&mut buf.as_slice()),
            Err(WireError::BadTag(99))
        );
        // A label claiming u32::MAX bytes.
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        assert_eq!(
            get_detection(&mut buf.as_slice()),
            Err(WireError::OversizedLength(u32::MAX as u64))
        );
        // A label that is not UTF-8.
        let mut buf = Vec::new();
        put_u32(&mut buf, 1);
        put_u8(&mut buf, 0xFF);
        assert_eq!(get_detection(&mut buf.as_slice()), Err(WireError::BadUtf8));
    }

    #[test]
    fn encoding_is_deterministic() {
        let rec = FrameRecord {
            frame: 3,
            time_s: 0.1,
            ingest_us: 99_000,
            detects: vec![("yolox".into(), vec![detection(Some(7)), detection(None)])],
            predicts: vec![("red_car_filter".into(), false)],
        };
        let mut a = Vec::new();
        let mut b = Vec::new();
        rec.encode(&mut a);
        rec.clone().encode(&mut b);
        assert_eq!(a, b);
    }
}
