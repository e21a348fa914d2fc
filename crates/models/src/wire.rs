//! Compact binary codec for persisted model artifacts.
//!
//! The frame store (`vqpy-store`) persists [`Value`]s and [`Detection`]s to
//! append-only segment files. The workspace has no general-purpose
//! serialization dependency, so this module hand-rolls a small
//! length-prefixed little-endian format. Two properties matter more than
//! speed:
//!
//! - **Determinism**: encoding the same value always yields the same bytes,
//!   so segment indices and crash-recovery scans can compare byte-for-byte.
//! - **Hostile-input safety**: decoding arbitrary (truncated, garbled)
//!   bytes must fail with a typed [`WireError`], never panic or allocate
//!   unboundedly — corrupted segments are an expected runtime condition.

use crate::value::Value;
use crate::Detection;
use std::fmt;
use vqpy_video::geometry::{BBox, Point};

/// Upper bound on any decoded string/vector length. Garbled length prefixes
/// must not trigger multi-gigabyte allocations; nothing the store writes
/// comes anywhere near this.
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

fn checked_len(n: u64) -> Result<usize, WireError> {
    if n as usize > MAX_LEN {
        return Err(WireError::OversizedLength(n));
    }
    Ok(n as usize)
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Reads a length-prefixed UTF-8 string, advancing `buf`.
pub fn get_str(buf: &mut &[u8]) -> Result<String, WireError> {
    let len = checked_len(get_u32(buf)? as u64)?;
    let bytes = take(buf, len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
}

/// Appends a [`Point`].
pub fn put_point(out: &mut Vec<u8>, p: &Point) {
    put_f32(out, p.x);
    put_f32(out, p.y);
}

/// Reads a [`Point`], advancing `buf`.
pub fn get_point(buf: &mut &[u8]) -> Result<Point, WireError> {
    Ok(Point {
        x: get_f32(buf)?,
        y: get_f32(buf)?,
    })
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

/// Appends a [`Value`] as a tag byte plus payload.
pub fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => put_u8(out, 0),
        Value::Bool(b) => {
            put_u8(out, 1);
            put_u8(out, *b as u8);
        }
        Value::Int(i) => {
            put_u8(out, 2);
            put_u64(out, *i as u64);
        }
        Value::Float(f) => {
            put_u8(out, 3);
            put_f64(out, *f);
        }
        Value::Str(s) => {
            put_u8(out, 4);
            put_str(out, s);
        }
        Value::Point(p) => {
            put_u8(out, 5);
            put_point(out, p);
        }
        Value::BBox(b) => {
            put_u8(out, 6);
            put_bbox(out, b);
        }
        Value::FloatVec(xs) => {
            put_u8(out, 7);
            put_u32(out, xs.len() as u32);
            for x in xs {
                put_f32(out, *x);
            }
        }
    }
}

/// Reads a [`Value`], advancing `buf`.
pub fn get_value(buf: &mut &[u8]) -> Result<Value, WireError> {
    match get_u8(buf)? {
        0 => Ok(Value::Null),
        1 => Ok(Value::Bool(get_u8(buf)? != 0)),
        2 => Ok(Value::Int(get_u64(buf)? as i64)),
        3 => Ok(Value::Float(get_f64(buf)?)),
        4 => Ok(Value::from(get_str(buf)?)),
        5 => Ok(Value::Point(get_point(buf)?)),
        6 => Ok(Value::BBox(get_bbox(buf)?)),
        7 => {
            let len = checked_len(get_u32(buf)? as u64)?;
            let mut xs = Vec::with_capacity(len.min(4096));
            for _ in 0..len {
                xs.push(get_f32(buf)?);
            }
            Ok(Value::FloatVec(xs))
        }
        t => Err(WireError::BadTag(t)),
    }
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

    fn roundtrip_value(v: Value) {
        let mut buf = Vec::new();
        put_value(&mut buf, &v);
        let mut slice = buf.as_slice();
        let back = get_value(&mut slice).unwrap();
        assert_eq!(back, v);
        assert!(slice.is_empty(), "codec must consume exactly its bytes");
    }

    #[test]
    fn value_roundtrips() {
        roundtrip_value(Value::Null);
        roundtrip_value(Value::Bool(true));
        roundtrip_value(Value::Int(-42));
        roundtrip_value(Value::Float(3.25));
        roundtrip_value(Value::Str("red".into()));
        roundtrip_value(Value::Point(Point::new(1.5, -2.5)));
        roundtrip_value(Value::BBox(BBox::new(0.0, 1.0, 2.0, 3.0)));
        roundtrip_value(Value::FloatVec(vec![0.1, 0.2, 0.3]));
    }

    #[test]
    fn detection_roundtrips() {
        for sim_entity in [None, Some(7u64)] {
            let d = Detection {
                class_label: "car".into(),
                bbox: BBox::new(10.0, 20.0, 30.0, 40.0),
                score: 0.93,
                sim_entity,
            };
            let mut buf = Vec::new();
            put_detection(&mut buf, &d);
            let mut slice = buf.as_slice();
            assert_eq!(get_detection(&mut slice).unwrap(), d);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        put_value(&mut buf, &Value::Str("a long-ish string".into()));
        for cut in 0..buf.len() {
            let mut slice = &buf[..cut];
            assert!(get_value(&mut slice).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn bad_tag_and_oversized_length_are_typed() {
        let mut slice: &[u8] = &[99u8];
        assert_eq!(get_value(&mut slice), Err(WireError::BadTag(99)));
        // String claiming u32::MAX bytes.
        let mut buf = Vec::new();
        put_u8(&mut buf, 4);
        put_u32(&mut buf, u32::MAX);
        let mut slice = buf.as_slice();
        assert_eq!(
            get_value(&mut slice),
            Err(WireError::OversizedLength(u32::MAX as u64))
        );
    }

    #[test]
    fn encoding_is_deterministic() {
        let v = Value::FloatVec(vec![1.0, 2.0]);
        let mut a = Vec::new();
        let mut b = Vec::new();
        put_value(&mut a, &v);
        put_value(&mut b, &v);
        assert_eq!(a, b);
    }
}
