//! The per-frame persisted artifact record.

use crate::wire::{
    get_detection, get_f64, get_str, get_u32, get_u64, get_u8, put_detection, put_f64, put_str,
    put_u32, put_u64, put_u8, WireError,
};
use vqpy_models::Detection;

/// Everything the store persists about one processed frame: which
/// frame-level models ran and what they answered. Pixels are *not* stored
/// — decode is cheap and deterministic, so replay re-decodes and skips
/// only the model stages whose outputs are recorded here (the store acts
/// as a persistent cache of model answers, not a video archive). Per-object
/// classify answers are not stored: a value belongs to one tracked object,
/// and a track id names it only within the tracker that assigned it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FrameRecord {
    /// Frame index within the stream (monotonic from the stream origin).
    pub frame: u64,
    /// Seconds since the start of the video.
    pub time_s: f64,
    /// Microseconds since the store epoch at which the frame was ingested
    /// live. This is what maps a `from: Instant` attach onto a frame.
    pub ingest_us: u64,
    /// Detector outputs, one entry per `(detector name, detections)`.
    pub detects: Vec<(String, Vec<Detection>)>,
    /// Frame-classifier verdicts, one entry per `(model name, verdict)`.
    pub predicts: Vec<(String, bool)>,
}

impl FrameRecord {
    /// Encodes the record into `out` (deterministic, self-delimiting).
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.frame);
        put_f64(out, self.time_s);
        put_u64(out, self.ingest_us);
        put_u32(out, self.detects.len() as u32);
        for (model, dets) in &self.detects {
            put_str(out, model);
            put_u32(out, dets.len() as u32);
            for d in dets {
                put_detection(out, d);
            }
        }
        put_u32(out, self.predicts.len() as u32);
        for (model, verdict) in &self.predicts {
            put_str(out, model);
            put_u8(out, *verdict as u8);
        }
    }

    /// Decodes one record, advancing `buf`.
    ///
    /// # Errors
    ///
    /// A [`WireError`] on truncated or garbled input; never panics.
    pub fn decode(buf: &mut &[u8]) -> Result<FrameRecord, WireError> {
        let frame = get_u64(buf)?;
        let time_s = get_f64(buf)?;
        let ingest_us = get_u64(buf)?;
        let n_detects = get_u32(buf)? as usize;
        let mut detects = Vec::with_capacity(n_detects.min(64));
        for _ in 0..n_detects {
            let model = get_str(buf)?;
            let n = get_u32(buf)? as usize;
            let mut dets = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                dets.push(get_detection(buf)?);
            }
            detects.push((model, dets));
        }
        let n_predicts = get_u32(buf)? as usize;
        let mut predicts = Vec::with_capacity(n_predicts.min(64));
        for _ in 0..n_predicts {
            let model = get_str(buf)?;
            predicts.push((model, get_u8(buf)? != 0));
        }
        Ok(FrameRecord {
            frame,
            time_s,
            ingest_us,
            detects,
            predicts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqpy_video::geometry::BBox;

    fn sample(frame: u64) -> FrameRecord {
        FrameRecord {
            frame,
            time_s: frame as f64 / 30.0,
            ingest_us: frame * 33_000,
            detects: vec![(
                "yolox".into(),
                vec![Detection {
                    class_label: "car".into(),
                    bbox: BBox::new(1.0, 2.0, 3.0, 4.0),
                    score: 0.9,
                    sim_entity: Some(5),
                }],
            )],
            predicts: vec![("red_car_filter".into(), true)],
        }
    }

    #[test]
    fn record_roundtrips() {
        let rec = sample(7);
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        let mut slice = buf.as_slice();
        assert_eq!(FrameRecord::decode(&mut slice).unwrap(), rec);
        assert!(slice.is_empty());
    }

    #[test]
    fn every_truncation_fails_cleanly() {
        let rec = sample(3);
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        for cut in 0..buf.len() {
            let mut slice = &buf[..cut];
            assert!(FrameRecord::decode(&mut slice).is_err(), "cut {cut}");
        }
    }
}
