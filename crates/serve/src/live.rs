//! The live feed: one step of a live stream, and the persistence of what
//! it executed into the stream's store.

use crate::config::ServeResult;
use crate::delivery::Exit;
use crate::replay::RecordingDispatch;
use crate::server::StepOutcome;
use crate::stream::{Stream, StreamHandle};
use crate::StreamServer;
use std::sync::atomic::Ordering;
use std::time::Instant;
use vqpy_store::FrameRecord;

impl StreamServer {
    /// One step of a live stream: apply commands, run one segment, persist
    /// it, and retire the subscriptions at end-of-video.
    pub(crate) fn step_live(
        &self,
        handle: &StreamHandle,
        s: &mut Stream,
        recorder: Option<&RecordingDispatch>,
    ) -> ServeResult<StepOutcome> {
        let recompiled = self.apply_commands(handle, s)?;
        let total = s.source.frame_count();
        let frames = self
            .frames_per_step()
            .min(total.saturating_sub(s.next_frame));
        if frames > 0 {
            let range = s.next_frame..s.next_frame + frames;
            let wall = Instant::now();
            if s.plan.is_some() {
                self.run_segment_isolated(handle, s, &range, wall)?;
                let batch = self.session.config().exec.batch_size.max(1) as u64;
                s.batches += frames.div_ceil(batch);
            }
            // With no queries attached the stream stays live but idle:
            // frames are passed over without decoding (no subscriber needs
            // them).
            s.next_frame = range.end;
            if let Some(recorder) = recorder {
                self.persist_segment(s, recorder, &range);
            }
            s.wall_ms += wall.elapsed().as_secs_f64() * 1e3;
        }
        if s.next_frame >= total {
            self.retire(handle, s, Exit::End);
        }
        handle
            .published_next_frame
            .store(s.next_frame, Ordering::Release);
        Ok(StepOutcome {
            frames,
            finished: handle.finished.load(Ordering::Acquire),
            recompiled,
        })
    }

    /// Appends one [`FrameRecord`] per frame of the just-executed range to
    /// the stream's store: recorded model answers where the frame ran
    /// through a model stage, filler records (time + ingest stamp, no
    /// answers) for idle or decode-failed frames, so the ingest-time index
    /// stays complete and appends stay contiguous.
    fn persist_segment(
        &self,
        s: &mut Stream,
        recorder: &RecordingDispatch,
        range: &std::ops::Range<u64>,
    ) {
        // Drained even once appends failed, so the recording stays bounded.
        let mut recorded = recorder.drain();
        let (Some(ss), Some(fs)) = (s.store.clone(), self.config.store.as_ref()) else {
            return;
        };
        let ingest_us = fs.now_us();
        let fps = s.source.fps().max(1) as f64;
        let _span = self
            .store_tracer
            .span("store", "append")
            .arg("start", range.start)
            .arg("frames", range.end - range.start);
        for f in range.clone() {
            if f < ss.next_frame() {
                // Already persisted — a reopened store directory ahead of
                // this process's progress. Execution is deterministic, so
                // the stored records are identical to what we would write.
                continue;
            }
            let mut rec = recorded.remove(&f).unwrap_or_else(|| FrameRecord {
                frame: f,
                time_s: f as f64 / fps,
                ..FrameRecord::default()
            });
            rec.ingest_us = ingest_us;
            if let Err(e) = ss.append(rec) {
                // An I/O failure mid-log would leave later appends
                // non-contiguous; degrade this stream to live-only.
                eprintln!("vqpy-serve: store append failed, disabling store for this stream: {e}");
                s.store = None;
                return;
            }
        }
    }
}
