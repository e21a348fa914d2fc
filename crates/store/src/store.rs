//! The frame store: per-stream segment directories, retention, eviction.

use crate::record::FrameRecord;
use crate::segment::{
    append_record, scan_segment, segment_file_name, write_header, SegmentFault, SegmentFaultKind,
    SegmentMeta, SEGMENT_HEADER_LEN,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// What the store keeps and for how long.
///
/// `None` bounds mean "keep everything". Retention applies to *sealed*
/// segments only — the active tail segment is never evicted, so a
/// `max_bytes` of 0 still leaves the most recent partial segment readable
/// (and evicts every segment the moment it seals).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetentionPolicy {
    /// Evict oldest sealed segments while a stream's total stored bytes
    /// exceed this.
    pub max_bytes: Option<u64>,
    /// Evict sealed segments whose newest record is older than this
    /// (measured against the store's monotonic epoch clock).
    pub max_age: Option<Duration>,
}

impl RetentionPolicy {
    /// Keep everything (the default).
    pub fn keep_all() -> Self {
        Self::default()
    }
}

/// Configuration for [`FrameStore::open`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding one subdirectory per stream key.
    pub root: PathBuf,
    /// Frames per segment file before it seals and a new one starts.
    pub segment_frames: u64,
    /// Retention bounds enforced over sealed segments.
    pub retention: RetentionPolicy,
    /// Enforce retention over every stream of the store whenever an
    /// append seals a segment, on the appending thread once it has
    /// released its stream's lock. Off, retention runs only when
    /// [`FrameStore::enforce_retention`] is called.
    pub background_eviction: bool,
}

impl StoreConfig {
    /// Defaults: 64-frame segments, keep everything, retention at seal.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self {
            root: root.into(),
            segment_frames: 64,
            retention: RetentionPolicy::keep_all(),
            background_eviction: true,
        }
    }
}

/// Monotonic store-wide counters, shared with readers (the serving layer
/// exports them as `vqpy_store_*` Prometheus metrics). `bytes` and
/// `segments` are gauges tracking current footprint; the rest only grow.
#[derive(Debug, Default)]
pub struct StoreMetrics {
    /// Bytes currently stored across all streams.
    pub bytes: AtomicU64,
    /// Segment files currently on disk across all streams.
    pub segments: AtomicU64,
    /// Segments evicted by retention since open.
    pub evictions: AtomicU64,
    /// Model-stage invocations answered from stored records during replay
    /// (incremented by the serving layer's replay dispatcher).
    pub replay_hits: AtomicU64,
    /// Segments found damaged (garbled/bad header) by scans since open.
    pub corrupt_segments: AtomicU64,
    /// Frame records appended since open.
    pub appended_frames: AtomicU64,
}

impl StoreMetrics {
    fn add_segment(&self, bytes: u64) {
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.segments.fetch_add(1, Ordering::Relaxed);
    }
}

/// A fault hit while reading stored history. Readers treat every fault as
/// "these frames are simply not stored": replay recomputes them, so a
/// damaged store degrades to slower replay, never to wrong results.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreFault {
    /// A segment file was damaged; the unreadable suffix is skipped.
    Corrupt(SegmentFault),
    /// A segment file vanished between snapshot and read (eviction racing
    /// a replay).
    Missing {
        /// The segment file that disappeared.
        path: PathBuf,
    },
}

impl fmt::Display for StoreFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreFault::Corrupt(fault) => write!(f, "corrupt {fault}"),
            StoreFault::Missing { path } => {
                write!(f, "segment {} evicted during read", path.display())
            }
        }
    }
}

/// Records plus faults returned by [`StreamStore::load_range`].
#[derive(Debug, Default)]
pub struct RangeLoad {
    /// The stored records intersecting the requested range, frame order.
    pub records: Vec<FrameRecord>,
    /// Damage encountered while reading; the affected frames are absent
    /// from `records`.
    pub faults: Vec<StoreFault>,
}

type StreamMap = Mutex<HashMap<String, Arc<StreamStore>>>;

/// Retention over every stream of one store: what
/// [`FrameStore::enforce_retention`] runs, and what a sealing append runs
/// when [`StoreConfig::background_eviction`] is set.
struct Sweep {
    streams: Weak<StreamMap>,
    retention: RetentionPolicy,
    epoch: Instant,
}

impl Sweep {
    fn run(&self) {
        // Under the default keep-all policy a seal has nothing to evict.
        if self.retention == RetentionPolicy::keep_all() {
            return;
        }
        let Some(streams) = self.streams.upgrade() else {
            return;
        };
        let now_us = self.epoch.elapsed().as_micros() as u64;
        let targets: Vec<Arc<StreamStore>> = streams.lock().values().cloned().collect();
        for s in targets {
            s.enforce_retention(&self.retention, now_us);
        }
    }
}

/// The persistent frame/result store: one subdirectory of append-only
/// segment files per stream, an in-memory derived index, and retention
/// enforcement.
///
/// All methods take `&self`; per-stream state is internally locked, so one
/// store instance is shared freely between the ingest path (live serving
/// appends) and any number of replay readers.
pub struct FrameStore {
    config: StoreConfig,
    epoch: Instant,
    streams: Arc<StreamMap>,
    metrics: Arc<StoreMetrics>,
}

impl fmt::Debug for FrameStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrameStore")
            .field("root", &self.config.root)
            .field("segment_frames", &self.config.segment_frames)
            .field("retention", &self.config.retention)
            .finish_non_exhaustive()
    }
}

impl FrameStore {
    /// Opens (creating if needed) the store rooted at `config.root`,
    /// rescanning any stream directories already on disk — the index is
    /// always rebuilt from the files, never loaded from a sidecar.
    ///
    /// # Errors
    ///
    /// An [`std::io::Error`] when the root cannot be created or an
    /// existing stream directory cannot be read.
    pub fn open(config: StoreConfig) -> std::io::Result<Arc<FrameStore>> {
        std::fs::create_dir_all(&config.root)?;
        let store = FrameStore {
            config,
            epoch: Instant::now(),
            streams: Arc::default(),
            metrics: Arc::default(),
        };
        for entry in std::fs::read_dir(&store.config.root)? {
            let entry = entry?;
            if entry.file_type()?.is_dir() {
                let key = entry.file_name().to_string_lossy().into_owned();
                let stream = store.open_stream(&key, entry.path())?;
                store.streams.lock().insert(key, Arc::new(stream));
            }
        }
        Ok(Arc::new(store))
    }

    /// Opens one stream directory, handing it the store's retention sweep
    /// when seals enforce retention.
    fn open_stream(&self, key: &str, dir: PathBuf) -> std::io::Result<StreamStore> {
        let sweep = self.config.background_eviction.then(|| self.sweep());
        StreamStore::open(key, dir, self.config.segment_frames, &self.metrics, sweep)
    }

    fn sweep(&self) -> Sweep {
        Sweep {
            streams: Arc::downgrade(&self.streams),
            retention: self.config.retention,
            epoch: self.epoch,
        }
    }

    /// The instant all `ingest_us` timestamps are measured from. Maps a
    /// `from: Instant` attach onto the stored timeline.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Microseconds elapsed since the store epoch.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Converts an [`Instant`] to microseconds since the store epoch,
    /// saturating to 0 for instants before it.
    pub fn instant_us(&self, t: Instant) -> u64 {
        t.checked_duration_since(self.epoch)
            .map_or(0, |d| d.as_micros() as u64)
    }

    /// The shared metric counters.
    pub fn metrics(&self) -> Arc<StoreMetrics> {
        Arc::clone(&self.metrics)
    }

    /// The store's retention policy.
    pub fn retention(&self) -> RetentionPolicy {
        self.config.retention
    }

    /// Returns the per-stream store for `key`, opening its directory (and
    /// rescanning any existing segments) on first use.
    ///
    /// # Errors
    ///
    /// An [`std::io::Error`] when the stream directory cannot be created
    /// or scanned.
    pub fn stream(&self, key: &str) -> std::io::Result<Arc<StreamStore>> {
        let mut map = self.streams.lock();
        if let Some(s) = map.get(key) {
            return Ok(Arc::clone(s));
        }
        let dir = self.config.root.join(key);
        std::fs::create_dir_all(&dir)?;
        let stream = Arc::new(self.open_stream(key, dir)?);
        map.insert(key.to_owned(), Arc::clone(&stream));
        Ok(stream)
    }

    /// Stream keys currently known to the store, sorted.
    pub fn stream_keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self.streams.lock().keys().cloned().collect();
        keys.sort();
        keys
    }

    /// Enforces the retention policy over every stream now: the same
    /// sweep a sealing append runs when
    /// [`StoreConfig::background_eviction`] is set, and the only one when
    /// it is not.
    pub fn enforce_retention(&self) {
        self.sweep().run();
    }
}

struct ActiveSegment {
    meta: SegmentMeta,
    file: File,
    /// Read-your-writes overlay: the active segment's records stay in
    /// memory so readers never re-scan the file being appended to.
    overlay: Vec<FrameRecord>,
}

struct StreamInner {
    sealed: Vec<SegmentMeta>,
    active: Option<ActiveSegment>,
    next_frame: u64,
    /// One `(first frame, ingest_us)` entry per run of indexed frames
    /// stamped alike (the serving layer stamps a whole step at once),
    /// frame-ascending; the binary-search index behind
    /// [`StreamStore::frame_at_or_after`].
    ingest_index: Vec<(u64, u64)>,
}

impl StreamInner {
    fn index_ingest(&mut self, frame: u64, ingest_us: u64) {
        if self
            .ingest_index
            .last()
            .is_none_or(|&(_, t)| t != ingest_us)
        {
            self.ingest_index.push((frame, ingest_us));
        }
    }
}

/// One stream's persisted history. Obtained from [`FrameStore::stream`];
/// cheap to clone via `Arc` and safe to share between the live ingest
/// path and replay readers.
pub struct StreamStore {
    key: String,
    dir: PathBuf,
    segment_frames: u64,
    metrics: Arc<StoreMetrics>,
    inner: Mutex<StreamInner>,
    /// The store-wide retention sweep a seal runs, when seals evict.
    sweep: Option<Sweep>,
}

impl fmt::Debug for StreamStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamStore")
            .field("key", &self.key)
            .field("dir", &self.dir)
            .finish_non_exhaustive()
    }
}

impl StreamStore {
    fn open(
        key: &str,
        dir: PathBuf,
        segment_frames: u64,
        metrics: &Arc<StoreMetrics>,
        sweep: Option<Sweep>,
    ) -> std::io::Result<StreamStore> {
        assert!(segment_frames > 0, "segment_frames must be positive");
        // Rebuild the index by scanning every segment file, base-frame
        // ascending. Crash artifacts (truncated tails) are trimmed so the
        // writer can resume appending; damaged segments are counted and
        // kept read-only up to their clean prefix, or deleted when nothing
        // in them reads (a bad header, another format version, a garbled
        // first record).
        let mut paths: Vec<(u64, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
            if let Some(name) = name {
                if let Some(base) = name
                    .strip_prefix("seg-")
                    .and_then(|s| s.strip_suffix(".vqs"))
                    .and_then(|s| s.parse::<u64>().ok())
                {
                    paths.push((base, path));
                }
            }
        }
        paths.sort();

        let mut index = StreamInner {
            sealed: Vec::new(),
            active: None,
            next_frame: 0,
            ingest_index: Vec::new(),
        };
        let last = paths.len().wrapping_sub(1);
        for (i, (_, path)) in paths.iter().enumerate() {
            let scanned = scan_segment(path)?;
            let mut damaged = false;
            if let Some(fault) = &scanned.fault {
                if fault.kind == SegmentFaultKind::TruncatedTail {
                    // Normal crash artifact: trim back to the clean
                    // prefix so appends can resume.
                    let f = OpenOptions::new().write(true).open(path)?;
                    f.set_len(fault.clean_len)?;
                } else {
                    metrics.corrupt_segments.fetch_add(1, Ordering::Relaxed);
                    damaged = true;
                }
            }
            if damaged && scanned.records.is_empty() {
                // Nothing in it reads, so it indexes no frame: its frames
                // recompute on replay, as after an eviction. An entry for
                // it would name a file a later append may create anew,
                // and evicting that entry would delete the live segment.
                std::fs::remove_file(path)?;
                continue;
            }
            for rec in &scanned.records {
                index.index_ingest(rec.frame, rec.ingest_us);
            }
            index.next_frame = index.next_frame.max(scanned.meta.end_frame);
            metrics.add_segment(scanned.meta.bytes);
            let full = scanned.meta.records >= segment_frames;
            if i == last && !full && !damaged {
                // Resume appending into the tail segment.
                let file = OpenOptions::new().append(true).open(path)?;
                index.active = Some(ActiveSegment {
                    meta: scanned.meta,
                    file,
                    overlay: scanned.records,
                });
            } else {
                let mut meta = scanned.meta;
                meta.sealed = true;
                meta.damaged = damaged;
                index.sealed.push(meta);
            }
        }
        Ok(StreamStore {
            key: key.to_owned(),
            dir,
            segment_frames,
            metrics: Arc::clone(metrics),
            inner: Mutex::new(index),
            sweep,
        })
    }

    /// The stream key (directory name under the store root).
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Appends one frame record. Frames must arrive in order: `rec.frame`
    /// must equal [`StreamStore::next_frame`].
    ///
    /// # Errors
    ///
    /// An [`std::io::Error`] when the segment file cannot be written.
    ///
    /// # Panics
    ///
    /// When `rec.frame` is out of order.
    pub fn append(&self, rec: FrameRecord) -> std::io::Result<()> {
        let mut inner = self.inner.lock();
        assert_eq!(
            rec.frame, inner.next_frame,
            "stream {}: append out of order",
            self.key
        );
        if inner.active.is_none() {
            let base = inner.next_frame;
            let path = self.dir.join(segment_file_name(base));
            let mut file = File::create(&path)?;
            write_header(&mut file, base)?;
            self.metrics.add_segment(SEGMENT_HEADER_LEN);
            inner.active = Some(ActiveSegment {
                meta: SegmentMeta {
                    base_frame: base,
                    end_frame: base,
                    records: 0,
                    bytes: SEGMENT_HEADER_LEN,
                    min_ingest_us: 0,
                    max_ingest_us: 0,
                    sealed: false,
                    damaged: false,
                    path,
                },
                file,
                overlay: Vec::new(),
            });
        }
        inner.index_ingest(rec.frame, rec.ingest_us);
        let written = {
            let active = inner.active.as_mut().unwrap();
            let written = append_record(&mut active.file, &rec)?;
            if active.meta.records == 0 {
                active.meta.min_ingest_us = rec.ingest_us;
            }
            active.meta.max_ingest_us = rec.ingest_us;
            active.meta.records += 1;
            active.meta.end_frame = rec.frame + 1;
            active.meta.bytes += written;
            active.overlay.push(rec);
            written
        };
        inner.next_frame += 1;
        self.metrics.bytes.fetch_add(written, Ordering::Relaxed);
        self.metrics.appended_frames.fetch_add(1, Ordering::Relaxed);
        if inner.active.as_ref().unwrap().meta.records >= self.segment_frames {
            let mut meta = inner.active.take().unwrap().meta;
            meta.sealed = true;
            inner.sealed.push(meta);
            drop(inner);
            if let Some(sweep) = &self.sweep {
                sweep.run();
            }
        }
        Ok(())
    }

    /// One past the last appended frame.
    pub fn next_frame(&self) -> u64 {
        self.inner.lock().next_frame
    }

    /// The earliest frame still retained, `None` when nothing is stored.
    pub fn earliest_frame(&self) -> Option<u64> {
        let inner = self.inner.lock();
        inner
            .sealed
            .first()
            .map(|m| m.base_frame)
            .or_else(|| inner.active.as_ref().map(|a| a.meta.base_frame))
            .filter(|_| inner.next_frame > 0)
    }

    /// The first indexed frame ingested at or after `ingest_us`; `None`
    /// when every indexed frame is older. The index covers every frame
    /// appended since open — including frames whose segments were since
    /// evicted — so replay delivery boundaries survive retention. A
    /// reopened store indexes retained segments only.
    pub fn frame_at_or_after(&self, ingest_us: u64) -> Option<u64> {
        let inner = self.inner.lock();
        let idx = inner.ingest_index.partition_point(|&(_, t)| t < ingest_us);
        inner.ingest_index.get(idx).map(|&(f, _)| f)
    }

    /// Snapshot of the current segment index (sealed first, then the
    /// active tail), for tests and introspection.
    pub fn segments(&self) -> Vec<SegmentMeta> {
        let inner = self.inner.lock();
        let mut out = inner.sealed.clone();
        out.extend(inner.active.as_ref().map(|a| a.meta.clone()));
        out
    }

    /// Loads every stored record with `start <= frame < end`.
    ///
    /// The segment list is snapshotted under the lock, then files are read
    /// *outside* it, so bulk replay reads never block the ingest path. A
    /// segment evicted or damaged between snapshot and read yields a typed
    /// [`StoreFault`] on every read and its frames are simply absent —
    /// callers recompute them. A damaged segment counts in
    /// [`StoreMetrics::corrupt_segments`] once, when first found so.
    pub fn load_range(&self, start: u64, end: u64) -> RangeLoad {
        let mut out = RangeLoad::default();
        if start >= end {
            return out;
        }
        // Snapshot under the lock; clone the active overlay records that
        // intersect the range (read-your-writes).
        let (sealed, mut overlay): (Vec<SegmentMeta>, Vec<FrameRecord>) = {
            let inner = self.inner.lock();
            let sealed = inner
                .sealed
                .iter()
                .filter(|m| m.base_frame < end && m.end_frame > start)
                .cloned()
                .collect();
            let overlay = inner
                .active
                .as_ref()
                .map(|a| {
                    a.overlay
                        .iter()
                        .filter(|r| r.frame >= start && r.frame < end)
                        .cloned()
                        .collect()
                })
                .unwrap_or_default();
            (sealed, overlay)
        };
        for meta in sealed {
            match scan_segment(&meta.path) {
                Ok(scanned) => {
                    if let Some(fault) = scanned.fault {
                        if self.mark_damaged(meta.base_frame) {
                            self.metrics
                                .corrupt_segments
                                .fetch_add(1, Ordering::Relaxed);
                        }
                        out.faults.push(StoreFault::Corrupt(fault));
                    }
                    out.records.extend(
                        scanned
                            .records
                            .into_iter()
                            .filter(|r| r.frame >= start && r.frame < end),
                    );
                }
                Err(_) => out.faults.push(StoreFault::Missing { path: meta.path }),
            }
        }
        // Sealed segments are indexed by base and the overlay follows
        // them, so the records are already in frame order.
        out.records.append(&mut overlay);
        out
    }

    /// Marks the sealed segment based at `base_frame` damaged: whether it
    /// was still indexed and not yet marked.
    fn mark_damaged(&self, base_frame: u64) -> bool {
        let mut inner = self.inner.lock();
        let meta = inner.sealed.iter_mut().find(|m| m.base_frame == base_frame);
        meta.is_some_and(|m| !std::mem::replace(&mut m.damaged, true))
    }

    /// Applies `policy` to this stream's sealed segments: oldest-first
    /// eviction while over `max_bytes`, plus eviction of segments whose
    /// newest record is older than `max_age` relative to `now_us`.
    pub fn enforce_retention(&self, policy: &RetentionPolicy, now_us: u64) {
        let mut evicted = Vec::new();
        {
            let mut inner = self.inner.lock();
            let age_cut_us = policy
                .max_age
                .map(|age| now_us.saturating_sub(age.as_micros() as u64));
            loop {
                let total: u64 = inner.sealed.iter().map(|m| m.bytes).sum::<u64>()
                    + inner.active.as_ref().map_or(0, |a| a.meta.bytes);
                let Some(oldest) = inner.sealed.first() else {
                    break;
                };
                let over_bytes = policy.max_bytes.is_some_and(|cap| total > cap);
                let over_age = age_cut_us.is_some_and(|cut| oldest.max_ingest_us < cut);
                if !(over_bytes || over_age) {
                    break;
                }
                evicted.push(inner.sealed.remove(0));
            }
            // The ingest index is deliberately NOT pruned: replay delivery
            // boundaries (`frame_at_or_after`) must stay exact even for
            // frames whose data was evicted — those frames are recomputed,
            // not skipped. 16 bytes/frame, in memory only; a reopened store
            // indexes retained segments only.
        }
        for meta in evicted {
            let _ = std::fs::remove_file(&meta.path);
            self.metrics.bytes.fetch_sub(meta.bytes, Ordering::Relaxed);
            self.metrics.segments.fetch_sub(1, Ordering::Relaxed);
            self.metrics.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{corrupt_segment, SegmentCorruption};

    fn rec(frame: u64) -> FrameRecord {
        FrameRecord {
            frame,
            time_s: frame as f64 / 30.0,
            ingest_us: 1000 + frame * 1000,
            predicts: vec![("red_car_filter".into(), true)],
            ..FrameRecord::default()
        }
    }

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vqpy_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn config(tag: &str) -> StoreConfig {
        let mut c = StoreConfig::new(tmp_root(tag));
        c.segment_frames = 4;
        c.background_eviction = false;
        c
    }

    #[test]
    fn append_roll_and_read_back() {
        let store = FrameStore::open(config("basic")).unwrap();
        let s = store.stream("cam0").unwrap();
        for f in 0..10 {
            s.append(rec(f)).unwrap();
        }
        assert_eq!(s.next_frame(), 10);
        assert_eq!(s.earliest_frame(), Some(0));
        let segs = s.segments();
        assert_eq!(segs.len(), 3, "4+4+2 frames");
        assert!(segs[0].sealed && segs[1].sealed && !segs[2].sealed);
        let load = s.load_range(2, 9);
        assert!(load.faults.is_empty());
        assert_eq!(
            load.records.iter().map(|r| r.frame).collect::<Vec<_>>(),
            (2..9).collect::<Vec<_>>()
        );
        assert_eq!(load.records[0], rec(2));
        assert_eq!(store.metrics().appended_frames.load(Ordering::Relaxed), 10);
    }

    /// A segment in format version 1, whose records ended with a list of
    /// memoised intrinsic values, is a bad header to this build: reopen
    /// counts it once and drops it from the index and the disk, a read of
    /// its frames finds nothing, and the next append starts a fresh
    /// segment in its place.
    #[test]
    fn a_version_1_segment_reopens_as_one_counted_bad_header() {
        use crate::segment::{fnv1a, scan_segment, SEGMENT_MAGIC};
        use crate::wire::{put_u32, put_u64};

        let cfg = config("v1");
        let dir = cfg.root.join("cam0");
        std::fs::create_dir_all(&dir).unwrap();
        // Today's record fields, then version 1's (empty) intrinsics list.
        let mut payload = Vec::new();
        rec(0).encode(&mut payload);
        put_u32(&mut payload, 0);
        let mut file = SEGMENT_MAGIC.to_vec();
        put_u32(&mut file, 1);
        put_u64(&mut file, 0);
        put_u32(&mut file, payload.len() as u32);
        put_u64(&mut file, fnv1a(&payload));
        file.extend_from_slice(&payload);
        let path = dir.join(segment_file_name(0));
        std::fs::write(&path, file).unwrap();

        let store = FrameStore::open(cfg).unwrap();
        let metrics = store.metrics();
        let s = store.stream("cam0").unwrap();
        assert_eq!(metrics.corrupt_segments.load(Ordering::Relaxed), 1);
        assert!(s.segments().is_empty(), "{:?}", s.segments());
        assert!(!path.exists(), "the unreadable file is deleted");
        assert_eq!(metrics.segments.load(Ordering::Relaxed), 0);
        assert_eq!(s.next_frame(), 0);
        let load = s.load_range(0, 1);
        assert!(load.records.is_empty() && load.faults.is_empty());

        s.append(rec(0)).unwrap();
        let segs = s.segments();
        assert_eq!(segs.len(), 1);
        assert_eq!((segs[0].base_frame, segs[0].end_frame), (0, 1));
        assert!(!segs[0].sealed);
        let scanned = scan_segment(&path).unwrap();
        assert!(scanned.fault.is_none(), "{:?}", scanned.fault);
        assert_eq!(scanned.records, [rec(0)]);
        assert_eq!(s.load_range(0, 1).records, [rec(0)]);
        assert_eq!(metrics.corrupt_segments.load(Ordering::Relaxed), 1);
    }

    /// A segment with no readable record leaves no index entry. Kept at
    /// base 0 (a bad header) or at its own base with no frames (a garbled
    /// first record), the entry named a file the next append creates
    /// anew, and age retention evicted it first: it deleted the live
    /// segment, and its frames read back as a `Missing` fault.
    #[test]
    fn an_unreadable_segment_leaves_no_entry_for_retention_to_evict() {
        let first_payload_byte = SEGMENT_HEADER_LEN as usize + 12;
        for (tag, damaged_byte) in [("magic", 0), ("record", first_payload_byte)] {
            let cfg = config(&format!("phantom_{tag}"));
            let dir = cfg.root.join("cam0");
            {
                let store = FrameStore::open(cfg.clone()).unwrap();
                let s = store.stream("cam0").unwrap();
                for f in 0..10 {
                    s.append(rec(f)).unwrap();
                }
            }
            let path = dir.join(segment_file_name(8));
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[damaged_byte] ^= 0xFF;
            std::fs::write(&path, bytes).unwrap();

            let store = FrameStore::open(cfg).unwrap();
            let metrics = store.metrics();
            let s = store.stream("cam0").unwrap();
            assert_eq!(metrics.corrupt_segments.load(Ordering::Relaxed), 1, "{tag}");
            let ranges = |s: &StreamStore| {
                s.segments()
                    .iter()
                    .map(|m| (m.base_frame, m.end_frame))
                    .collect::<Vec<_>>()
            };
            assert_eq!(ranges(&s), [(0, 4), (4, 8)], "{tag}");
            for f in 8..12 {
                s.append(rec(f)).unwrap();
            }
            assert_eq!(ranges(&s), [(0, 4), (4, 8), (8, 12)], "{tag}");
            let files = std::fs::read_dir(&dir).unwrap().count() as u64;
            assert_eq!(files, 3, "{tag}");
            assert_eq!(metrics.segments.load(Ordering::Relaxed), files, "{tag}");

            // The cut at 13 000 - 4 500 µs evicts frames 0..8 (newest
            // ingest 8 000 µs) and keeps 8..12 (newest 12 000 µs).
            let policy = RetentionPolicy {
                max_age: Some(Duration::from_micros(4_500)),
                ..RetentionPolicy::keep_all()
            };
            s.enforce_retention(&policy, 13_000);
            let load = s.load_range(0, 14);
            assert!(load.faults.is_empty(), "{tag}: {:?}", load.faults);
            assert_eq!(
                load.records.iter().map(|r| r.frame).collect::<Vec<_>>(),
                (8..12).collect::<Vec<_>>(),
                "{tag}"
            );
        }
    }

    #[test]
    fn crash_recovery_reopen_mid_segment_rebuilds_index_byte_identically() {
        let cfg = config("crash");
        let before = {
            let store = FrameStore::open(cfg.clone()).unwrap();
            let s = store.stream("cam0").unwrap();
            for f in 0..6 {
                s.append(rec(f)).unwrap();
            }
            s.segments()
        };
        // "Crash": the store was dropped with an unsealed tail segment.
        let store = FrameStore::open(cfg.clone()).unwrap();
        let s = store.stream("cam0").unwrap();
        assert_eq!(s.segments(), before, "index must rebuild identically");
        assert_eq!(s.next_frame(), 6);
        // Appends resume into the recovered tail.
        s.append(rec(6)).unwrap();
        s.append(rec(7)).unwrap();
        let segs = s.segments();
        assert_eq!(segs.len(), 2);
        assert!(segs[1].sealed, "tail filled to 4 records and sealed");
        assert_eq!(s.load_range(0, 8).records.len(), 8);

        // A crash that tore the tail record mid-write: trim and resume.
        drop(s);
        drop(store);
        let torn = cfg.root.join("cam0").join(segment_file_name(8));
        {
            let store = FrameStore::open(cfg.clone()).unwrap();
            let s = store.stream("cam0").unwrap();
            for f in 8..10 {
                s.append(rec(f)).unwrap();
            }
        }
        corrupt_segment(&torn, SegmentCorruption::TruncateTail(5)).unwrap();
        let store = FrameStore::open(cfg).unwrap();
        let s = store.stream("cam0").unwrap();
        assert_eq!(s.next_frame(), 9, "torn record 9 trimmed");
        s.append(rec(9)).unwrap();
        assert_eq!(s.load_range(8, 10).records.len(), 2);
    }

    #[test]
    fn retention_by_bytes_evicts_oldest_sealed_only() {
        let mut cfg = config("bytes");
        cfg.retention.max_bytes = Some(0);
        let store = FrameStore::open(cfg).unwrap();
        let s = store.stream("cam0").unwrap();
        for f in 0..9 {
            s.append(rec(f)).unwrap();
        }
        store.enforce_retention();
        let segs = s.segments();
        assert_eq!(segs.len(), 1, "every sealed segment evicted");
        assert!(!segs[0].sealed, "active tail survives retention=0");
        assert_eq!(s.earliest_frame(), Some(8));
        assert_eq!(store.metrics().evictions.load(Ordering::Relaxed), 2);
        assert_eq!(
            store.metrics().segments.load(Ordering::Relaxed),
            1,
            "gauge tracks surviving segments"
        );
        // Evicted frames are gone; retained ones still read.
        let load = s.load_range(0, 9);
        assert_eq!(
            load.records.iter().map(|r| r.frame).collect::<Vec<_>>(),
            vec![8]
        );
    }

    #[test]
    fn retention_by_age() {
        let mut cfg = config("age");
        cfg.retention.max_age = Some(Duration::from_micros(3500));
        let store = FrameStore::open(cfg).unwrap();
        let s = store.stream("cam0").unwrap();
        for f in 0..8 {
            s.append(rec(f)).unwrap(); // ingest_us = 1000..=8000
        }
        // now_us = 9000 → cutoff 5500: first segment (max ingest 4000)
        // ages out, second (max ingest 8000) stays.
        s.enforce_retention(&store.retention(), 9_000);
        assert_eq!(s.earliest_frame(), Some(4));
    }

    #[test]
    fn replay_racing_eviction_yields_typed_fault() {
        let store = FrameStore::open(config("race")).unwrap();
        let s = store.stream("cam0").unwrap();
        for f in 0..8 {
            s.append(rec(f)).unwrap();
        }
        // Simulate eviction racing a reader that already snapshotted the
        // segment list: delete the file behind the index's back.
        let first = s.segments()[0].path.clone();
        std::fs::remove_file(&first).unwrap();
        let load = s.load_range(0, 8);
        assert_eq!(load.faults, vec![StoreFault::Missing { path: first }]);
        assert_eq!(load.records.len(), 4, "remaining frames still load");
    }

    #[test]
    fn corrupt_sealed_segment_skips_with_typed_fault() {
        let store = FrameStore::open(config("corrupt")).unwrap();
        let s = store.stream("cam0").unwrap();
        for f in 0..8 {
            s.append(rec(f)).unwrap();
        }
        let first = s.segments()[0].path.clone();
        corrupt_segment(&first, SegmentCorruption::FlipByteFromEnd(2)).unwrap();
        let load = s.load_range(0, 8);
        assert_eq!(load.faults.len(), 1);
        assert!(matches!(load.faults[0], StoreFault::Corrupt(_)));
        // Frames 0..3 minus the garbled record survive; 4..8 untouched.
        assert_eq!(load.records.len(), 7);
        assert_eq!(store.metrics().corrupt_segments.load(Ordering::Relaxed), 1);
    }

    /// A damaged segment counts once however often it is read, and not
    /// again after a reopen found it damaged: every read still reports
    /// its fault, so a reader knows which frames to recompute.
    #[test]
    fn a_damaged_segment_counts_once_over_repeated_reads() {
        let cfg = config("damage_once");
        {
            let store = FrameStore::open(cfg.clone()).unwrap();
            let s = store.stream("cam0").unwrap();
            for f in 0..10 {
                s.append(rec(f)).unwrap();
            }
            let first = s.segments()[0].path.clone();
            corrupt_segment(&first, SegmentCorruption::FlipByteFromEnd(2)).unwrap();
            for _ in 0..5 {
                let load = s.load_range(0, 10);
                assert_eq!(load.faults.len(), 1);
                assert_eq!(load.records.len(), 9);
            }
            assert_eq!(store.metrics().corrupt_segments.load(Ordering::Relaxed), 1);
        }
        let store = FrameStore::open(cfg).unwrap();
        let s = store.stream("cam0").unwrap();
        assert_eq!(store.metrics().corrupt_segments.load(Ordering::Relaxed), 1);
        for _ in 0..5 {
            assert_eq!(s.load_range(0, 4).faults.len(), 1);
        }
        assert_eq!(store.metrics().corrupt_segments.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn empty_stream_and_empty_range_edges() {
        let store = FrameStore::open(config("edges")).unwrap();
        let s = store.stream("cam0").unwrap();
        assert_eq!(s.earliest_frame(), None);
        assert_eq!(s.next_frame(), 0);
        assert!(s.load_range(0, 100).records.is_empty());
        assert!(s.load_range(5, 5).records.is_empty());
        assert_eq!(s.frame_at_or_after(0), None);
        store.enforce_retention(); // no-op, must not panic
    }

    #[test]
    fn frame_at_or_after_maps_instants_to_frames() {
        let store = FrameStore::open(config("when")).unwrap();
        let s = store.stream("cam0").unwrap();
        for f in 0..5 {
            s.append(rec(f)).unwrap(); // ingest_us = 1000,2000,...
        }
        assert_eq!(s.frame_at_or_after(0), Some(0));
        assert_eq!(s.frame_at_or_after(2000), Some(1));
        assert_eq!(s.frame_at_or_after(2001), Some(2));
        assert_eq!(s.frame_at_or_after(99_999), None);
    }

    #[test]
    fn ingest_index_survives_eviction() {
        let mut cfg = config("when_evicted");
        cfg.retention.max_bytes = Some(0);
        let store = FrameStore::open(cfg).unwrap();
        let s = store.stream("cam0").unwrap();
        for f in 0..9 {
            s.append(rec(f)).unwrap();
        }
        store.enforce_retention();
        assert_eq!(s.earliest_frame(), Some(8), "data evicted");
        // Delivery boundaries still resolve inside the evicted range:
        // those frames are recomputed on replay, never silently skipped.
        assert_eq!(s.frame_at_or_after(0), Some(0));
        assert_eq!(s.frame_at_or_after(3500), Some(3));
    }

    /// With `background_eviction` set, the append that seals a segment
    /// runs retention before it returns: the eviction count is exact right
    /// after each seal, with no wait.
    #[test]
    fn background_evictor_runs_on_seal() {
        let mut cfg = config("bg");
        cfg.retention.max_bytes = Some(0);
        cfg.background_eviction = true;
        let store = FrameStore::open(cfg).unwrap();
        let evictions = || store.metrics().evictions.load(Ordering::Relaxed);
        let s = store.stream("cam0").unwrap();
        for f in 0..3 {
            s.append(rec(f)).unwrap();
        }
        assert_eq!(evictions(), 0);
        s.append(rec(3)).unwrap();
        assert_eq!(evictions(), 1, "the first seal evicts its segment");
        for f in 4..8 {
            s.append(rec(f)).unwrap();
        }
        assert_eq!(evictions(), 2);
        assert!(s.segments().is_empty());
    }

    /// A seal sweeps the whole store: a stream that seals nothing still
    /// loses its over-age sealed segments when another stream seals.
    #[test]
    fn a_seal_evicts_an_over_age_segment_of_another_stream() {
        let mut cfg = config("bg_sweep");
        // One sealed segment of cam_b, stamped at the epoch.
        {
            let store = FrameStore::open(cfg.clone()).unwrap();
            let b = store.stream("cam_b").unwrap();
            for f in 0..4 {
                b.append(FrameRecord {
                    ingest_us: 0,
                    ..rec(f)
                })
                .unwrap();
            }
        }
        cfg.retention.max_age = Some(Duration::from_micros(1));
        cfg.background_eviction = true;
        let store = FrameStore::open(cfg).unwrap();
        let a = store.stream("cam_a").unwrap();
        let b = store.stream("cam_b").unwrap();
        // Stamped far ahead of the store's clock: never over age.
        let fresh = |frame| FrameRecord {
            ingest_us: u64::MAX / 2,
            ..rec(frame)
        };
        for f in 0..3 {
            a.append(fresh(f)).unwrap();
        }
        assert_eq!(b.segments().len(), 1, "no seal yet, no sweep");
        a.append(fresh(3)).unwrap();
        assert!(b.segments().is_empty(), "{:?}", b.segments());
        assert_eq!(a.segments().len(), 1, "a's fresh segment stays");
        assert_eq!(store.metrics().evictions.load(Ordering::Relaxed), 1);
    }

    /// The ingest index keeps one entry per run of equal stamps; every
    /// lookup answers as a per-frame index of the retained frames does,
    /// for each stamp and its neighbours, across steps that straddle
    /// segments, an eviction and a reopen.
    #[test]
    fn ingest_index_by_stamp_answers_as_a_per_frame_index() {
        fn check(s: &StreamStore, reference: &[(u64, u64)]) {
            for &(_, stamp) in reference {
                for t in [stamp.saturating_sub(1), stamp, stamp + 1] {
                    let i = reference.partition_point(|&(_, r)| r < t);
                    let want = reference.get(i).map(|&(f, _)| f);
                    assert_eq!(s.frame_at_or_after(t), want, "at {t} µs");
                }
            }
            let entries = s.inner.lock().ingest_index.len();
            let stamps = reference.windows(2).filter(|w| w[0].1 != w[1].1).count() + 1;
            assert_eq!(entries, stamps);
        }
        // Steps of 3 frames share a stamp; segments hold 4 frames.
        let step_stamp = |frame: u64| 10_000 + (frame / 3) * 1_000;
        let append = |s: &StreamStore, frames: std::ops::Range<u64>, reference: &mut Vec<_>| {
            for f in frames {
                let r = FrameRecord {
                    ingest_us: step_stamp(f),
                    ..rec(f)
                };
                reference.push((f, r.ingest_us));
                s.append(r).unwrap();
            }
        };
        let mut cfg = config("index_runs");
        cfg.retention.max_bytes = Some(0);
        let mut reference = Vec::new();
        {
            let store = FrameStore::open(cfg.clone()).unwrap();
            let s = store.stream("cam0").unwrap();
            append(&s, 0..14, &mut reference);
            check(&s, &reference);
            store.enforce_retention();
            assert_eq!(s.earliest_frame(), Some(12), "frames 0..12 evicted");
            check(&s, &reference);
        }
        // A reopened store indexes the frames it still holds.
        let store = FrameStore::open(cfg).unwrap();
        let s = store.stream("cam0").unwrap();
        let mut reference: Vec<(u64, u64)> = s
            .load_range(0, s.next_frame())
            .records
            .iter()
            .map(|r| (r.frame, r.ingest_us))
            .collect();
        assert_eq!(reference, [(12, 14_000), (13, 14_000)]);
        check(&s, &reference);
        append(&s, 14..23, &mut reference);
        check(&s, &reference);
    }
}
