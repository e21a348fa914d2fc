//! Append-only segment files and their on-disk format.
//!
//! A stream's history is a directory of segment files, each covering a
//! contiguous frame range:
//!
//! ```text
//! seg-000000000000.vqs       frames [0, segment_frames)
//! seg-000000000064.vqs       frames [64, 128)        ← sealed
//! seg-000000000128.vqs       frames [128, ...)       ← active (tail)
//! ```
//!
//! File layout (all integers little-endian):
//!
//! ```text
//! magic "VQPS" | version u32 | base_frame u64          ← 16-byte header
//! [ len u32 | fnv1a64(payload) u64 | payload bytes ]*  ← one per frame
//! ```
//!
//! The scanner validates each record's checksum and decodes it; a clean
//! end-of-file mid-record is a *truncated tail* (the normal crash artifact
//! — the prefix is kept and the file is truncated back to it on reopen),
//! while a checksum or decode failure is a *garbled* record (everything
//! from it on is skipped). Both surface as typed [`SegmentFault`]s, never
//! panics.
//!
//! The scanner reads exactly [`SEGMENT_VERSION`]. A segment of any other
//! version, like one whose magic is wrong, is a [`BadHeader`] fault: the
//! store holds model answers it can recompute, so a format change retires
//! the old format instead of keeping a reader for it, and a reopened store
//! drops such a segment and recomputes its frames on replay.
//!
//! [`BadHeader`]: SegmentFaultKind::BadHeader

use crate::record::FrameRecord;
use crate::wire::{get_u32, get_u64, put_u32, put_u64};
use std::fmt;
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: [u8; 4] = *b"VQPS";
/// On-disk format version: the one this build writes and the only one it
/// reads. Version 2 dropped the memoised intrinsic values that ended each
/// version 1 record.
pub const SEGMENT_VERSION: u32 = 2;
/// Header length in bytes: magic + version + base frame.
pub const SEGMENT_HEADER_LEN: u64 = 16;
/// Sanity cap on a single record's payload length; garbled length
/// prefixes beyond it are treated as corruption, not allocation requests.
const MAX_RECORD_LEN: u32 = 1 << 24;

/// FNV-1a 64-bit hash, the per-record checksum.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// File name for the segment whose first frame is `base_frame`.
pub fn segment_file_name(base_frame: u64) -> String {
    format!("seg-{base_frame:012}.vqs")
}

/// In-memory index entry for one segment. The index is *derived* — it is
/// rebuilt from the files on open, so there is no separate index file to
/// corrupt or desynchronize.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentMeta {
    /// First frame covered (inclusive).
    pub base_frame: u64,
    /// One past the last frame covered.
    pub end_frame: u64,
    /// Valid records in the file (`end_frame - base_frame`).
    pub records: u64,
    /// Bytes of valid data (header + intact records); equals the file
    /// length except while a truncated tail awaits trimming.
    pub bytes: u64,
    /// `ingest_us` of the first record, 0 when empty.
    pub min_ingest_us: u64,
    /// `ingest_us` of the last record, 0 when empty.
    pub max_ingest_us: u64,
    /// Sealed segments take no more appends and are eligible for eviction.
    pub sealed: bool,
    /// A scan since open found the file damaged (counted once in
    /// `StoreMetrics::corrupt_segments`).
    pub damaged: bool,
    /// Absolute file path.
    pub path: PathBuf,
}

/// How a segment scan ended early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentFaultKind {
    /// Clean end-of-file in the middle of a record — the tail written
    /// during a crash. The intact prefix is usable.
    TruncatedTail,
    /// A record failed its checksum or decode — bit rot or a bad writer.
    /// The intact prefix is usable; everything after is skipped.
    Garbled,
    /// The file header is missing or wrong (magic or version mismatch).
    /// Nothing in the file is readable.
    BadHeader,
}

/// A typed, non-panicking description of segment damage.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentFault {
    /// What kind of damage the scanner hit.
    pub kind: SegmentFaultKind,
    /// The damaged file.
    pub path: PathBuf,
    /// Byte offset of the first unusable byte (= length of the clean
    /// prefix).
    pub clean_len: u64,
    /// Human-readable detail for logs/events.
    pub detail: String,
}

impl fmt::Display for SegmentFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "segment {}: {:?} at byte {} ({})",
            self.path.display(),
            self.kind,
            self.clean_len,
            self.detail
        )
    }
}

/// Result of scanning one segment file: the intact records plus the
/// damage report, if any.
#[derive(Debug)]
pub struct ScannedSegment {
    /// Index entry rebuilt from the intact prefix.
    pub meta: SegmentMeta,
    /// Decoded records, in frame order.
    pub records: Vec<FrameRecord>,
    /// Damage hit during the scan, if any.
    pub fault: Option<SegmentFault>,
}

/// Writes a fresh segment header into `file`.
pub fn write_header(file: &mut File, base_frame: u64) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(SEGMENT_HEADER_LEN as usize);
    buf.extend_from_slice(&SEGMENT_MAGIC);
    put_u32(&mut buf, SEGMENT_VERSION);
    put_u64(&mut buf, base_frame);
    file.write_all(&buf)
}

/// Encodes one record into its framed on-disk form (length, checksum,
/// payload) and appends it to `file`, returning the bytes written.
pub fn append_record(file: &mut File, rec: &FrameRecord) -> std::io::Result<u64> {
    let mut payload = Vec::with_capacity(128);
    rec.encode(&mut payload);
    let mut framed = Vec::with_capacity(payload.len() + 12);
    put_u32(&mut framed, payload.len() as u32);
    put_u64(&mut framed, fnv1a(&payload));
    framed.extend_from_slice(&payload);
    file.write_all(&framed)?;
    Ok(framed.len() as u64)
}

/// Reads and validates one segment file front to back.
///
/// Damage never aborts the scan with an error: the intact prefix is
/// returned together with a [`SegmentFault`] describing the first
/// unusable byte. Only opening/reading the file itself can fail.
///
/// # Errors
///
/// An [`std::io::Error`] when the file cannot be opened or read.
pub fn scan_segment(path: &Path) -> std::io::Result<ScannedSegment> {
    let mut data = Vec::new();
    File::open(path)?.read_to_end(&mut data)?;
    let mut records = Vec::new();
    let mut fault = None;

    // Header.
    let mut base_frame = 0u64;
    let mut clean_len = 0u64;
    let header_ok = data.len() >= SEGMENT_HEADER_LEN as usize && data[..4] == SEGMENT_MAGIC && {
        let mut cursor = &data[4..16];
        let version = get_u32(&mut cursor).unwrap();
        base_frame = get_u64(&mut cursor).unwrap();
        version == SEGMENT_VERSION
    };
    if !header_ok {
        fault = Some(SegmentFault {
            kind: SegmentFaultKind::BadHeader,
            path: path.to_path_buf(),
            clean_len: 0,
            detail: "missing or unrecognized segment header".into(),
        });
    } else {
        clean_len = SEGMENT_HEADER_LEN;
        let mut offset = SEGMENT_HEADER_LEN as usize;
        while offset < data.len() {
            let mut cursor = &data[offset..];
            // Frame length + checksum; running out of bytes here or in the
            // payload is the crash-truncation case.
            let (len, sum) = match (get_u32(&mut cursor), get_u64(&mut cursor)) {
                (Ok(len), Ok(sum)) => (len, sum),
                _ => {
                    fault = Some(truncated(path, clean_len));
                    break;
                }
            };
            if len > MAX_RECORD_LEN {
                fault = Some(garbled(path, clean_len, "oversized record length"));
                break;
            }
            if cursor.len() < len as usize {
                fault = Some(truncated(path, clean_len));
                break;
            }
            let payload = &cursor[..len as usize];
            if fnv1a(payload) != sum {
                fault = Some(garbled(path, clean_len, "record checksum mismatch"));
                break;
            }
            let mut body = payload;
            match FrameRecord::decode(&mut body) {
                Ok(rec) if body.is_empty() => records.push(rec),
                Ok(_) => {
                    fault = Some(garbled(path, clean_len, "record has trailing bytes"));
                    break;
                }
                Err(e) => {
                    fault = Some(garbled(path, clean_len, &format!("record decode: {e}")));
                    break;
                }
            }
            offset += 12 + len as usize;
            clean_len = offset as u64;
        }
    }

    let meta = SegmentMeta {
        base_frame,
        end_frame: base_frame + records.len() as u64,
        records: records.len() as u64,
        bytes: clean_len,
        min_ingest_us: records.first().map_or(0, |r| r.ingest_us),
        max_ingest_us: records.last().map_or(0, |r| r.ingest_us),
        sealed: false,
        damaged: false,
        path: path.to_path_buf(),
    };
    Ok(ScannedSegment {
        meta,
        records,
        fault,
    })
}

fn truncated(path: &Path, clean_len: u64) -> SegmentFault {
    SegmentFault {
        kind: SegmentFaultKind::TruncatedTail,
        path: path.to_path_buf(),
        clean_len,
        detail: "end of file inside a record".into(),
    }
}

fn garbled(path: &Path, clean_len: u64, detail: &str) -> SegmentFault {
    SegmentFault {
        kind: SegmentFaultKind::Garbled,
        path: path.to_path_buf(),
        clean_len,
        detail: detail.into(),
    }
}

/// Deterministic segment-file corruption for tests, mirroring
/// [`vqpy_video::FaultyVideo`]: the damage is fixed at the call site, so a
/// corruption scenario reproduces exactly. Not used by production paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentCorruption {
    /// Cut the last `n` bytes off the file (simulates a crash mid-write).
    TruncateTail(u64),
    /// XOR-flip the byte `offset` bytes from the end (simulates bit rot;
    /// lands in the last record's payload for small offsets).
    FlipByteFromEnd(u64),
}

/// Applies `corruption` to the segment file at `path`.
///
/// # Errors
///
/// An [`std::io::Error`] when the file cannot be read or rewritten.
pub fn corrupt_segment(path: &Path, corruption: SegmentCorruption) -> std::io::Result<()> {
    let mut data = Vec::new();
    File::open(path)?.read_to_end(&mut data)?;
    match corruption {
        SegmentCorruption::TruncateTail(n) => {
            let keep = data.len().saturating_sub(n as usize);
            data.truncate(keep);
        }
        SegmentCorruption::FlipByteFromEnd(offset) => {
            let len = data.len();
            if let Some(b) = data.get_mut(len.saturating_sub(1 + offset as usize)) {
                *b ^= 0xFF;
            }
        }
    }
    std::fs::write(path, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(frame: u64) -> FrameRecord {
        FrameRecord {
            frame,
            time_s: frame as f64,
            ingest_us: frame * 1000,
            ..FrameRecord::default()
        }
    }

    fn write_segment(dir: &Path, base: u64, frames: u64) -> PathBuf {
        let path = dir.join(segment_file_name(base));
        let mut f = File::create(&path).unwrap();
        write_header(&mut f, base).unwrap();
        for i in 0..frames {
            append_record(&mut f, &rec(base + i)).unwrap();
        }
        path
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vqpy_seg_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn scan_roundtrips_a_clean_segment() {
        let dir = tmp_dir("clean");
        let path = write_segment(&dir, 64, 5);
        let scanned = scan_segment(&path).unwrap();
        assert!(scanned.fault.is_none());
        assert_eq!(scanned.meta.base_frame, 64);
        assert_eq!(scanned.meta.end_frame, 69);
        assert_eq!(scanned.records.len(), 5);
        assert_eq!(scanned.meta.bytes, std::fs::metadata(&path).unwrap().len());
        assert_eq!(scanned.records[2], rec(66));
    }

    #[test]
    fn truncated_tail_keeps_the_prefix() {
        let dir = tmp_dir("trunc");
        let path = write_segment(&dir, 0, 4);
        corrupt_segment(&path, SegmentCorruption::TruncateTail(7)).unwrap();
        let scanned = scan_segment(&path).unwrap();
        let fault = scanned.fault.expect("truncation must be reported");
        assert_eq!(fault.kind, SegmentFaultKind::TruncatedTail);
        assert_eq!(scanned.records.len(), 3, "last record lost, prefix kept");
        assert_eq!(scanned.meta.bytes, fault.clean_len);
    }

    #[test]
    fn garbled_record_is_typed_not_a_panic() {
        let dir = tmp_dir("garble");
        let path = write_segment(&dir, 0, 4);
        corrupt_segment(&path, SegmentCorruption::FlipByteFromEnd(2)).unwrap();
        let scanned = scan_segment(&path).unwrap();
        let fault = scanned.fault.expect("bit rot must be reported");
        assert_eq!(fault.kind, SegmentFaultKind::Garbled);
        assert_eq!(scanned.records.len(), 3);
    }

    #[test]
    fn bad_header_is_typed() {
        let dir = tmp_dir("hdr");
        let path = dir.join(segment_file_name(0));
        std::fs::write(&path, b"not a segment").unwrap();
        let scanned = scan_segment(&path).unwrap();
        assert_eq!(
            scanned.fault.as_ref().map(|f| f.kind),
            Some(SegmentFaultKind::BadHeader)
        );
        assert!(scanned.records.is_empty());
    }

    #[test]
    fn empty_segment_scans_clean() {
        let dir = tmp_dir("empty");
        let path = write_segment(&dir, 10, 0);
        let scanned = scan_segment(&path).unwrap();
        assert!(scanned.fault.is_none());
        assert_eq!(scanned.meta.records, 0);
        assert_eq!(scanned.meta.base_frame, 10);
        assert_eq!(scanned.meta.bytes, SEGMENT_HEADER_LEN);
    }
}
