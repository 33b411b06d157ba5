//! Journal segment files: header codec, creation, and frame scanning.
//!
//! A segment is `wal-<seq>.cwsj`: a 32-byte checksummed header followed by
//! a run of frames ([`super::frame`]). The header pins the segment's
//! sequence number and the assignment count its record frames were encoded
//! with:
//!
//! ```text
//! offset  size  field
//! ------  ----  --------------------------------------------------
//!      0     4  magic `CWSJ`
//!      4     2  format version (u16, currently 1)
//!      6     2  reserved, must be zero
//!      8     8  segment sequence number (u64)
//!     16     8  number of weight assignments (u64)
//!     24     8  header checksum: `frame_checksum` of bytes 0..24
//! ```
//!
//! Segments are **created** through the shared
//! [`atomic_write`](cws_core::durable::atomic_write) sequence (the header
//! commits atomically, then the file is reopened for appends), so a
//! half-written header can never appear under a final segment name.

use std::fs;
use std::path::{Path, PathBuf};

use cws_core::codec::frame_checksum;
use cws_core::durable::{atomic_write, fs_error};
use cws_core::error::{CodecErrorKind, CwsError, Result};

use super::frame::{decode_frame, DecodeStep, Frame};

/// The four magic bytes every journal segment starts with.
pub(crate) const SEGMENT_MAGIC: [u8; 4] = *b"CWSJ";

/// The segment format version this build reads and writes.
pub(crate) const SEGMENT_VERSION: u16 = 1;

/// Size of the fixed segment header in bytes.
pub(crate) const SEGMENT_HEADER_BYTES: usize = 32;

/// File-name shape of a live segment: `wal-<seq:020>.cwsj`.
pub(crate) const SEGMENT_PREFIX: &str = "wal-";
/// See [`SEGMENT_PREFIX`].
pub(crate) const SEGMENT_SUFFIX: &str = ".cwsj";
/// Suffix appended (after the full segment name) to condemned segments.
pub(crate) const QUARANTINE_SUFFIX: &str = ".quarantined";

const SEQ_DIGITS: usize = 20;

/// `wal-<seq:020>.cwsj` — zero-padded so lexicographic order is replay
/// order.
pub(crate) fn segment_file_name(seq: u64) -> String {
    format!("{SEGMENT_PREFIX}{seq:0SEQ_DIGITS$}{SEGMENT_SUFFIX}")
}

/// Parses `wal-<seq>.cwsj` → `seq`; `None` for anything else.
pub(crate) fn parse_segment_seq(file_name: &str) -> Option<u64> {
    let digits = file_name.strip_prefix(SEGMENT_PREFIX)?.strip_suffix(SEGMENT_SUFFIX)?;
    if digits.len() != SEQ_DIGITS || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// The decoded fields of a clean segment header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SegmentHeader {
    pub(crate) seq: u64,
    pub(crate) num_assignments: u64,
}

/// Encodes a segment header.
pub(crate) fn encode_header(seq: u64, num_assignments: u64) -> [u8; SEGMENT_HEADER_BYTES] {
    let mut header = [0u8; SEGMENT_HEADER_BYTES];
    header[0..4].copy_from_slice(&SEGMENT_MAGIC);
    header[4..6].copy_from_slice(&SEGMENT_VERSION.to_le_bytes());
    header[8..16].copy_from_slice(&seq.to_le_bytes());
    header[16..24].copy_from_slice(&num_assignments.to_le_bytes());
    let crc = frame_checksum(&header[0..24]);
    header[24..32].copy_from_slice(&crc.to_le_bytes());
    header
}

/// Decodes and verifies a segment header.
///
/// # Errors
/// Typed [`CwsError::Codec`] errors — never a panic — for a short file,
/// wrong magic, unknown version, nonzero reserved bytes, or a checksum
/// mismatch.
pub(crate) fn decode_header(bytes: &[u8]) -> Result<SegmentHeader> {
    if bytes.len() < SEGMENT_HEADER_BYTES {
        return Err(CwsError::Codec {
            kind: CodecErrorKind::Truncated { expected: SEGMENT_HEADER_BYTES as u64 },
            offset: bytes.len() as u64,
        });
    }
    if bytes[0..4] != SEGMENT_MAGIC {
        let mut found = [0u8; 4];
        found.copy_from_slice(&bytes[0..4]);
        return Err(CwsError::Codec { kind: CodecErrorKind::BadMagic { found }, offset: 0 });
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes"));
    if version != SEGMENT_VERSION {
        return Err(CwsError::Codec {
            kind: CodecErrorKind::UnsupportedVersion { found: version },
            offset: 4,
        });
    }
    if bytes[6..8] != [0, 0] {
        return Err(CwsError::Codec {
            kind: CodecErrorKind::Invalid { what: "nonzero reserved segment header bytes".into() },
            offset: 6,
        });
    }
    let stored = u64::from_le_bytes(bytes[24..32].try_into().expect("8 bytes"));
    if frame_checksum(&bytes[0..24]) != stored {
        return Err(CwsError::Codec {
            kind: CodecErrorKind::ChecksumMismatch { section: "segment header" },
            offset: 24,
        });
    }
    Ok(SegmentHeader {
        seq: u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")),
        num_assignments: u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes")),
    })
}

/// Creates a fresh segment: commits the header atomically under the final
/// name, then reopens the file for appends.
///
/// # Errors
/// [`CwsError::Store`] for filesystem failures.
pub(crate) fn create_segment(
    dir: &Path,
    seq: u64,
    num_assignments: u64,
) -> Result<(PathBuf, fs::File)> {
    use std::io::Write as _;
    let path = dir.join(segment_file_name(seq));
    let header = encode_header(seq, num_assignments);
    atomic_write(&path, |file| file.write_all(&header).map_err(|e| fs_error("write", &path, &e)))?;
    let file = fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .map_err(|e| fs_error("open_append", &path, &e))?;
    Ok((path, file))
}

/// What a sequential scan of one segment's frames found.
#[derive(Debug)]
pub(crate) struct SegmentScan {
    /// Clean frames, in write order.
    pub(crate) frames: usize,
    /// Byte length of the clean prefix **including the header** — the
    /// offset torn-tail recovery truncates the file to.
    pub(crate) clean_len: u64,
    /// Why the scan stopped early, if it did.
    pub(crate) torn: Option<&'static str>,
    /// Highest epoch tag seen across clean frames (barriers included).
    pub(crate) max_epoch: Option<u64>,
}

/// Scans the frames of a whole segment file (header already validated),
/// handing each clean frame to `visit` in write order. Stops at the first
/// torn/corrupt position; never panics.
pub(crate) fn scan_frames<'a>(
    bytes: &'a [u8],
    num_assignments: usize,
    mut visit: impl FnMut(Frame<'a>),
) -> SegmentScan {
    let mut scan = SegmentScan {
        frames: 0,
        clean_len: SEGMENT_HEADER_BYTES.min(bytes.len()) as u64,
        torn: None,
        max_epoch: None,
    };
    let mut at = SEGMENT_HEADER_BYTES;
    while at <= bytes.len() {
        match decode_frame(&bytes[at..], num_assignments) {
            DecodeStep::End => break,
            DecodeStep::Torn { reason } => {
                scan.torn = Some(reason);
                break;
            }
            DecodeStep::Frame { frame, consumed } => {
                let epoch = frame.epoch();
                scan.max_epoch = Some(scan.max_epoch.map_or(epoch, |seen: u64| seen.max(epoch)));
                scan.frames += 1;
                visit(frame);
                at += consumed;
                scan.clean_len = at as u64;
            }
        }
    }
    scan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::frame::{encode_barrier, encode_records};

    #[test]
    fn header_round_trips_and_rejects_corruption() {
        let header = encode_header(42, 3);
        assert_eq!(decode_header(&header).unwrap(), SegmentHeader { seq: 42, num_assignments: 3 });
        for position in 0..header.len() {
            let mut mutated = header;
            mutated[position] ^= 0x10;
            let err = decode_header(&mutated).unwrap_err();
            assert!(matches!(err, CwsError::Codec { .. }), "byte {position}: {err:?}");
        }
        assert!(matches!(
            decode_header(&header[..16]),
            Err(CwsError::Codec { kind: CodecErrorKind::Truncated { .. }, .. })
        ));
    }

    #[test]
    fn file_names_round_trip_in_order() {
        assert_eq!(parse_segment_seq(&segment_file_name(0)), Some(0));
        assert_eq!(parse_segment_seq(&segment_file_name(u64::MAX)), Some(u64::MAX));
        assert!(segment_file_name(9) < segment_file_name(10), "lexicographic = numeric");
        assert_eq!(parse_segment_seq("wal-1.cwsj"), None, "unpadded names are foreign");
        assert_eq!(parse_segment_seq("epoch-00000000000000000001.cws"), None);
    }

    #[test]
    fn scan_stops_at_the_first_bad_frame() {
        let mut bytes = encode_header(0, 1).to_vec();
        encode_records(&mut bytes, 1, &[7], 1, |_, _| 1.0);
        encode_barrier(&mut bytes, 1);
        let mut visited = Vec::new();
        let clean = scan_frames(&bytes, 1, |frame| visited.push(frame.record_count()));
        assert_eq!((clean.frames, visited), (2, vec![1, 0]));
        assert_eq!(clean.clean_len, bytes.len() as u64);
        assert_eq!((clean.torn, clean.max_epoch), (None, Some(1)));
        // A torn tail stops the scan exactly after the last clean frame.
        let keep = bytes.len() - 3;
        let torn = scan_frames(&bytes[..keep], 1, |_| {});
        assert_eq!(torn.frames, 1);
        assert!(torn.torn.is_some());
        assert!(torn.clean_len < keep as u64);
    }
}
