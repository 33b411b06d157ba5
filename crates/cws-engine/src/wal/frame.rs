//! Length-prefixed, CRC-framed journal records.
//!
//! Every frame on disk is `payload_len (u32 LE) · payload CRC (u64 LE) ·
//! payload`, where the CRC is [`frame_checksum`] over the payload bytes.
//! The payload starts with a kind tag (u8) and the **epoch tag** (u64 LE)
//! — the epoch number the frame's records will publish under — followed by
//! a kind-specific body:
//!
//! ```text
//! kind 1  records   count (u32) · count × (key u64 · A × weight f64-bits)
//! kind 2  elements  count (u32) · count × (key u64 · assignment u32 ·
//!                   weight f64-bits)
//! kind 3  barrier   (empty body — an epoch publish boundary)
//! ```
//!
//! `A` (the number of weight assignments) is not stored per frame; it comes
//! from the segment header, so a records frame's length is fully determined
//! and any disagreement between the declared count and the payload length
//! is treated as corruption. Weights travel as raw IEEE-754 bit patterns
//! ([`f64::to_bits`]), the same convention as the summary codec, so a
//! journaled record replays **bit-exactly**.
//!
//! Encoding appends frames straight from the caller's records or elements
//! into one buffer: the header is reserved, the payload written in place,
//! and length and CRC patched afterwards, so a batch is copied exactly
//! once on its way to disk.
//!
//! Decoding never panics and never guesses: a frame either round-trips
//! cleanly or reports a typed torn/corrupt reason that tells recovery to
//! truncate at the last clean frame.

use cws_core::codec::frame_checksum;
use cws_core::{CwsError, Key, Result};

/// Fixed prefix of every frame: payload length (u32) + payload CRC (u64).
pub(crate) const FRAME_HEADER_BYTES: usize = 12;

/// Largest payload a frame may declare; a length field beyond this is
/// corruption, not a huge frame, and is rejected before any allocation.
pub(crate) const MAX_FRAME_PAYLOAD: usize = 1 << 26;

/// Every payload starts with `kind (u8) · epoch tag (u64)`.
const PAYLOAD_PREFIX: usize = 9;

const KIND_RECORDS: u8 = 1;
const KIND_ELEMENTS: u8 = 2;
const KIND_BARRIER: u8 = 3;

/// Bytes per record in a records frame body (key + `A` weights).
fn record_stride(num_assignments: usize) -> usize {
    8 + 8 * num_assignments
}

/// Bytes per element in an elements frame body (key + assignment + weight).
const ELEMENT_STRIDE: usize = 8 + 4 + 8;

/// One clean frame, borrowed from the bytes it was decoded from. Records
/// and elements are decoded on demand, so scanning or replaying a segment
/// never copies its frames.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Frame<'a> {
    /// Whole records: `rows` holds `count × (key · A × weight)`.
    Records { epoch: u64, rows: &'a [u8], num_assignments: usize },
    /// Unaggregated elements: `rows` holds `count × (key · assignment ·
    /// weight)`.
    Elements { epoch: u64, rows: &'a [u8] },
    /// An epoch publish boundary; everything before it belongs to `epoch`.
    Barrier { epoch: u64 },
}

impl<'a> Frame<'a> {
    /// The epoch tag the frame carries.
    pub(crate) fn epoch(&self) -> u64 {
        match self {
            Self::Records { epoch, .. }
            | Self::Elements { epoch, .. }
            | Self::Barrier { epoch } => *epoch,
        }
    }

    /// Number of records/elements the frame holds (0 for barriers).
    pub(crate) fn record_count(&self) -> usize {
        match self {
            Self::Records { rows, num_assignments, .. } => {
                rows.len() / record_stride(*num_assignments)
            }
            Self::Elements { rows, .. } => rows.len() / ELEMENT_STRIDE,
            Self::Barrier { .. } => 0,
        }
    }

    /// Visits the records of a records frame in order, decoding each one's
    /// weights into `row` (reused across records and calls). Other frame
    /// kinds visit nothing.
    pub(crate) fn for_each_record(&self, row: &mut Vec<f64>, mut visit: impl FnMut(Key, &[f64])) {
        let Self::Records { rows, num_assignments, .. } = *self else { return };
        for record in rows.chunks_exact(record_stride(num_assignments)) {
            row.clear();
            row.extend(record[8..].chunks_exact(8).map(|bits| f64::from_bits(read_u64(bits))));
            visit(read_u64(record), row);
        }
    }

    /// The `(key, assignment, weight)` elements of an elements frame, in
    /// order, decoded on the fly. Other frame kinds yield nothing.
    pub(crate) fn elements(&self) -> impl Iterator<Item = (Key, u32, f64)> + 'a {
        let rows: &'a [u8] = match *self {
            Self::Elements { rows, .. } => rows,
            _ => &[],
        };
        rows.chunks_exact(ELEMENT_STRIDE).map(|element| {
            (read_u64(element), read_u32(&element[8..]), f64::from_bits(read_u64(&element[12..])))
        })
    }
}

/// One step of a sequential frame scan.
#[derive(Debug)]
pub(crate) enum DecodeStep<'a> {
    /// A clean frame; `consumed` bytes were read from the input.
    Frame { frame: Frame<'a>, consumed: usize },
    /// The input is exhausted on a frame boundary.
    End,
    /// The bytes at this position are torn or corrupt; recovery truncates
    /// here. The reason is diagnostic only.
    Torn { reason: &'static str },
}

/// Appends one frame to `buf` in place: reserves the frame header, writes
/// kind and epoch, lets `body` append the rest of the payload, then
/// patches the header's length and CRC. No payload is staged elsewhere.
fn frame_into(buf: &mut Vec<u8>, kind: u8, epoch: u64, body: impl FnOnce(&mut Vec<u8>)) {
    let start = buf.len();
    buf.extend_from_slice(&[0; FRAME_HEADER_BYTES]);
    buf.push(kind);
    buf.extend_from_slice(&epoch.to_le_bytes());
    body(buf);
    let payload = &buf[start + FRAME_HEADER_BYTES..];
    let len = u32::try_from(payload.len()).expect("frame payload fits u32");
    let crc = frame_checksum(payload);
    buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
    buf[start + 4..start + FRAME_HEADER_BYTES].copy_from_slice(&crc.to_le_bytes());
}

/// Appends a body's `count` prefix and `count` zeroed rows of `stride`
/// bytes, returning the rows for the caller to fill.
fn body_rows(buf: &mut Vec<u8>, count: usize, stride: usize) -> &mut [u8] {
    buf.extend_from_slice(&u32::try_from(count).expect("frame count fits u32").to_le_bytes());
    let at = buf.len();
    buf.resize(at + count * stride, 0);
    &mut buf[at..]
}

/// Most records a single frame may carry without breaching
/// [`MAX_FRAME_PAYLOAD`]; larger batches span several frames.
pub(crate) fn max_records_per_frame(num_assignments: usize) -> usize {
    ((MAX_FRAME_PAYLOAD - PAYLOAD_PREFIX - 4) / record_stride(num_assignments)).max(1)
}

/// Most elements a single frame may carry.
pub(crate) const MAX_ELEMENTS_PER_FRAME: usize =
    (MAX_FRAME_PAYLOAD - PAYLOAD_PREFIX - 4) / ELEMENT_STRIDE;

/// Appends the records frames of `keys` to `buf`, chunked to
/// [`max_records_per_frame`]; `weight(row, assignment)` reads each weight
/// straight from the caller's storage. An empty batch appends nothing.
pub(crate) fn encode_records(
    buf: &mut Vec<u8>,
    epoch: u64,
    keys: &[Key],
    num_assignments: usize,
    weight: impl Fn(usize, usize) -> f64,
) {
    let (cap, stride) = (max_records_per_frame(num_assignments), record_stride(num_assignments));
    for start in (0..keys.len()).step_by(cap) {
        let chunk = &keys[start..keys.len().min(start + cap)];
        frame_into(buf, KIND_RECORDS, epoch, |buf| {
            let rows = body_rows(buf, chunk.len(), stride).chunks_exact_mut(stride);
            for (row, (out, &key)) in rows.zip(chunk).enumerate() {
                out[..8].copy_from_slice(&key.to_le_bytes());
                for (assignment, cell) in out[8..].chunks_exact_mut(8).enumerate() {
                    let bits = weight(start + row, assignment).to_bits();
                    cell.copy_from_slice(&bits.to_le_bytes());
                }
            }
        });
    }
}

/// Appends the elements frames of `elements` to `buf`, chunked to
/// [`MAX_ELEMENTS_PER_FRAME`]. An empty batch appends nothing.
///
/// # Errors
/// [`CwsError::InvalidParameter`], with `buf` untouched, when an assignment
/// index does not fit the frame's `u32` field (it could not round-trip).
/// Semantic validation stays with the pipeline, so replay reproduces its
/// accept/reject decisions exactly.
pub(crate) fn encode_elements(
    buf: &mut Vec<u8>,
    epoch: u64,
    elements: &[(Key, usize, f64)],
) -> Result<()> {
    if let Some(&(_, assignment, _)) = elements.iter().find(|e| u32::try_from(e.1).is_err()) {
        return Err(CwsError::InvalidParameter {
            name: "assignment",
            message: format!("assignment index {assignment} does not fit the journal"),
        });
    }
    for chunk in elements.chunks(MAX_ELEMENTS_PER_FRAME) {
        frame_into(buf, KIND_ELEMENTS, epoch, |buf| {
            let rows = body_rows(buf, chunk.len(), ELEMENT_STRIDE).chunks_exact_mut(ELEMENT_STRIDE);
            for (out, &(key, assignment, weight)) in rows.zip(chunk) {
                out[..8].copy_from_slice(&key.to_le_bytes());
                out[8..12].copy_from_slice(&(assignment as u32).to_le_bytes());
                out[12..].copy_from_slice(&weight.to_bits().to_le_bytes());
            }
        });
    }
    Ok(())
}

/// Appends a barrier frame to `buf`.
pub(crate) fn encode_barrier(buf: &mut Vec<u8>, epoch: u64) {
    frame_into(buf, KIND_BARRIER, epoch, |_| {});
}

fn read_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"))
}

fn read_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

/// Decodes the frame at the start of `bytes`. Never panics; anything that
/// does not round-trip cleanly is [`DecodeStep::Torn`].
pub(crate) fn decode_frame(bytes: &[u8], num_assignments: usize) -> DecodeStep<'_> {
    if bytes.is_empty() {
        return DecodeStep::End;
    }
    if bytes.len() < FRAME_HEADER_BYTES {
        return DecodeStep::Torn { reason: "truncated frame header" };
    }
    let len = read_u32(bytes) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return DecodeStep::Torn { reason: "frame length overflow" };
    }
    let stored_crc = read_u64(&bytes[4..]);
    if bytes.len() < FRAME_HEADER_BYTES + len {
        return DecodeStep::Torn { reason: "truncated frame payload" };
    }
    let payload = &bytes[FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + len];
    if frame_checksum(payload) != stored_crc {
        return DecodeStep::Torn { reason: "frame checksum mismatch" };
    }
    // The CRC passed; the payload is still validated structurally — a
    // writer bug or a colliding corruption must truncate, never replay
    // garbage.
    if payload.len() < PAYLOAD_PREFIX {
        return DecodeStep::Torn { reason: "frame payload too short" };
    }
    let (kind, epoch, body) = (payload[0], read_u64(&payload[1..]), &payload[PAYLOAD_PREFIX..]);
    let consumed = FRAME_HEADER_BYTES + len;
    let (stride, missing_count, mismatch) = match kind {
        KIND_BARRIER if body.is_empty() => {
            return DecodeStep::Frame { frame: Frame::Barrier { epoch }, consumed };
        }
        KIND_BARRIER => return DecodeStep::Torn { reason: "barrier frame with a body" },
        KIND_RECORDS => (
            record_stride(num_assignments),
            "records frame without a count",
            "records frame length mismatch",
        ),
        KIND_ELEMENTS => {
            (ELEMENT_STRIDE, "elements frame without a count", "elements frame length mismatch")
        }
        _ => return DecodeStep::Torn { reason: "unknown frame kind" },
    };
    if body.len() < 4 {
        return DecodeStep::Torn { reason: missing_count };
    }
    let count = read_u32(body) as usize;
    if count.checked_mul(stride).map(|n| n + 4) != Some(body.len()) {
        return DecodeStep::Torn { reason: mismatch };
    }
    let rows = &body[4..];
    let frame = if kind == KIND_RECORDS {
        Frame::Records { epoch, rows, num_assignments }
    } else {
        Frame::Elements { epoch, rows }
    };
    DecodeStep::Frame { frame, consumed }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The format table at the top of this module, transcribed literally:
    /// `len · crc · kind · epoch · body`, one `Vec` per piece. It shares
    /// nothing with the production encoder but `frame_checksum`.
    mod reference {
        use super::frame_checksum;

        pub(super) fn frame(kind: u8, epoch: u64, body: &[u8]) -> Vec<u8> {
            let mut payload = vec![kind];
            payload.extend_from_slice(&epoch.to_le_bytes());
            payload.extend_from_slice(body);
            let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(&frame_checksum(&payload).to_le_bytes());
            frame.extend_from_slice(&payload);
            frame
        }

        pub(super) fn records(epoch: u64, rows: &[(u64, Vec<f64>)]) -> Vec<u8> {
            let mut body = (rows.len() as u32).to_le_bytes().to_vec();
            for (key, weights) in rows {
                body.extend_from_slice(&key.to_le_bytes());
                for weight in weights {
                    body.extend_from_slice(&weight.to_bits().to_le_bytes());
                }
            }
            frame(1, epoch, &body)
        }

        pub(super) fn elements(epoch: u64, items: &[(u64, usize, f64)]) -> Vec<u8> {
            let mut body = (items.len() as u32).to_le_bytes().to_vec();
            for &(key, assignment, weight) in items {
                body.extend_from_slice(&key.to_le_bytes());
                body.extend_from_slice(&(assignment as u32).to_le_bytes());
                body.extend_from_slice(&weight.to_bits().to_le_bytes());
            }
            frame(2, epoch, &body)
        }

        pub(super) fn barrier(epoch: u64) -> Vec<u8> {
            frame(3, epoch, &[])
        }
    }

    fn records_frame(epoch: u64, keys: &[Key], weights: &[f64], num_assignments: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_records(&mut buf, epoch, keys, num_assignments, |row, assignment| {
            weights[row * num_assignments + assignment]
        });
        buf
    }

    fn elements_frame(epoch: u64, items: &[(Key, usize, f64)]) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_elements(&mut buf, epoch, items).unwrap();
        buf
    }

    fn barrier_frame(epoch: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_barrier(&mut buf, epoch);
        buf
    }

    fn decode_one(frame: &[u8], num_assignments: usize) -> Frame<'_> {
        match decode_frame(frame, num_assignments) {
            DecodeStep::Frame { frame: decoded, consumed } => {
                assert_eq!(consumed, frame.len());
                decoded
            }
            other => panic!("expected a clean frame, got {other:?}"),
        }
    }

    #[test]
    fn encoder_matches_the_format_table_byte_for_byte() {
        let weird = [f64::NAN, -0.0, f64::MIN_POSITIVE, f64::INFINITY, 0.1 + 0.2, f64::MAX];
        let rows: Vec<(u64, Vec<f64>)> = (0..7u64)
            .map(|key| (key.wrapping_mul(0x9E37_79B9_7F4A_7C15), weird[..3].to_vec()))
            .chain([(u64::MAX, weird[3..].to_vec())])
            .collect();
        let keys: Vec<Key> = rows.iter().map(|(key, _)| *key).collect();
        let flat: Vec<f64> = rows.iter().flat_map(|(_, w)| w.iter().copied()).collect();
        assert_eq!(records_frame(42, &keys, &flat, 3), reference::records(42, &rows));
        assert_eq!(records_frame(1, &keys[..1], &flat[..3], 3), reference::records(1, &rows[..1]));

        let items: Vec<(Key, usize, f64)> = (0..50u64)
            .map(|i| (i * 31, (i % 4) as usize, weird[i as usize % weird.len()]))
            .collect();
        assert_eq!(elements_frame(u64::MAX, &items), reference::elements(u64::MAX, &items));
        assert_eq!(elements_frame(3, &items[..1]), reference::elements(3, &items[..1]));
        assert_eq!(barrier_frame(9), reference::barrier(9));

        // Frames append to what the buffer already holds; empty batches
        // append nothing.
        let mut buf = barrier_frame(1);
        encode_elements(&mut buf, 2, &[]).unwrap();
        encode_records(&mut buf, 2, &[], 3, |_, _| unreachable!());
        encode_elements(&mut buf, 2, &items[..2]).unwrap();
        let mut expected = reference::barrier(1);
        expected.extend(reference::elements(2, &items[..2]));
        assert_eq!(buf, expected);
    }

    #[test]
    fn elements_split_into_frames_exactly_at_the_frame_cap() {
        let items: Vec<(Key, usize, f64)> = (0..=MAX_ELEMENTS_PER_FRAME as u64)
            .map(|i| (i, (i % 3) as usize, if i == 5 { f64::NAN } else { (i % 11) as f64 }))
            .collect();
        let encoded = elements_frame(7, &items);
        let first = reference::elements(7, &items[..MAX_ELEMENTS_PER_FRAME]);
        let payload = first.len() - FRAME_HEADER_BYTES;
        assert!(payload <= MAX_FRAME_PAYLOAD && payload + ELEMENT_STRIDE > MAX_FRAME_PAYLOAD);
        let rest = reference::elements(7, &items[MAX_ELEMENTS_PER_FRAME..]);
        assert_eq!(encoded.len(), first.len() + rest.len(), "exactly two frames");
        assert!(encoded[..first.len()] == first[..], "the first frame holds the cap exactly");
        assert!(encoded[first.len()..] == rest[..], "the last element spills into a second");
    }

    #[test]
    fn assignments_beyond_u32_are_rejected_before_anything_is_encoded() {
        if usize::BITS <= 32 {
            return;
        }
        let mut buf = barrier_frame(1);
        let before = buf.clone();
        let err = encode_elements(&mut buf, 1, &[(1, 0, 1.0), (2, 1 << 33, 1.0)]).unwrap_err();
        assert!(matches!(err, CwsError::InvalidParameter { name: "assignment", .. }), "{err:?}");
        assert_eq!(buf, before);
    }

    #[test]
    fn frames_round_trip_bit_exactly() {
        let weights = [1.5, f64::MIN_POSITIVE, 0.1 + 0.2, 4.0];
        let frame = records_frame(7, &[10, u64::MAX], &weights, 2);
        let decoded = decode_one(&frame, 2);
        assert_eq!((decoded.epoch(), decoded.record_count()), (7, 2));
        let mut seen = Vec::new();
        decoded.for_each_record(&mut Vec::new(), |key, row| {
            seen.push((key, row.iter().map(|w| w.to_bits()).collect::<Vec<_>>()));
        });
        let bits = |w: &[f64]| w.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        assert_eq!(seen, vec![(10, bits(&weights[..2])), (u64::MAX, bits(&weights[2..]))]);
        assert_eq!(decoded.elements().count(), 0, "a records frame has no elements");

        let frame = elements_frame(3, &[(9, 1, 2.25), (9, 0, f64::NAN)]);
        let decoded = decode_one(&frame, 2);
        assert_eq!((decoded.epoch(), decoded.record_count()), (3, 2));
        let items: Vec<(Key, u32, f64)> = decoded.elements().collect();
        assert_eq!((items[0].0, items[0].1, items[0].2), (9, 1, 2.25));
        // NaN journals and replays by bit pattern, so the replayed
        // pipeline rejects it exactly like the original did.
        assert_eq!(items[1].2.to_bits(), f64::NAN.to_bits());
        decoded.for_each_record(&mut Vec::new(), |_, _| panic!("an elements frame has no records"));

        let frame = barrier_frame(12);
        let decoded = decode_one(&frame, 2);
        assert!(matches!(decoded, Frame::Barrier { epoch: 12 }));
        assert_eq!(decoded.record_count(), 0);
    }

    #[test]
    fn every_truncation_point_is_torn_never_panics() {
        let frame = records_frame(1, &[1, 2, 3], &[1.0, 2.0, 3.0], 1);
        for cut in 0..frame.len() {
            match decode_frame(&frame[..cut], 1) {
                DecodeStep::End => assert_eq!(cut, 0),
                DecodeStep::Torn { .. } => {}
                DecodeStep::Frame { .. } => panic!("accepted a frame cut at byte {cut}"),
            }
        }
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let frame = elements_frame(5, &[(1, 0, 1.0), (2, 0, 2.0)]);
        for position in 0..frame.len() {
            let mut mutated = frame.clone();
            mutated[position] ^= 0x40;
            match decode_frame(&mutated, 1) {
                DecodeStep::Torn { .. } => {}
                DecodeStep::Frame { .. } => panic!("accepted a corrupt frame (byte {position})"),
                DecodeStep::End => panic!("corrupt frame read as empty (byte {position})"),
            }
        }
    }

    #[test]
    fn structurally_invalid_payloads_are_torn_even_with_a_valid_crc() {
        // A records frame whose declared count disagrees with its length,
        // re-checksummed so only structural validation can catch it.
        let mut frame = records_frame(1, &[1], &[1.0], 1);
        let count_at = FRAME_HEADER_BYTES + PAYLOAD_PREFIX;
        frame[count_at] = 2;
        let payload = frame[FRAME_HEADER_BYTES..].to_vec();
        frame[4..12].copy_from_slice(&frame_checksum(&payload).to_le_bytes());
        assert!(matches!(
            decode_frame(&frame, 1),
            DecodeStep::Torn { reason: "records frame length mismatch" }
        ));
        // Unknown kinds are torn, not skipped.
        let mut frame = barrier_frame(1);
        frame[FRAME_HEADER_BYTES] = 9;
        let payload = frame[FRAME_HEADER_BYTES..].to_vec();
        frame[4..12].copy_from_slice(&frame_checksum(&payload).to_le_bytes());
        assert!(matches!(
            decode_frame(&frame, 1),
            DecodeStep::Torn { reason: "unknown frame kind" }
        ));
    }
}
