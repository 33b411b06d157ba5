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
use cws_core::columns::RecordColumns;
use cws_core::{CwsError, Key, Result};

use crate::pipeline::Push;

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

/// One clean frame, borrowed from the bytes it was decoded from. Scanning
/// a segment never copies its frames; replay decodes each data frame once,
/// into reused buffers ([`Frame::decode_into`]).
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

impl Frame<'_> {
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

    /// The push a data frame replays as, decoded into reused buffers: a
    /// records frame as one [`Push::Columns`] batch, an elements frame as
    /// one [`Push::Elements`] batch, in the shape the journaled push had.
    /// `None` for a barrier.
    pub(crate) fn decode_into<'b>(
        &self,
        columns: &'b mut RecordColumns,
        elements: &'b mut Vec<(Key, usize, f64)>,
    ) -> Option<Push<'b>> {
        match *self {
            Self::Records { rows, num_assignments, .. } => {
                columns.clear();
                let mut row = Vec::with_capacity(num_assignments);
                for record in rows.chunks_exact(record_stride(num_assignments)) {
                    row.clear();
                    row.extend(
                        record[8..].chunks_exact(8).map(|bits| f64::from_bits(read_u64(bits))),
                    );
                    columns.push(read_u64(record), &row);
                }
                Some(Push::Columns(columns))
            }
            Self::Elements { rows, .. } => {
                elements.clear();
                elements.extend(rows.chunks_exact(ELEMENT_STRIDE).map(|element| {
                    let weight = f64::from_bits(read_u64(&element[12..]));
                    (read_u64(element), read_u32(&element[8..]) as usize, weight)
                }));
                Some(Push::Elements(elements))
            }
            Self::Barrier { .. } => None,
        }
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
///
/// Replay makes one push per frame, so a push larger than
/// [`MAX_FRAME_PAYLOAD`] (64 MiB) replays as several pushes; under a key
/// or byte cap those can flush early at a different point than the one
/// original push did. The same holds for [`encode_elements`].
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
/// [`MAX_ELEMENTS_PER_FRAME`]. An empty batch appends nothing. A push
/// larger than one frame replays as several pushes (see
/// [`encode_records`]).
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
        let (mut columns, mut elements) = (RecordColumns::new(2), Vec::new());
        let bits = |w: &[f64]| w.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        match decoded.decode_into(&mut columns, &mut elements) {
            Some(Push::Columns(columns)) => {
                assert_eq!(columns.keys(), &[10, u64::MAX]);
                assert_eq!(bits(columns.lane(0)), bits(&[weights[0], weights[2]]));
                assert_eq!(bits(columns.lane(1)), bits(&[weights[1], weights[3]]));
            }
            other => panic!("a records frame replays as one columns batch, got {other:?}"),
        }

        let frame = elements_frame(3, &[(9, 1, 2.25), (9, 0, f64::NAN)]);
        let decoded = decode_one(&frame, 2);
        assert_eq!((decoded.epoch(), decoded.record_count()), (3, 2));
        match decoded.decode_into(&mut columns, &mut elements) {
            Some(Push::Elements(items)) => {
                assert_eq!(items.len(), 2);
                assert_eq!((items[0].0, items[0].1, items[0].2), (9, 1, 2.25));
                // NaN journals and replays by bit pattern, so the replayed
                // pipeline rejects it exactly like the original did.
                assert_eq!(items[1].2.to_bits(), f64::NAN.to_bits());
            }
            other => panic!("an elements frame replays as one elements batch, got {other:?}"),
        }

        let frame = barrier_frame(12);
        let decoded = decode_one(&frame, 2);
        assert!(matches!(decoded, Frame::Barrier { epoch: 12 }));
        assert_eq!(decoded.record_count(), 0);
        assert!(decoded.decode_into(&mut columns, &mut elements).is_none());
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
