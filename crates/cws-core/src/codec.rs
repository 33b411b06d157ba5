//! Versioned binary serialization of finalized summaries.
//!
//! The paper's motivating workload is coordinated summaries of an *evolving*
//! database: snapshots taken over time, shipped between nodes, stored, and
//! merged. That requires summaries that outlive the process that built them,
//! which is what this hand-rolled codec provides — no serde, no external
//! crates, a fixed little-endian layout whose `f64` values travel as IEEE-754
//! bit patterns so a decode⟲encode round trip is **bit-exact**.
//!
//! # Wire format (version 1)
//!
//! All integers are little-endian; all `f64` values are written as the
//! little-endian bytes of [`f64::to_bits`]. The stream is
//! `header · body · body-checksum`, so multiple summaries can be
//! concatenated in one file and read back sequentially.
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------------
//!      0     4  magic `CWSM`
//!      4     2  format version (u16, currently 1)
//!      6     1  layout tag: 0 = colocated, 1 = dispersed
//!      7     1  rank family tag: 0 = EXP, 1 = IPPS
//!      8     1  coordination tag: 0 = independent, 1 = shared-seed,
//!               2 = independent-differences
//!      9     7  reserved, must be zero
//!     16     8  k (u64)
//!     24     8  master hash seed (u64)
//!     32     8  number of assignments (u64)
//!     40     8  header checksum: [`checksum`] of bytes 0..40
//! ```
//!
//! The **dispersed body** holds, per assignment, one length-prefixed sketch
//! section: `next_rank (f64) · entry_count (u64) · entry_count ×
//! (key u64 · rank f64 · weight f64)`, entries sorted ascending by
//! `(rank, key)`.
//!
//! The **colocated body** is `effective_k (u64) · kth_ranks (A × f64) ·
//! next_ranks (A × f64) · record_count (u64) · record_count × (key u64 ·
//! A × weight f64 · ⌈A/8⌉ membership bytes)`, records sorted ascending by
//! key; membership bit `b` of a record lives in byte `b / 8`, bit `b % 8`,
//! and padding bits must be zero.
//!
//! The body is followed by a `u64` [`checksum`] of every body byte. Both
//! checksums mean any single-byte corruption — header or body — surfaces as
//! a typed [`CwsError::Codec`], never as a silently wrong summary.
//!
//! # Versioning policy
//!
//! The version field is bumped whenever the byte layout changes; decoders
//! reject versions they do not know with
//! [`CodecErrorKind::UnsupportedVersion`] rather than guessing. The golden
//! fixture test (`tests/golden_fixture.rs` at the workspace root) pins the
//! current layout byte-for-byte, so accidental drift fails CI and a
//! deliberate format change is visible as a fixture + version bump in the
//! same commit.

use std::io::{Read, Write};

use cws_hash::KeyHasher;

use crate::coordination::CoordinationMode;
use crate::error::{CodecErrorKind, CwsError, Result};
use crate::ranks::RankFamily;
use crate::sketch::bottomk::{BottomKSketch, SketchEntry};
use crate::summary::{ColocatedRecord, ColocatedSummary, DispersedSummary, SummaryConfig};

/// The four magic bytes every serialized summary starts with.
pub(crate) const MAGIC: [u8; 4] = *b"CWSM";

/// The format version this build reads and writes.
pub const VERSION: u16 = 1;

/// Size of the fixed header in bytes.
pub const HEADER_LEN: usize = 48;

/// Largest `k` the codec accepts from a stream; a header declaring more is
/// rejected with [`CodecErrorKind::LengthOverflow`] before anything is
/// allocated.
pub const MAX_K: u64 = 1 << 32;

/// Largest assignment count the codec accepts from a stream.
pub const MAX_ASSIGNMENTS: u64 = 1 << 20;

/// Seed of the checksum hash stream (distinct from every rank/routing
/// stream; the checksum is for corruption detection, not sampling).
const CHECKSUM_STREAM: u64 = 0x5AAD_EDC0_DEC0_5EA1;

/// Seed of the write-ahead frame checksum stream — distinct from
/// [`CHECKSUM_STREAM`] so a summary body accidentally spliced into a
/// journal segment (or vice versa) can never pass verification.
const FRAME_CHECKSUM_STREAM: u64 = 0x7EA1_0F5E_C0DE_4A0B;

/// The checksum used by the header and body integrity fields: a seeded
/// 64-bit hash of the covered bytes. Exposed so fixture tooling and tests
/// can construct or repair encoded streams deliberately.
#[must_use]
pub fn checksum(bytes: &[u8]) -> u64 {
    KeyHasher::new(CHECKSUM_STREAM).hash_bytes(bytes)
}

/// The per-frame CRC of the write-ahead ingestion journal: a seeded 64-bit
/// hash over one frame's payload, on a hash stream distinct from
/// [`checksum`]. Torn-tail recovery truncates a journal segment at the
/// first frame whose stored CRC disagrees with this function.
#[must_use]
pub fn frame_checksum(bytes: &[u8]) -> u64 {
    KeyHasher::new(FRAME_CHECKSUM_STREAM).hash_bytes(bytes)
}

fn codec_error(kind: CodecErrorKind, offset: u64) -> CwsError {
    CwsError::Codec { kind, offset }
}

fn invalid(what: impl Into<String>, offset: u64) -> CwsError {
    codec_error(CodecErrorKind::Invalid { what: what.into() }, offset)
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Byte-buffer encoder; the body is staged in memory (summaries are small —
/// `O(k · |W|)` entries) so the body checksum can be computed before
/// anything touches the writer.
struct Encoder {
    bytes: Vec<u8>,
}

impl Encoder {
    fn new() -> Self {
        Self { bytes: Vec::with_capacity(256) }
    }

    fn u64(&mut self, value: u64) {
        self.bytes.extend_from_slice(&value.to_le_bytes());
    }

    fn f64(&mut self, value: f64) {
        self.bytes.extend_from_slice(&value.to_bits().to_le_bytes());
    }
}

fn layout_tag_colocated() -> u8 {
    0
}

fn layout_tag_dispersed() -> u8 {
    1
}

fn family_tag(family: RankFamily) -> u8 {
    match family {
        RankFamily::Exp => 0,
        RankFamily::Ipps => 1,
    }
}

fn mode_tag(mode: CoordinationMode) -> u8 {
    match mode {
        CoordinationMode::Independent => 0,
        CoordinationMode::SharedSeed => 1,
        CoordinationMode::IndependentDifferences => 2,
    }
}

fn encode_header(layout: u8, config: &SummaryConfig, num_assignments: usize) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&MAGIC);
    header[4..6].copy_from_slice(&VERSION.to_le_bytes());
    header[6] = layout;
    header[7] = family_tag(config.family);
    header[8] = mode_tag(config.mode);
    // Bytes 9..16 are the reserved pad, already zero.
    header[16..24].copy_from_slice(&(config.k as u64).to_le_bytes());
    header[24..32].copy_from_slice(&config.seed.to_le_bytes());
    header[32..40].copy_from_slice(&(num_assignments as u64).to_le_bytes());
    let sum = checksum(&header[..40]);
    header[40..48].copy_from_slice(&sum.to_le_bytes());
    header
}

fn write_io_error(error: &std::io::Error) -> CwsError {
    codec_error(CodecErrorKind::Io { message: error.to_string() }, 0)
}

fn write_frame<W: Write>(
    writer: &mut W,
    layout: u8,
    config: &SummaryConfig,
    num_assignments: usize,
    body: &[u8],
) -> Result<()> {
    let header = encode_header(layout, config, num_assignments);
    writer.write_all(&header).map_err(|e| write_io_error(&e))?;
    writer.write_all(body).map_err(|e| write_io_error(&e))?;
    writer.write_all(&checksum(body).to_le_bytes()).map_err(|e| write_io_error(&e))?;
    Ok(())
}

/// Serializes a dispersed summary.
///
/// # Errors
/// Returns [`CwsError::Codec`] with [`CodecErrorKind::Io`] if the writer
/// fails; the encoding itself is infallible for any well-formed summary.
pub(crate) fn write_dispersed<W: Write>(summary: &DispersedSummary, writer: &mut W) -> Result<()> {
    let mut body = Encoder::new();
    for sketch in summary.sketches() {
        body.f64(sketch.next_rank());
        body.u64(sketch.len() as u64);
        for entry in sketch.entries() {
            body.u64(entry.key);
            body.f64(entry.rank);
            body.f64(entry.weight);
        }
    }
    write_frame(
        writer,
        layout_tag_dispersed(),
        summary.config(),
        summary.num_assignments(),
        &body.bytes,
    )
}

/// Serializes a colocated summary.
///
/// # Errors
/// As [`write_dispersed`].
pub(crate) fn write_colocated<W: Write>(summary: &ColocatedSummary, writer: &mut W) -> Result<()> {
    let assignments = summary.num_assignments();
    let mut body = Encoder::new();
    body.u64(summary.effective_k() as u64);
    for b in 0..assignments {
        body.f64(summary.kth_rank(b));
    }
    for b in 0..assignments {
        body.f64(summary.next_rank(b));
    }
    body.u64(summary.records().len() as u64);
    let membership_bytes = assignments.div_ceil(8);
    for record in summary.records() {
        body.u64(record.key);
        for &weight in &record.weights {
            body.f64(weight);
        }
        let mut bits = vec![0u8; membership_bytes];
        for (b, &in_sketch) in record.in_sketch.iter().enumerate() {
            if in_sketch {
                bits[b / 8] |= 1 << (b % 8);
            }
        }
        body.bytes.extend_from_slice(&bits);
    }
    write_frame(writer, layout_tag_colocated(), summary.config(), assignments, &body.bytes)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Offset-tracking reader that records every body byte for the trailing
/// checksum verification.
struct Decoder<R> {
    inner: R,
    offset: u64,
    /// Body bytes read so far (`None` while reading the header).
    recorded: Option<Vec<u8>>,
}

impl<R: Read> Decoder<R> {
    fn new(inner: R) -> Self {
        Self { inner, offset: 0, recorded: None }
    }

    fn start_body(&mut self) {
        self.recorded = Some(Vec::with_capacity(256));
    }

    /// The recorded body bytes (empties the recording buffer).
    fn take_body(&mut self) -> Vec<u8> {
        self.recorded.take().unwrap_or_default()
    }

    fn read_exact(&mut self, buf: &mut [u8]) -> Result<()> {
        let mut filled = 0;
        while filled < buf.len() {
            match self.inner.read(&mut buf[filled..]) {
                Ok(0) => {
                    return Err(codec_error(
                        CodecErrorKind::Truncated { expected: (buf.len() - filled) as u64 },
                        self.offset + filled as u64,
                    ));
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    return Err(codec_error(
                        CodecErrorKind::Io { message: e.to_string() },
                        self.offset + filled as u64,
                    ));
                }
            }
        }
        self.offset += buf.len() as u64;
        if let Some(recorded) = &mut self.recorded {
            recorded.extend_from_slice(buf);
        }
        Ok(())
    }

    fn u64(&mut self) -> Result<u64> {
        let mut buf = [0u8; 8];
        self.read_exact(&mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }
}

/// The decoded header: layout plus the validated configuration.
struct Header {
    layout: u8,
    config: SummaryConfig,
    num_assignments: usize,
}

fn decode_header<R: Read>(decoder: &mut Decoder<R>) -> Result<Header> {
    let mut header = [0u8; HEADER_LEN];
    decoder.read_exact(&mut header)?;
    if header[0..4] != MAGIC {
        let mut found = [0u8; 4];
        found.copy_from_slice(&header[0..4]);
        return Err(codec_error(CodecErrorKind::BadMagic { found }, 0));
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != VERSION {
        return Err(codec_error(CodecErrorKind::UnsupportedVersion { found: version }, 4));
    }
    let declared = u64::from_le_bytes(header[40..48].try_into().expect("8-byte slice"));
    if declared != checksum(&header[..40]) {
        return Err(codec_error(CodecErrorKind::ChecksumMismatch { section: "header" }, 40));
    }
    let layout = header[6];
    if layout > 1 {
        return Err(codec_error(CodecErrorKind::InvalidTag { field: "layout", value: layout }, 6));
    }
    let family = match header[7] {
        0 => RankFamily::Exp,
        1 => RankFamily::Ipps,
        value => {
            return Err(codec_error(CodecErrorKind::InvalidTag { field: "rank family", value }, 7));
        }
    };
    let mode = match header[8] {
        0 => CoordinationMode::Independent,
        1 => CoordinationMode::SharedSeed,
        2 => CoordinationMode::IndependentDifferences,
        value => {
            return Err(codec_error(
                CodecErrorKind::InvalidTag { field: "coordination", value },
                8,
            ));
        }
    };
    if let Some(&value) = header[9..16].iter().find(|&&byte| byte != 0) {
        return Err(codec_error(CodecErrorKind::InvalidTag { field: "reserved", value }, 9));
    }
    let k = u64::from_le_bytes(header[16..24].try_into().expect("8-byte slice"));
    if k > MAX_K {
        return Err(codec_error(CodecErrorKind::LengthOverflow { declared: k, limit: MAX_K }, 16));
    }
    let seed = u64::from_le_bytes(header[24..32].try_into().expect("8-byte slice"));
    let num_assignments = u64::from_le_bytes(header[32..40].try_into().expect("8-byte slice"));
    if num_assignments > MAX_ASSIGNMENTS {
        return Err(codec_error(
            CodecErrorKind::LengthOverflow { declared: num_assignments, limit: MAX_ASSIGNMENTS },
            32,
        ));
    }
    if num_assignments == 0 {
        return Err(invalid("a summary must cover at least one assignment", 32));
    }
    let config = SummaryConfig::try_new(k as usize, family, mode, seed)
        .map_err(|e| invalid(format!("header declares an invalid configuration: {e}"), 16))?;
    if layout == layout_tag_dispersed() && mode == CoordinationMode::IndependentDifferences {
        return Err(invalid(
            "independent-differences ranks cannot appear in a dispersed summary",
            8,
        ));
    }
    Ok(Header { layout, config, num_assignments: num_assignments as usize })
}

fn verify_body_checksum<R: Read>(decoder: &mut Decoder<R>) -> Result<()> {
    let body = decoder.take_body();
    let expected = checksum(&body);
    let declared = decoder.u64()?;
    if declared != expected {
        return Err(codec_error(
            CodecErrorKind::ChecksumMismatch { section: "body" },
            decoder.offset - 8,
        ));
    }
    Ok(())
}

fn decode_sketch<R: Read>(decoder: &mut Decoder<R>, k: usize) -> Result<BottomKSketch> {
    let next_rank = decoder.f64()?;
    if next_rank.is_nan() || next_rank < 0.0 {
        return Err(invalid("next rank must be non-negative or +∞", decoder.offset - 8));
    }
    let count_offset = decoder.offset;
    let count = decoder.u64()?;
    if count > k as u64 {
        return Err(codec_error(
            CodecErrorKind::LengthOverflow { declared: count, limit: k as u64 },
            count_offset,
        ));
    }
    let mut entries: Vec<SketchEntry> = Vec::with_capacity(count as usize);
    let mut seen = std::collections::HashSet::with_capacity(count as usize);
    for _ in 0..count {
        let entry_offset = decoder.offset;
        let key = decoder.u64()?;
        let rank = decoder.f64()?;
        let weight = decoder.f64()?;
        if !rank.is_finite() {
            return Err(invalid(format!("entry of key {key} has a non-finite rank"), entry_offset));
        }
        if !weight.is_finite() || weight <= 0.0 {
            return Err(invalid(
                format!("entry of key {key} has a non-positive or non-finite weight"),
                entry_offset,
            ));
        }
        if let Some(last) = entries.last() {
            let order = last.rank.total_cmp(&rank).then_with(|| last.key.cmp(&key));
            if order != std::cmp::Ordering::Less {
                return Err(invalid(
                    "sketch entries must be strictly ascending by (rank, key)",
                    entry_offset,
                ));
            }
        }
        if !seen.insert(key) {
            return Err(invalid(format!("key {key} appears twice in one sketch"), entry_offset));
        }
        entries.push(SketchEntry { key, rank, weight });
    }
    if entries.last().is_some_and(|last| last.rank > next_rank) {
        return Err(invalid("next rank undercuts a retained entry", decoder.offset));
    }
    Ok(BottomKSketch::from_sorted_parts(k, entries, next_rank))
}

fn decode_dispersed_body<R: Read>(
    decoder: &mut Decoder<R>,
    header: &Header,
) -> Result<DispersedSummary> {
    let mut sketches = Vec::with_capacity(header.num_assignments);
    for _ in 0..header.num_assignments {
        sketches.push(decode_sketch(decoder, header.config.k)?);
    }
    verify_body_checksum(decoder)?;
    DispersedSummary::from_sketches(header.config, sketches)
}

fn decode_colocated_body<R: Read>(
    decoder: &mut Decoder<R>,
    header: &Header,
) -> Result<ColocatedSummary> {
    let assignments = header.num_assignments;
    let effective_offset = decoder.offset;
    let effective_k = decoder.u64()?;
    if effective_k > MAX_K {
        return Err(codec_error(
            CodecErrorKind::LengthOverflow { declared: effective_k, limit: MAX_K },
            effective_offset,
        ));
    }
    if effective_k == 0 {
        return Err(invalid("effective sample size must be positive", effective_offset));
    }
    let mut kth_ranks = Vec::with_capacity(assignments);
    let mut next_ranks = Vec::with_capacity(assignments);
    for ranks in [&mut kth_ranks, &mut next_ranks] {
        for _ in 0..assignments {
            let rank = decoder.f64()?;
            if rank.is_nan() || rank < 0.0 {
                return Err(invalid(
                    "per-assignment ranks must be non-negative or +∞",
                    decoder.offset - 8,
                ));
            }
            ranks.push(rank);
        }
    }
    if kth_ranks.iter().zip(&next_ranks).any(|(kth, next)| kth > next) {
        return Err(invalid("an ℓ-th rank exceeds its (ℓ+1)-st rank", decoder.offset));
    }
    let count_offset = decoder.offset;
    let record_count = decoder.u64()?;
    let record_limit = effective_k.saturating_mul(assignments as u64);
    if record_count > record_limit {
        return Err(codec_error(
            CodecErrorKind::LengthOverflow { declared: record_count, limit: record_limit },
            count_offset,
        ));
    }
    let membership_bytes = assignments.div_ceil(8);
    let mut records: Vec<ColocatedRecord> = Vec::with_capacity(record_count as usize);
    let mut per_assignment_members = vec![0u64; assignments];
    let mut bits = vec![0u8; membership_bytes];
    for _ in 0..record_count {
        let record_offset = decoder.offset;
        let key = decoder.u64()?;
        if let Some(last) = records.last() {
            if last.key >= key {
                return Err(invalid("records must be strictly ascending by key", record_offset));
            }
        }
        let mut weights = Vec::with_capacity(assignments);
        for _ in 0..assignments {
            let weight = decoder.f64()?;
            if !weight.is_finite() || weight < 0.0 {
                return Err(invalid(
                    format!("record of key {key} has a negative or non-finite weight"),
                    decoder.offset - 8,
                ));
            }
            weights.push(weight);
        }
        decoder.read_exact(&mut bits)?;
        let mut in_sketch = Vec::with_capacity(assignments);
        for b in 0..assignments {
            let bit = bits[b / 8] >> (b % 8) & 1 == 1;
            if bit {
                per_assignment_members[b] += 1;
            }
            in_sketch.push(bit);
        }
        let padding = &bits[..];
        let used_bits = assignments % 8;
        let padded_last =
            if used_bits == 0 { 0 } else { padding[membership_bytes - 1] >> used_bits };
        if padded_last != 0 {
            return Err(invalid("membership padding bits must be zero", decoder.offset));
        }
        records.push(ColocatedRecord { key, weights, in_sketch });
    }
    if per_assignment_members.iter().any(|&members| members > effective_k) {
        return Err(invalid(
            "an embedded sample holds more members than the effective sample size",
            decoder.offset,
        ));
    }
    verify_body_checksum(decoder)?;
    ColocatedSummary::from_parts(
        header.config,
        effective_k as usize,
        kth_ranks,
        next_ranks,
        records,
    )
}

/// A summary decoded from a stream — either layout, as declared by the
/// header's layout tag.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodedSummary {
    /// The stream held a colocated summary.
    Colocated(ColocatedSummary),
    /// The stream held a dispersed summary.
    Dispersed(DispersedSummary),
}

/// Reads one summary (either layout) from `reader`, leaving the reader
/// positioned after its trailing checksum so concatenated summaries can be
/// read sequentially.
///
/// # Errors
/// Returns [`CwsError::Codec`] for every malformed input: bad magic, unknown
/// version, invalid tags, truncation at any point, declared-length
/// overflow, checksum mismatch, or semantically impossible content. Decoding
/// never panics on untrusted bytes.
pub fn read_summary<R: Read>(reader: &mut R) -> Result<DecodedSummary> {
    let mut decoder = Decoder::new(reader);
    let header = decode_header(&mut decoder)?;
    decoder.start_body();
    if header.layout == layout_tag_dispersed() {
        Ok(DecodedSummary::Dispersed(decode_dispersed_body(&mut decoder, &header)?))
    } else {
        Ok(DecodedSummary::Colocated(decode_colocated_body(&mut decoder, &header)?))
    }
}

/// Decodes exactly one summary from `bytes`, rejecting trailing garbage.
///
/// # Errors
/// As [`read_summary`]; additionally a typed error if `bytes` continues past
/// the summary's trailing checksum.
pub fn summary_from_bytes(bytes: &[u8]) -> Result<DecodedSummary> {
    let mut cursor = bytes;
    let summary = read_summary(&mut cursor)?;
    if !cursor.is_empty() {
        return Err(invalid(
            format!("{} trailing byte(s) after the summary", cursor.len()),
            (bytes.len() - cursor.len()) as u64,
        ));
    }
    Ok(summary)
}

impl DispersedSummary {
    /// Serializes this summary in the versioned binary format of
    /// [`crate::codec`].
    ///
    /// # Errors
    /// Returns [`CwsError::Codec`] if the writer fails.
    pub fn write_to<W: Write>(&self, writer: &mut W) -> Result<()> {
        write_dispersed(self, writer)
    }

    /// The serialized bytes of this summary.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut bytes = Vec::new();
        self.write_to(&mut bytes).expect("writing to a Vec cannot fail");
        bytes
    }
}

impl ColocatedSummary {
    /// Serializes this summary in the versioned binary format of
    /// [`crate::codec`].
    ///
    /// # Errors
    /// Returns [`CwsError::Codec`] if the writer fails.
    pub fn write_to<W: Write>(&self, writer: &mut W) -> Result<()> {
        write_colocated(self, writer)
    }

    /// The serialized bytes of this summary.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut bytes = Vec::new();
        self.write_to(&mut bytes).expect("writing to a Vec cannot fail");
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::MultiWeighted;

    fn fixture() -> MultiWeighted {
        let mut builder = MultiWeighted::builder(3);
        for key in 0..300u64 {
            builder.add(key, 0, ((key % 11) + 1) as f64);
            builder.add(key, 1, ((key % 7) * 2) as f64);
            builder.add(key, 2, ((key % 13) + 3) as f64);
        }
        builder.build()
    }

    fn config(mode: CoordinationMode, family: RankFamily) -> SummaryConfig {
        SummaryConfig::new(16, family, mode, 99)
    }

    fn read_dispersed(bytes: &[u8]) -> DispersedSummary {
        match read_summary(&mut &bytes[..]).unwrap() {
            DecodedSummary::Dispersed(summary) => summary,
            other => panic!("expected a dispersed summary, got {other:?}"),
        }
    }

    #[test]
    fn dispersed_round_trip_is_bit_exact() {
        let data = fixture();
        let summary =
            DispersedSummary::build(&data, &config(CoordinationMode::SharedSeed, RankFamily::Ipps));
        let bytes = summary.to_bytes();
        let decoded = read_dispersed(&bytes);
        assert_eq!(decoded, summary);
        assert_eq!(decoded.to_bytes(), bytes, "re-encoding reproduces the bytes");
        for (a, b) in decoded.sketches().iter().zip(summary.sketches()) {
            assert_eq!(a.next_rank().to_bits(), b.next_rank().to_bits());
        }
    }

    #[test]
    fn colocated_round_trip_is_bit_exact() {
        let data = fixture();
        for (mode, family) in [
            (CoordinationMode::SharedSeed, RankFamily::Ipps),
            (CoordinationMode::Independent, RankFamily::Exp),
            (CoordinationMode::IndependentDifferences, RankFamily::Exp),
        ] {
            let summary = ColocatedSummary::build(&data, &config(mode, family));
            let bytes = summary.to_bytes();
            let decoded = match read_summary(&mut bytes.as_slice()).unwrap() {
                DecodedSummary::Colocated(summary) => summary,
                other => panic!("expected a colocated summary, got {other:?}"),
            };
            assert_eq!(decoded, summary, "{mode:?} {family:?}");
            assert_eq!(decoded.to_bytes(), bytes);
        }
    }

    #[test]
    fn concatenated_summaries_read_sequentially() {
        let data = fixture();
        let cfg = config(CoordinationMode::SharedSeed, RankFamily::Ipps);
        let dispersed = DispersedSummary::build(&data, &cfg);
        let colocated = ColocatedSummary::build(&data, &cfg);
        let mut stream = Vec::new();
        dispersed.write_to(&mut stream).unwrap();
        colocated.write_to(&mut stream).unwrap();
        let mut cursor = stream.as_slice();
        assert_eq!(read_summary(&mut cursor).unwrap(), DecodedSummary::Dispersed(dispersed));
        assert_eq!(read_summary(&mut cursor).unwrap(), DecodedSummary::Colocated(colocated));
        assert!(cursor.is_empty());
    }

    #[test]
    fn trailing_bytes_are_rejected_by_from_bytes() {
        let data = fixture();
        let cfg = config(CoordinationMode::SharedSeed, RankFamily::Ipps);
        let mut bytes = DispersedSummary::build(&data, &cfg).to_bytes();
        assert!(summary_from_bytes(&bytes).is_ok());
        bytes.push(0);
        assert!(matches!(
            summary_from_bytes(&bytes),
            Err(CwsError::Codec { kind: CodecErrorKind::Invalid { .. }, .. })
        ));
    }

    #[test]
    fn frame_checksum_is_a_distinct_stream() {
        let bytes = b"the same covered bytes";
        assert_ne!(
            checksum(bytes),
            frame_checksum(bytes),
            "summary and journal-frame checksums must never collide by construction"
        );
    }

    #[test]
    fn empty_summary_round_trips() {
        let empty = MultiWeighted::builder(2).build();
        let cfg = SummaryConfig::new(4, RankFamily::Ipps, CoordinationMode::SharedSeed, 1);
        let summary = DispersedSummary::build(&empty, &cfg);
        assert_eq!(summary.num_distinct_keys(), 0);
        let decoded = read_dispersed(&summary.to_bytes());
        assert_eq!(decoded, summary);
    }
}
