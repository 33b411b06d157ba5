//! Deterministic, seedable fault injection for robustness testing.
//!
//! A long-lived sampling service has to survive the failures the paper's
//! model abstracts away: worker threads that panic mid-epoch, shards that
//! stall, and writes that are torn by a crash at an arbitrary byte offset.
//! This module provides the *injection* half of that story — small,
//! dependency-free wrappers that make those failures reproducible on
//! demand, from ordinary integration tests, with no `cfg(test)` hooks:
//!
//! * [`FaultPlan`] — a seeded deterministic schedule generator (SplitMix64).
//!   Every fault a test injects derives from a plan seed, so a failing
//!   interleaving reruns bit-exactly from its seed alone.
//! * [`FailingWriter`] — an I/O wrapper that performs faithfully up to a
//!   chosen byte offset and then fails with a chosen
//!   [`std::io::ErrorKind`]. Writing through it and keeping what reached
//!   the inner writer models a **torn write** (a crash at that offset).
//! * [`ShortWriter`] / [`ShortReader`] — wrappers that transfer at most `n`
//!   bytes per call, exercising every partial-progress loop in a codec.
//! * [`InterruptingWriter`] / [`InterruptingReader`] — wrappers that
//!   sprinkle [`std::io::ErrorKind::Interrupted`] results on a seeded
//!   schedule; correct callers must retry, incorrect ones surface
//!   immediately.
//! * [`WorkerFault`] — the typed faults a shard worker can be instructed to
//!   exhibit (used by `cws-stream`'s sharded engine, which accepts them
//!   through its public `inject_worker_fault` supervision API).
//!
//! The wrappers live in the library proper (not behind `cfg(test)`) so the
//! workspace-level fault battery, downstream crates, and ad-hoc operational
//! drills can all drive them; none of them costs anything unless
//! constructed.

use std::io::{Error, ErrorKind, Read, Result as IoResult, Write};

/// A seeded deterministic fault schedule.
///
/// Internally a SplitMix64 stream: cheap, well distributed, and — most
/// importantly — identical on every platform and every run, so a fault
/// interleaving found by the multi-seed stress job is reproducible from its
/// seed alone.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    state: u64,
}

impl FaultPlan {
    /// A plan deriving every schedule from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit value of the schedule stream.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`bound` must be positive).
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Multiply-shift reduction: unbiased enough for fault scheduling and
        // branch-free.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// `true` with probability `1/one_in` (`one_in` must be positive).
    ///
    /// # Panics
    /// Panics if `one_in == 0`.
    pub fn coin(&mut self, one_in: u64) -> bool {
        self.next_below(one_in) == 0
    }
}

/// The typed faults a sharded-ingestion worker can be instructed to exhibit
/// through the sharded engine's supervision API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum WorkerFault {
    /// The worker panics when it processes the fault message, modelling a
    /// bug or abort inside the per-shard sampler.
    Panic,
    /// The worker sleeps for this many milliseconds before processing any
    /// further traffic, modelling a stalled shard (slow disk, scheduler
    /// starvation, a lock convoy). Bounded so fault tests terminate.
    Stall {
        /// How long the worker stays unresponsive.
        millis: u64,
    },
}

/// A writer that forwards faithfully until `limit` bytes have been written,
/// then fails every further write with `kind`.
///
/// What reached the inner writer is exactly the prefix a crash at byte
/// offset `limit` would have left on disk, which is how the fault battery
/// produces torn snapshot files at every offset.
#[derive(Debug)]
pub struct FailingWriter<W> {
    inner: W,
    remaining: u64,
    kind: ErrorKind,
    tripped: bool,
}

impl<W: Write> FailingWriter<W> {
    /// Fails with `kind` once `limit` bytes have passed through.
    #[must_use]
    pub fn new(inner: W, limit: u64, kind: ErrorKind) -> Self {
        Self { inner, remaining: limit, kind, tripped: false }
    }

    /// `true` once the fault has fired at least once.
    #[must_use]
    pub fn tripped(&self) -> bool {
        self.tripped
    }

    /// Unwraps the inner writer (the torn prefix lives in it).
    #[must_use]
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for FailingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> IoResult<usize> {
        if self.remaining == 0 && !buf.is_empty() {
            self.tripped = true;
            return Err(Error::new(self.kind, "injected write fault"));
        }
        let take = buf.len().min(usize::try_from(self.remaining).unwrap_or(usize::MAX));
        let written = self.inner.write(&buf[..take])?;
        self.remaining -= written as u64;
        Ok(written)
    }

    fn flush(&mut self) -> IoResult<()> {
        self.inner.flush()
    }
}

/// A writer that accepts at most `chunk` bytes per call — every call makes
/// progress, but never as much as asked, exercising partial-write loops.
#[derive(Debug)]
pub struct ShortWriter<W> {
    inner: W,
    chunk: usize,
}

impl<W: Write> ShortWriter<W> {
    /// Writes at most `chunk` bytes per call.
    ///
    /// # Panics
    /// Panics if `chunk == 0` (a zero-progress writer violates the `Write`
    /// contract and would loop forever).
    #[must_use]
    pub fn new(inner: W, chunk: usize) -> Self {
        assert!(chunk > 0, "a short writer must still make progress");
        Self { inner, chunk }
    }

    /// Unwraps the inner writer.
    #[must_use]
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for ShortWriter<W> {
    fn write(&mut self, buf: &[u8]) -> IoResult<usize> {
        let take = buf.len().min(self.chunk);
        self.inner.write(&buf[..take])
    }

    fn flush(&mut self) -> IoResult<()> {
        self.inner.flush()
    }
}

/// A reader that serves at most `chunk` bytes per call (`chunk = 1` is the
/// classic 1-byte-at-a-time reader every streaming decoder must tolerate).
#[derive(Debug)]
pub struct ShortReader<R> {
    inner: R,
    chunk: usize,
}

impl<R: Read> ShortReader<R> {
    /// Reads at most `chunk` bytes per call.
    ///
    /// # Panics
    /// Panics if `chunk == 0`.
    #[must_use]
    pub fn new(inner: R, chunk: usize) -> Self {
        assert!(chunk > 0, "a short reader must still make progress");
        Self { inner, chunk }
    }
}

impl<R: Read> Read for ShortReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> IoResult<usize> {
        let take = buf.len().min(self.chunk);
        self.inner.read(&mut buf[..take])
    }
}

/// A writer that fails with [`ErrorKind::Interrupted`] on a seeded schedule
/// (roughly one call in `one_in`), and forwards faithfully otherwise.
///
/// `Interrupted` is the one I/O error the `Write`/`Read` contracts declare
/// retryable; robust codecs must absorb it without corrupting the stream.
#[derive(Debug)]
pub struct InterruptingWriter<W> {
    inner: W,
    plan: FaultPlan,
    one_in: u64,
}

impl<W: Write> InterruptingWriter<W> {
    /// Interrupts roughly one call in `one_in`, on the schedule of `plan`.
    ///
    /// # Panics
    /// Panics if `one_in == 0`.
    #[must_use]
    pub fn new(inner: W, plan: FaultPlan, one_in: u64) -> Self {
        assert!(one_in > 0, "the interruption rate must be positive");
        Self { inner, plan, one_in }
    }

    /// Unwraps the inner writer.
    #[must_use]
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for InterruptingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> IoResult<usize> {
        if self.plan.coin(self.one_in) {
            return Err(Error::new(ErrorKind::Interrupted, "injected interruption"));
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> IoResult<()> {
        self.inner.flush()
    }
}

/// A reader that fails with [`ErrorKind::Interrupted`] on a seeded schedule
/// (roughly one call in `one_in`), and forwards faithfully otherwise.
#[derive(Debug)]
pub struct InterruptingReader<R> {
    inner: R,
    plan: FaultPlan,
    one_in: u64,
}

impl<R: Read> InterruptingReader<R> {
    /// Interrupts roughly one call in `one_in`, on the schedule of `plan`.
    ///
    /// # Panics
    /// Panics if `one_in == 0`.
    #[must_use]
    pub fn new(inner: R, plan: FaultPlan, one_in: u64) -> Self {
        assert!(one_in > 0, "the interruption rate must be positive");
        Self { inner, plan, one_in }
    }
}

impl<R: Read> Read for InterruptingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> IoResult<usize> {
        if self.plan.coin(self.one_in) {
            return Err(Error::new(ErrorKind::Interrupted, "injected interruption"));
        }
        self.inner.read(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_is_deterministic_per_seed() {
        let mut a = FaultPlan::new(42);
        let mut b = FaultPlan::new(42);
        let mut c = FaultPlan::new(43);
        let from_a: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let from_b: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        let from_c: Vec<u64> = (0..32).map(|_| c.next_u64()).collect();
        assert_eq!(from_a, from_b);
        assert_ne!(from_a, from_c);
        let mut bounded = FaultPlan::new(7);
        for _ in 0..1000 {
            assert!(bounded.next_below(13) < 13);
        }
    }

    #[test]
    fn coin_rate_is_roughly_one_in_n() {
        let mut plan = FaultPlan::new(5);
        let hits = (0..10_000).filter(|_| plan.coin(4)).count();
        assert!((2000..3000).contains(&hits), "one-in-4 coin hit {hits}/10000");
    }

    #[test]
    fn failing_writer_keeps_the_exact_prefix() {
        for limit in 0..16u64 {
            let mut writer = FailingWriter::new(Vec::new(), limit, ErrorKind::BrokenPipe);
            let payload: Vec<u8> = (0..16).collect();
            let result = writer.write_all(&payload);
            assert!(result.is_err(), "limit {limit}");
            assert_eq!(result.unwrap_err().kind(), ErrorKind::BrokenPipe);
            assert!(writer.tripped());
            assert_eq!(writer.into_inner(), payload[..limit as usize].to_vec());
        }
    }

    #[test]
    fn short_wrappers_still_complete_transfers() {
        let payload: Vec<u8> = (0..255).collect();
        let mut writer = ShortWriter::new(Vec::new(), 1);
        writer.write_all(&payload).unwrap();
        assert_eq!(writer.into_inner(), payload);

        let mut reader = ShortReader::new(payload.as_slice(), 1);
        let mut out = Vec::new();
        reader.read_to_end(&mut out).unwrap();
        assert_eq!(out, payload);
    }

    #[test]
    fn interrupting_wrappers_only_emit_interrupted() {
        let payload: Vec<u8> = (0..100).collect();
        let mut writer = InterruptingWriter::new(Vec::new(), FaultPlan::new(3), 2);
        // `write_all` retries `Interrupted` per its contract, so the payload
        // must arrive intact despite the injected noise.
        writer.write_all(&payload).unwrap();
        assert_eq!(writer.into_inner(), payload);

        let mut reader = InterruptingReader::new(payload.as_slice(), FaultPlan::new(9), 2);
        let mut out = Vec::new();
        let mut buf = [0u8; 7];
        loop {
            match reader.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => out.extend_from_slice(&buf[..n]),
                Err(e) => assert_eq!(e.kind(), ErrorKind::Interrupted),
            }
        }
        assert_eq!(out, payload);
    }
}
