//! Streaming pre-aggregation: turning *unaggregated* element streams into
//! the aggregated `(key, weight-vector)` records the samplers require.
//!
//! The samplers of `cws-stream` assume each key appears at most once — the
//! paper's model, where per-key weights (flow byte counts, monthly rating
//! totals) have already been aggregated. Real streams rarely arrive that
//! way: a flow's bytes come packet by packet, a movie's monthly count
//! rating by rating. [`KeyAggregator`] is the stage in front of the
//! samplers that absorbs raw `(key, assignment, weight)` elements, combines
//! them per `(key, assignment)` slot (sum or max), and emits the finished
//! records in the structure-of-arrays layout
//! ([`RecordColumns`]) the zero-copy ingestion path consumes.
//!
//! # Design
//!
//! The table is a hand-rolled open-addressing index (power-of-two sized,
//! linear probing, [`KeyHasher`] hashes) over *dense, insertion-ordered,
//! columnar* storage: one key column plus one weight lane per assignment —
//! exactly the [`RecordColumns`] layout, so
//! [`KeyAggregator::into_columns`] hands the finished batch to the sampler
//! without copying a single weight. The hot path (one element) costs one
//! hash, one probe chain through the compact 4-byte-per-entry index and
//! one lane update; no `std` hash-map overhead, no per-element allocation.
//!
//! Exact streaming aggregation must hold every open key (a key's total is
//! unknown until the stream ends), so memory is `O(distinct keys)` — that
//! is the cost of the aggregation guarantee, not an implementation detail.
//! The surrounding [`Pipeline`](crate::Pipeline) hands each drained table
//! to its sampler as one batch.
//!
//! Summation order follows arrival order per slot, so for a given element
//! stream the aggregate — and therefore the downstream sample — is exactly
//! reproducible.
//!
//! # Resource governance
//!
//! Unbounded `O(distinct keys)` growth is exactly how an aggregation stage
//! OOMs a service, so the table can be governed by a
//! [`ResourceBudget`] ([`KeyAggregator::set_budget`]): a hard cap on
//! distinct keys and/or tracked bytes, enforced *atomically at push
//! boundaries* — a push that would breach the cap returns
//! [`CwsError::BudgetExceeded`] with the table exactly as it was (updates
//! to keys already held never breach; only *new* keys cost admission).
//! The documented spill path is **flush-early**:
//! [`KeyAggregator::flush_columns`] drains the finished slots into a
//! [`RecordColumns`] batch for the sampler and resets the table, after
//! which the rejected push succeeds. The surrounding `Pipeline` does this
//! automatically. Flushing early trades exactness for boundedness: a key
//! whose fragments span a flush boundary is offered to the sampler once
//! per flush with partial aggregates (the sampler keeps the first offer of
//! a duplicate key), so flush-early runs are bit-exact with uncapped runs
//! exactly when no key's fragments straddle a flush.
//!
//! # One path, one refusal rule
//!
//! Every push shape — one element, an element batch, one record, a column
//! batch — is absorbed in two steps: a *stage* checks the arity,
//! validates, resolves every key to its dense slot and settles admission
//! once; a *commit* quarantines the batch's poison and combines. Shapes
//! differ only in how they treat an invalid weight (see below) and in
//! that a record-shaped row checks every lane's sum before it writes any
//! lane. One rule holds for every shape:
//!
//! * a push that absorbs nothing leaves the keys, the lanes and the index
//!   length exactly as they were;
//! * a push refused mid-way — a sum that overflows `f64` — keeps exactly
//!   what absorbing its fragments one at a time would have kept up to the
//!   refusal, and no zero-weight row of a later fragment;
//! * admission is checked only when the push adds a key.
//!
//! So a refused push that left [`KeyAggregator::absorbed`] where it was
//! left the table where it was too, which is what lets a write-ahead
//! journal withdraw it.
//!
//! # Poison-record quarantine
//!
//! The *batched* absorb paths validate record-granularly: an invalid
//! element (NaN/∞/negative weight, out-of-range assignment) is diverted to
//! a bounded in-memory dead-letter ring while the rest of the batch
//! ingests bit-exactly — one poison record no longer fails its whole
//! batch. [`KeyAggregator::quarantined`] reports
//! [`QuarantinedRecords`]`{ count, first_error }`; the invariant is
//! `quarantined + absorbed == offered`. The scalar paths keep their
//! classic reject-with-typed-error contract (the caller already has
//! record granularity).

use std::collections::VecDeque;

use cws_core::budget::{QuarantinedRecords, ResourceBudget};
use cws_core::columns::{check_arity, invalid_weight_error, weight_is_valid, RecordColumns};
use cws_core::{CwsError, Key, Result};
use cws_hash::KeyHasher;

use crate::pipeline::Push;

/// Salt for the aggregation-table hash stream: deterministic per master
/// seed, uncorrelated with the rank and shard-routing hashes.
const AGGREGATOR_STREAM: u64 = 0x5AAD_EDC0_DE00_0003;

/// A drained quarantine: the lifetime report plus the retained dead
/// letters — the most recent poison `(key, assignment, weight)` elements,
/// oldest first.
pub type QuarantineDrain = (QuarantinedRecords, Vec<(Key, usize, f64)>);

/// A poison fragment held for quarantine: `(key, assignment, weight)` and
/// the error that condemned it.
type Poison = (Key, usize, f64, CwsError);

/// A staged push: slots resolved (new keys inserted as zero-weight rows)
/// and admission settled, nothing combined. Holds what
/// [`KeyAggregator::abort`] needs to restore the table exactly, and the
/// poison the commit will quarantine.
#[derive(Debug)]
pub(crate) struct Staged {
    old_len: usize,
    old_table_len: usize,
    poison: Vec<Poison>,
}

/// How a [`Pipeline`](crate::Pipeline) treats incoming weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregation {
    /// The stream is already aggregated: each key appears at most once and
    /// records flow straight into the sampler (the historical behaviour).
    PreAggregated,
    /// Unaggregated stream: per-`(key, assignment)` weights are **summed**
    /// before sampling (bytes per flow, ratings per movie).
    SumByKey,
    /// Unaggregated stream: per-`(key, assignment)` weights are **maxed**
    /// before sampling (peak rate per flow, largest order per ticker).
    MaxByKey,
}

impl Aggregation {
    /// `true` when this mode inserts the pre-aggregation stage.
    #[must_use]
    pub fn is_aggregating(self) -> bool {
        !matches!(self, Aggregation::PreAggregated)
    }
}

/// The streaming pre-aggregation table (see the module docs).
#[derive(Debug, Clone)]
pub struct KeyAggregator {
    mode: Aggregation,
    hasher: KeyHasher,
    /// Dense key column, insertion-ordered.
    keys: Vec<Key>,
    /// Dense weight lanes, one per assignment: `lanes[a][slot]`.
    lanes: Vec<Vec<f64>>,
    /// Open-addressing index: table position → dense slot + 1 (0 = empty).
    /// Kept to 4 bytes per entry — at 50% max load the index stays an
    /// order of magnitude smaller than the weight lanes, so probes mostly
    /// hit cache (an experiment storing keys inline in 16-byte entries
    /// measured *slower* at 200k keys: the 4× larger index evicted more
    /// than the saved key-column access bought).
    table: Vec<u32>,
    /// `table.len() - 1`; the table is always a power of two.
    mask: u64,
    /// The staged push's resolved slots, one per fragment, reused across pushes.
    slot_scratch: Vec<u32>,
    /// Number of absorbed elements / records (accepted pushes).
    absorbed: u64,
    /// Key cap installed by [`KeyAggregator::set_budget`], if any.
    max_keys: Option<u64>,
    /// Byte cap installed by [`KeyAggregator::set_budget`], if any.
    max_bytes: Option<u64>,
    /// The most tracked bytes the table held before any of its flushes.
    peak_bytes: u64,
    /// Bounded dead-letter ring: the most recent quarantined
    /// `(key, assignment, weight)` poison elements, kept for diagnosis.
    dead_letters: VecDeque<(Key, usize, f64)>,
    /// Lifetime count of quarantined records (the ring only holds the
    /// most recent [`KeyAggregator::DEAD_LETTER_CAPACITY`]).
    quarantined_count: u64,
    /// The typed error that condemned the first quarantined record since
    /// the last [`KeyAggregator::take_quarantined`].
    first_quarantine_error: Option<CwsError>,
}

impl KeyAggregator {
    /// Initial index size; grows by doubling at 50% load.
    const INITIAL_TABLE: usize = 1024;

    /// Capacity of the dead-letter ring; older poison records are evicted
    /// (the lifetime count keeps counting).
    pub const DEAD_LETTER_CAPACITY: usize = 256;

    /// Sentinel slot marking a poison fragment in a stage.
    const QUARANTINED: u32 = u32::MAX;

    /// Creates an aggregator for `num_assignments` assignments.
    ///
    /// # Panics
    /// Panics if `num_assignments == 0` or `mode` is
    /// [`Aggregation::PreAggregated`] (there is nothing to aggregate).
    #[must_use]
    pub fn new(mode: Aggregation, num_assignments: usize, seed: u64) -> Self {
        assert!(num_assignments > 0, "at least one weight assignment is required");
        assert!(mode.is_aggregating(), "PreAggregated streams bypass the aggregation stage");
        Self {
            mode,
            hasher: KeyHasher::new(seed).derive(AGGREGATOR_STREAM),
            keys: Vec::new(),
            lanes: (0..num_assignments).map(|_| Vec::new()).collect(),
            table: vec![0; Self::INITIAL_TABLE],
            mask: (Self::INITIAL_TABLE - 1) as u64,
            slot_scratch: Vec::new(),
            absorbed: 0,
            max_keys: None,
            max_bytes: None,
            peak_bytes: 0,
            dead_letters: VecDeque::new(),
            quarantined_count: 0,
            first_quarantine_error: None,
        }
    }

    /// Installs a resource budget. Key/byte caps are enforced from the next
    /// push on, against what the table holds then, so installing a budget
    /// smaller than what the table already holds makes the *next* new-key
    /// push fail (the documented response is
    /// [`KeyAggregator::flush_columns`]).
    pub fn set_budget(&mut self, budget: &ResourceBudget) {
        self.max_keys = budget.max_keys();
        self.max_bytes = budget.max_bytes();
    }

    /// `true` when a key or byte cap is installed — gates the admission
    /// checks so ungoverned ingestion stays on the plain hot path.
    #[inline]
    fn governed(&self) -> bool {
        self.max_keys.is_some() || self.max_bytes.is_some()
    }

    /// Bytes of governed storage currently held: the dense key column and
    /// weight lanes plus the open-addressing index (the structures that
    /// grow with distinct keys). The constant-bounded dead-letter ring and
    /// scratch buffers are excluded. Deterministic — computed from element
    /// counts, not allocator internals.
    #[must_use]
    pub fn tracked_bytes(&self) -> u64 {
        self.tracked_bytes_at(self.keys.len(), self.table.len())
    }

    /// The high-water mark of tracked bytes over the aggregator's
    /// lifetime (survives [`KeyAggregator::flush_columns`]).
    #[must_use]
    pub fn peak_tracked_bytes(&self) -> u64 {
        self.peak_bytes.max(self.tracked_bytes())
    }

    /// Tracked bytes of `keys` keys under an index of `table_len` entries.
    fn tracked_bytes_at(&self, keys: usize, table_len: usize) -> u64 {
        8 * (1 + self.lanes.len() as u64) * keys as u64 + 4 * table_len as u64
    }

    /// Admission check for a stage that added keys: a breach of the key
    /// cap, then of the byte cap, is reported against what the table held
    /// before the stage.
    fn admit(&self, staged: &Staged) -> Result<()> {
        let check = |resource, used: u64, total: u64, limit: Option<u64>| match limit {
            Some(limit) if total > limit => Err(CwsError::BudgetExceeded {
                resource,
                used,
                requested: total.saturating_sub(used),
                limit,
            }),
            _ => Ok(()),
        };
        check("keys", staged.old_len as u64, self.keys.len() as u64, self.max_keys)?;
        let held_bytes = self.tracked_bytes_at(staged.old_len, staged.old_table_len);
        check("bytes", held_bytes, self.tracked_bytes(), self.max_bytes)
    }

    /// Number of distinct keys currently held.
    #[must_use]
    pub fn num_keys(&self) -> usize {
        self.keys.len()
    }

    /// Number of accepted pushes (elements plus records).
    #[must_use]
    pub fn absorbed(&self) -> u64 {
        self.absorbed
    }

    /// The dense slot of `key`, inserting a zero-weight row if absent.
    #[inline]
    fn slot_of(&mut self, key: Key) -> usize {
        let mut position = self.hasher.hash_u64(key) & self.mask;
        loop {
            let entry = self.table[position as usize];
            if entry == 0 {
                return self.insert(key, position);
            }
            let slot = (entry - 1) as usize;
            if self.keys[slot] == key {
                return slot;
            }
            position = (position + 1) & self.mask;
        }
    }

    /// Inserts `key` at the probed empty `position`, growing first if the
    /// index is at half load.
    #[cold]
    fn insert(&mut self, key: Key, position: u64) -> usize {
        if (self.keys.len() + 1) * 2 > self.table.len() {
            self.grow();
            return self.slot_of(key);
        }
        let slot = self.keys.len();
        assert!(slot < u32::MAX as usize, "aggregation table exceeds u32 slot indices");
        self.keys.push(key);
        for lane in &mut self.lanes {
            lane.push(0.0);
        }
        self.table[position as usize] = (slot + 1) as u32;
        slot
    }

    /// Doubles the index and re-links every dense slot.
    fn grow(&mut self) {
        self.rebuild_table(self.table.len() * 2);
    }

    /// Rebuilds the index at `new_len` entries and re-links every dense
    /// slot (used by growth, flushes and aborted stages).
    fn rebuild_table(&mut self, new_len: usize) {
        self.mask = (new_len - 1) as u64;
        self.table.clear();
        self.table.resize(new_len, 0);
        for (slot, &key) in self.keys.iter().enumerate() {
            let mut position = self.hasher.hash_u64(key) & self.mask;
            while self.table[position as usize] != 0 {
                position = (position + 1) & self.mask;
            }
            self.table[position as usize] = (slot + 1) as u32;
        }
    }

    /// Aborts a stage: every key it inserted past its first `old_len` is
    /// removed, and the index is rebuilt at the length inserting only
    /// those keys grows `old_table_len` to. The table is then exactly as
    /// absorbing just the kept keys would have left it — as it was before
    /// the stage, for a stage aborted whole. An aborted stage combined
    /// nothing, so nothing else needs undoing. `#[cold]` — this is the
    /// cap-breach, overflow and failed-journal-sync path.
    #[cold]
    pub(crate) fn abort(&mut self, staged: Staged) {
        if self.keys.len() == staged.old_len {
            return;
        }
        let mut table_len = staged.old_table_len;
        while staged.old_len * 2 > table_len {
            table_len *= 2;
        }
        self.keys.truncate(staged.old_len);
        for lane in &mut self.lanes {
            lane.truncate(staged.old_len);
        }
        self.rebuild_table(table_len);
    }

    /// Diverts one poison element to the dead-letter ring.
    #[cold]
    fn quarantine(&mut self, key: Key, assignment: usize, weight: f64, error: CwsError) {
        if self.dead_letters.len() == Self::DEAD_LETTER_CAPACITY {
            self.dead_letters.pop_front();
        }
        self.dead_letters.push_back((key, assignment, weight));
        self.quarantined_count += 1;
        if self.first_quarantine_error.is_none() {
            self.first_quarantine_error = Some(error);
        }
    }

    /// The quarantine report since the last
    /// [`KeyAggregator::take_quarantined`], or `None` when every offered
    /// record was absorbed. The invariant the batched paths maintain:
    /// `quarantined().count + absorbed() == offered`.
    #[must_use]
    pub fn quarantined(&self) -> Option<QuarantinedRecords> {
        let first_error = self.first_quarantine_error.clone()?;
        Some(QuarantinedRecords { count: self.quarantined_count, first_error })
    }

    /// Takes (and clears) the quarantine report together with the retained
    /// dead letters — the most recent
    /// [`KeyAggregator::DEAD_LETTER_CAPACITY`] poison
    /// `(key, assignment, weight)` elements, oldest first.
    pub fn take_quarantined(&mut self) -> Option<QuarantineDrain> {
        let report = self.quarantined()?;
        self.quarantined_count = 0;
        self.first_quarantine_error = None;
        Some((report, self.dead_letters.drain(..).collect()))
    }

    /// Flush-early: drains the finished slots into a [`RecordColumns`]
    /// batch (key first-seen order, zero-copy) and resets the table to its
    /// initial size, releasing the governed bytes/keys — the documented
    /// spill path after a [`CwsError::BudgetExceeded`] rejection. The
    /// lifetime counters ([`KeyAggregator::absorbed`], quarantine,
    /// [peak bytes](KeyAggregator::peak_tracked_bytes)) survive the flush.
    ///
    /// A key whose fragments straddle a flush boundary reaches the sampler
    /// once per flush with partial aggregates; see the module docs for the
    /// exactness contract.
    pub fn flush_columns(&mut self) -> RecordColumns {
        self.peak_bytes = self.peak_tracked_bytes();
        let keys = std::mem::take(&mut self.keys);
        let lanes: Vec<Vec<f64>> = self.lanes.iter_mut().map(std::mem::take).collect();
        self.rebuild_table(Self::INITIAL_TABLE);
        RecordColumns::from_parts(keys, lanes)
    }

    /// Combines one fragment with a slot cell's value. `None` when a sum
    /// overflows to `+∞` — the one way valid inputs can produce a weight
    /// the samplers would reject, caught here so the error names the real
    /// cause instead of surfacing as a confusing invalid-weight failure at
    /// finalize. A max of two finite non-negative values is always finite,
    /// so `MaxByKey` cannot fail.
    #[inline]
    fn combined(mode: Aggregation, cell: f64, weight: f64) -> Option<f64> {
        match mode {
            Aggregation::SumByKey => Some(cell + weight).filter(|&sum| sum < f64::INFINITY),
            Aggregation::MaxByKey => Some(cell.max(weight)),
            Aggregation::PreAggregated => unreachable!("constructor rejects PreAggregated"),
        }
    }

    /// The error reported when a slot's running sum overflows `f64`.
    #[cold]
    fn overflow_error(key: Key, assignment: usize) -> CwsError {
        CwsError::InvalidParameter {
            name: "weight",
            message: format!(
                "key {key}, assignment {assignment}: the aggregated sum of fragments overflowed \
                 f64 (reached +∞); the slot keeps its last finite value"
            ),
        }
    }

    /// Stages `push`, the first half of every absorb: checks its arity,
    /// validates it, resolves the key of every valid fragment to its dense
    /// slot (new keys become zero-weight rows) and settles admission once.
    /// Nothing is combined; finish with [`commit`](Self::commit) on the same
    /// push or undo with [`abort`](Self::abort).
    ///
    /// Validation and resolution are separate passes, so the probe loop
    /// has the memory system to itself and consecutive probes overlap. A
    /// batch's poison is held in the stage for the commit to quarantine; a
    /// scalar push's poison is its error.
    ///
    /// # Errors
    /// A wrong arity, a scalar push's invalid fragment, or — only when the
    /// push adds a key — a [`CwsError::BudgetExceeded`] breach, with the
    /// table exactly as before.
    pub(crate) fn stage(&mut self, push: Push<'_>) -> Result<Staged> {
        let width = match push {
            Push::Record(_, weights) => weights.len(),
            Push::Columns(columns) => columns.num_assignments(),
            Push::Element(..) | Push::Elements(_) => self.lanes.len(),
        };
        check_arity(self.lanes.len(), width)?;
        let mut staged = Staged {
            old_len: self.keys.len(),
            old_table_len: self.table.len(),
            poison: Vec::new(),
        };
        let mut slots = std::mem::take(&mut self.slot_scratch);
        slots.clear();
        let poison = &mut staged.poison;
        match push {
            Push::Element(key, assignment, weight) => {
                self.screen_elements(&[(key, assignment, weight)], &mut slots, poison);
                self.resolve(&mut slots, [key]);
            }
            Push::Elements(elements) => {
                self.screen_elements(elements, &mut slots, poison);
                self.resolve(&mut slots, elements.iter().map(|&(key, ..)| key));
            }
            Push::Record(key, weights) => {
                self.screen_rows(&[key], |_, assignment| weights[assignment], &mut slots, poison);
                self.resolve(&mut slots, [key]);
            }
            Push::Columns(columns) => {
                let weight = |row, assignment| columns.lane(assignment)[row];
                self.screen_rows(columns.keys(), weight, &mut slots, poison);
                self.resolve(&mut slots, columns.keys().iter().copied());
            }
        }
        self.slot_scratch = slots;
        if matches!(push, Push::Element(..) | Push::Record(..)) {
            if let Some((.., error)) = staged.poison.pop() {
                return Err(error);
            }
        }
        if self.governed() && self.keys.len() > staged.old_len {
            if let Err(error) = self.admit(&staged) {
                self.abort(staged);
                return Err(error);
            }
        }
        Ok(staged)
    }

    /// Validates elements: each gets slot 0, or the quarantine sentinel and
    /// a poison entry naming its out-of-range assignment or invalid weight.
    fn screen_elements(
        &self,
        elements: &[(Key, usize, f64)],
        slots: &mut Vec<u32>,
        poison: &mut Vec<Poison>,
    ) {
        slots.reserve(elements.len());
        for &(key, assignment, weight) in elements {
            let error = if assignment >= self.lanes.len() {
                CwsError::AssignmentOutOfRange { index: assignment, available: self.lanes.len() }
            } else if weight_is_valid(weight) {
                slots.push(0);
                continue;
            } else {
                invalid_weight_error(key, assignment, weight)
            };
            poison.push((key, assignment, weight, error));
            slots.push(Self::QUARANTINED);
        }
    }

    /// Validates rows (`weight(row, assignment)`): a row with an invalid
    /// weight gets the quarantine sentinel, its first bad lane the poison
    /// entry; every other row gets slot 0.
    fn screen_rows(
        &self,
        keys: &[Key],
        weight: impl Fn(usize, usize) -> f64,
        slots: &mut Vec<u32>,
        poison: &mut Vec<Poison>,
    ) {
        slots.reserve(keys.len());
        for (row, &key) in keys.iter().enumerate() {
            match (0..self.lanes.len()).find(|&a| !weight_is_valid(weight(row, a))) {
                Some(a) => {
                    let bad = weight(row, a);
                    poison.push((key, a, bad, invalid_weight_error(key, a, bad)));
                    slots.push(Self::QUARANTINED);
                }
                None => slots.push(0),
            }
        }
    }

    /// Resolves the key of every fragment not marked poison to its dense
    /// slot — the tight probe loop.
    #[inline]
    fn resolve(&mut self, slots: &mut [u32], keys: impl IntoIterator<Item = Key>) {
        for (slot, key) in slots.iter_mut().zip(keys) {
            if *slot != Self::QUARANTINED {
                *slot = self.slot_of(key) as u32;
            }
        }
    }

    /// Commits a stage of `push` (the push it was staged from): quarantines
    /// its poison, then combines the valid fragments into the lanes in
    /// order and counts them absorbed.
    ///
    /// # Errors
    /// A sum overflow. The fragments before the refused one stay combined;
    /// the keys only later fragments brought are removed again, so the
    /// table is exactly what absorbing the fragments one at a time would
    /// have left at the refusal.
    pub(crate) fn commit(&mut self, mut staged: Staged, push: Push<'_>) -> Result<()> {
        for (key, assignment, weight, error) in std::mem::take(&mut staged.poison) {
            self.quarantine(key, assignment, weight, error);
        }
        let slots = std::mem::take(&mut self.slot_scratch);
        let refused = match push {
            Push::Element(key, assignment, weight) => {
                self.combine_elements(&[(key, assignment, weight)], &slots)
            }
            Push::Elements(elements) => self.combine_elements(elements, &slots),
            Push::Record(key, weights) => self.combine_rows(&[key], |_, a| weights[a], &slots),
            Push::Columns(columns) => {
                self.combine_rows(columns.keys(), |row, a| columns.lane(a)[row], &slots)
            }
        };
        let result = match refused {
            None => Ok(()),
            Some((index, error)) => {
                // Slots are numbered in first-seen order, so the prefix
                // brought every key up to its largest slot.
                let prefix = slots[..index].iter().filter(|&&slot| slot != Self::QUARANTINED);
                let kept = prefix.map(|&slot| slot as usize + 1).fold(staged.old_len, usize::max);
                self.abort(Staged { old_len: kept, ..staged });
                Err(error)
            }
        };
        self.slot_scratch = slots;
        result
    }

    /// Combines staged elements in order; the index and error of the first
    /// one whose sum overflows, which is left uncombined.
    #[inline]
    fn combine_elements(
        &mut self,
        elements: &[(Key, usize, f64)],
        slots: &[u32],
    ) -> Option<(usize, CwsError)> {
        for (index, (&(key, assignment, weight), &slot)) in elements.iter().zip(slots).enumerate() {
            if slot == Self::QUARANTINED {
                continue;
            }
            let cell = &mut self.lanes[assignment][slot as usize];
            match Self::combined(self.mode, *cell, weight) {
                Some(value) => *cell = value,
                None => return Some((index, Self::overflow_error(key, assignment))),
            }
            self.absorbed += 1;
        }
        None
    }

    /// Combines staged rows in order, each lane-wise and whole: a row checks
    /// every lane's sum before it writes any lane. The index and error of
    /// the first row with an overflowing lane, which is left uncombined.
    fn combine_rows(
        &mut self,
        keys: &[Key],
        weight: impl Fn(usize, usize) -> f64,
        slots: &[u32],
    ) -> Option<(usize, CwsError)> {
        let mode = self.mode;
        for (row, (&key, &slot)) in keys.iter().zip(slots).enumerate() {
            if slot == Self::QUARANTINED {
                continue;
            }
            let slot = slot as usize;
            let sum = |a: usize, lane: &[f64]| Self::combined(mode, lane[slot], weight(row, a));
            if let Some(a) = (0..self.lanes.len()).find(|&a| sum(a, &self.lanes[a]).is_none()) {
                return Some((row, Self::overflow_error(key, a)));
            }
            for (a, lane) in self.lanes.iter_mut().enumerate() {
                lane[slot] = sum(a, lane).expect("every lane's sum was checked");
            }
            self.absorbed += 1;
        }
        None
    }

    /// Stages `push` and commits it: the one path behind every `absorb_*`
    /// method.
    #[inline]
    fn absorb(&mut self, push: Push<'_>) -> Result<()> {
        let staged = self.stage(push)?;
        self.commit(staged, push)
    }

    /// Absorbs one element: a fragment of `key`'s weight under `assignment`.
    ///
    /// # Errors
    /// Returns [`CwsError::AssignmentOutOfRange`] for an out-of-range
    /// assignment, an invalid-weight error for a NaN, infinite or negative
    /// fragment, an overflow error if the slot's running sum would reach
    /// `+∞`, and — under an installed [`ResourceBudget`] — a
    /// [`CwsError::BudgetExceeded`] when `key` is *new* and admitting it
    /// would breach the key/byte cap (flush with
    /// [`KeyAggregator::flush_columns`] and retry). A refused element
    /// absorbs nothing and leaves the table exactly as it was (the module
    /// docs' refusal rule).
    #[inline]
    pub fn absorb_element(&mut self, key: Key, assignment: usize, weight: f64) -> Result<()> {
        self.absorb(Push::Element(key, assignment, weight))
    }

    /// Absorbs a batch of elements — the high-throughput form of
    /// [`KeyAggregator::absorb_element`], and bit-identical to absorbing
    /// each element in order. Every key is resolved to its slot in one
    /// tight probe pass before any weight is combined.
    ///
    /// # Errors
    /// Invalid elements (NaN/∞/negative weight, out-of-range assignment)
    /// do not fail the batch: they are diverted **record-granularly** to
    /// the dead-letter ring (see [`KeyAggregator::quarantined`]) while
    /// every valid element ingests bit-exactly — identical to absorbing
    /// the valid elements alone. Under an installed [`ResourceBudget`], a
    /// batch whose new keys would breach the key/byte cap is refused
    /// *whole* with [`CwsError::BudgetExceeded`] and the table (and the
    /// quarantine counters) exactly as before the call, so the same batch
    /// can be re-offered after a flush. A sum overflow refuses the batch
    /// at the overflowing element, keeping exactly what absorbing the
    /// elements one at a time would have kept up to it (the module docs'
    /// refusal rule).
    pub fn absorb_elements(&mut self, elements: &[(Key, usize, f64)]) -> Result<()> {
        self.absorb(Push::Elements(elements))
    }

    /// Absorbs one record-shaped fragment: a key with a full weight vector,
    /// combined lane-wise (a record is one fragment per assignment).
    ///
    /// # Errors
    /// Returns a typed error for a vector whose length differs from the
    /// number of assignments, an invalid-weight error for a NaN, infinite
    /// or negative entry, an overflow error if a lane's running sum would
    /// reach `+∞`, or — under an installed [`ResourceBudget`] —
    /// [`CwsError::BudgetExceeded`] when admitting a new key would breach
    /// the cap (flush and retry). Every lane's sum is checked before any
    /// lane is written, so a refused record absorbs nothing and leaves the
    /// table exactly as it was (the module docs' refusal rule).
    #[inline]
    pub fn absorb_record(&mut self, key: Key, weights: &[f64]) -> Result<()> {
        self.absorb(Push::Record(key, weights))
    }

    /// Absorbs a structure-of-arrays batch of record-shaped fragments.
    ///
    /// # Errors
    /// A record with any invalid weight (NaN/∞/negative) is diverted
    /// **whole** to the dead-letter ring (its first bad lane recorded as
    /// the cause) while the remaining records ingest bit-exactly — see
    /// [`KeyAggregator::quarantined`]. A batch whose assignment count
    /// differs from the aggregator's, or — under an installed
    /// [`ResourceBudget`] — whose new keys would breach the cap, is refused
    /// whole with a typed error and the table as before the call. A row
    /// whose sum overflows in any lane refuses the batch there, keeping
    /// exactly what absorbing the rows one at a time would have kept up to
    /// it (the module docs' refusal rule).
    pub fn absorb_columns(&mut self, columns: &RecordColumns) -> Result<()> {
        self.absorb(Push::Columns(columns))
    }

    /// Finishes aggregation, handing the dense storage over as one
    /// [`RecordColumns`] batch without copying. Records appear in key
    /// first-seen order, each key once. A [`Pipeline`](crate::Pipeline)
    /// seal passes it through the hand-off pre-filter, which offers the
    /// sampler only the rows that can still be sampled and relies on the
    /// keys being distinct.
    #[must_use]
    pub fn into_columns(self) -> RecordColumns {
        RecordColumns::from_parts(self.keys, self.lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_and_maxes_per_slot() {
        let mut sum = KeyAggregator::new(Aggregation::SumByKey, 2, 7);
        let mut max = KeyAggregator::new(Aggregation::MaxByKey, 2, 7);
        for aggregator in [&mut sum, &mut max] {
            aggregator.absorb_element(10, 0, 1.5).unwrap();
            aggregator.absorb_element(11, 1, 4.0).unwrap();
            aggregator.absorb_element(10, 0, 2.5).unwrap();
            aggregator.absorb_element(10, 1, 0.5).unwrap();
            assert_eq!(aggregator.num_keys(), 2);
            assert_eq!(aggregator.absorbed(), 4);
        }
        let sum = sum.into_columns();
        assert_eq!(sum.keys(), &[10, 11]);
        assert_eq!(sum.lane(0), &[4.0, 0.0]);
        assert_eq!(sum.lane(1), &[0.5, 4.0]);
        let max = max.into_columns();
        assert_eq!(max.lane(0), &[2.5, 0.0]);
        assert_eq!(max.lane(1), &[0.5, 4.0]);
    }

    #[test]
    fn record_and_column_fragments_combine_lane_wise() {
        let mut aggregator = KeyAggregator::new(Aggregation::SumByKey, 3, 1);
        aggregator.absorb_record(5, &[1.0, 2.0, 3.0]).unwrap();
        let mut batch = RecordColumns::new(3);
        batch.push(5, &[0.5, 0.0, 1.0]);
        batch.push(6, &[9.0, 9.0, 9.0]);
        aggregator.absorb_columns(&batch).unwrap();
        assert_eq!(aggregator.absorbed(), 3);
        let columns = aggregator.into_columns();
        assert_eq!(columns.keys(), &[5, 6]);
        assert_eq!(columns.lane(0), &[1.5, 9.0]);
        assert_eq!(columns.lane(2), &[4.0, 9.0]);
    }

    #[test]
    fn growth_preserves_every_slot() {
        let mut aggregator = KeyAggregator::new(Aggregation::SumByKey, 1, 3);
        // Far beyond the initial table so the index doubles several times;
        // scattered keys exercise probe chains before and after growth.
        for round in 0..3u64 {
            for key in 0..5000u64 {
                aggregator
                    .absorb_element(key * 2_654_435_761, 0, (round + key % 3) as f64)
                    .unwrap();
            }
        }
        assert_eq!(aggregator.num_keys(), 5000);
        let columns = aggregator.into_columns();
        for (index, &key) in columns.keys().iter().enumerate() {
            let original = key.wrapping_div(2_654_435_761);
            let expected = (0..3).map(|round| (round + original % 3) as f64).sum::<f64>();
            assert_eq!(columns.lane(0)[index], expected);
        }
    }

    #[test]
    fn rejects_bad_elements_with_typed_errors() {
        let mut aggregator = KeyAggregator::new(Aggregation::SumByKey, 2, 1);
        assert!(matches!(
            aggregator.absorb_element(1, 2, 1.0),
            Err(CwsError::AssignmentOutOfRange { index: 2, available: 2 })
        ));
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            assert!(aggregator.absorb_element(1, 0, bad).is_err());
            assert!(aggregator.absorb_record(1, &[1.0, bad]).is_err());
        }
        assert_eq!(aggregator.absorbed(), 0);
        assert_eq!(aggregator.num_keys(), 0, "rejected pushes leave no partial rows");
    }

    #[test]
    fn batched_elements_match_scalar_absorption_bit_for_bit() {
        let elements: Vec<(u64, usize, f64)> = (0..4000u64)
            .map(|i| (i % 613, (i % 3) as usize, ((i % 97) as f64) * 0.37 + 0.01))
            .collect();
        for mode in [Aggregation::SumByKey, Aggregation::MaxByKey] {
            let mut scalar = KeyAggregator::new(mode, 3, 9);
            for &(key, assignment, weight) in &elements {
                scalar.absorb_element(key, assignment, weight).unwrap();
            }
            let mut batched = KeyAggregator::new(mode, 3, 9);
            for batch in elements.chunks(257) {
                batched.absorb_elements(batch).unwrap();
            }
            assert_eq!(batched.absorbed(), 4000);
            let (scalar, batched) = (scalar.into_columns(), batched.into_columns());
            assert_eq!(scalar.keys(), batched.keys());
            for assignment in 0..3 {
                for (a, b) in scalar.lane(assignment).iter().zip(batched.lane(assignment)) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{mode:?}");
                }
            }
        }
    }

    #[test]
    fn batched_poison_is_quarantined_record_granularly() {
        let mut aggregator = KeyAggregator::new(Aggregation::SumByKey, 2, 1);
        aggregator
            .absorb_elements(&[(1, 0, 1.0), (2, 5, 1.0), (3, 0, 2.0), (4, 1, f64::NAN)])
            .unwrap();
        assert_eq!(aggregator.absorbed(), 2, "valid elements must survive poison neighbours");
        let report = aggregator.quarantined().expect("poison must be reported");
        assert_eq!(report.count, 2);
        assert!(
            matches!(report.first_error, CwsError::AssignmentOutOfRange { index: 5, available: 2 }),
            "{report:?}"
        );
        assert_eq!(report.count + aggregator.absorbed(), 4, "offered == absorbed + quarantined");

        // The surviving elements aggregated exactly as a clean stream would.
        let mut clean = KeyAggregator::new(Aggregation::SumByKey, 2, 1);
        clean.absorb_elements(&[(1, 0, 1.0), (3, 0, 2.0)]).unwrap();
        let (dirty, clean) = (aggregator.clone().into_columns(), clean.into_columns());
        assert_eq!(dirty, clean);

        // Draining hands back the dead letters and clears the report.
        let (taken, letters) = aggregator.take_quarantined().unwrap();
        assert_eq!(taken.count, 2);
        assert_eq!(letters[0], (2, 5, 1.0));
        assert_eq!((letters[1].0, letters[1].1), (4, 1));
        assert!(letters[1].2.is_nan());
        assert!(aggregator.quarantined().is_none());
    }

    #[test]
    fn column_batches_quarantine_poison_rows_whole() {
        let mut aggregator = KeyAggregator::new(Aggregation::SumByKey, 2, 1);
        let mut batch = RecordColumns::new(2);
        batch.push(1, &[1.0, 2.0]);
        batch.push(2, &[1.0, -3.0]); // poison row: negative weight in lane 1
        batch.push(3, &[4.0, 5.0]);
        aggregator.absorb_columns(&batch).unwrap();
        assert_eq!(aggregator.absorbed(), 2);
        let report = aggregator.quarantined().unwrap();
        assert_eq!(report.count, 1);
        assert!(report.first_error.to_string().contains("key 2"), "{}", report.first_error);
        let columns = aggregator.into_columns();
        assert_eq!(columns.keys(), &[1, 3], "the poison row must not leave a zero-weight key");
        assert!(columns.validate().is_ok());
    }

    #[test]
    fn dead_letter_ring_is_bounded_while_the_count_keeps_counting() {
        let mut aggregator = KeyAggregator::new(Aggregation::SumByKey, 1, 1);
        let poison: Vec<(u64, usize, f64)> = (0..600u64).map(|i| (i, 0usize, f64::NAN)).collect();
        aggregator.absorb_elements(&poison).unwrap();
        assert_eq!(aggregator.absorbed(), 0);
        let (report, letters) = aggregator.take_quarantined().unwrap();
        assert_eq!(report.count, 600);
        assert_eq!(letters.len(), KeyAggregator::DEAD_LETTER_CAPACITY);
        assert_eq!(letters.last().unwrap().0, 599, "the ring keeps the most recent letters");
    }

    #[test]
    fn key_cap_of_one_admits_one_key_and_updates_to_it() {
        let budget = ResourceBudget::unlimited().with_max_keys(1);
        let mut aggregator = KeyAggregator::new(Aggregation::SumByKey, 1, 1);
        aggregator.set_budget(&budget);
        aggregator.absorb_element(10, 0, 1.0).unwrap();
        aggregator.absorb_element(10, 0, 2.0).unwrap(); // update: no new admission
        let err = aggregator.absorb_element(11, 0, 1.0).unwrap_err();
        assert!(matches!(err, CwsError::BudgetExceeded { resource: "keys", limit: 1, .. }));
        assert_eq!(aggregator.num_keys(), 1, "a rejected key must not be inserted");
        assert_eq!(aggregator.absorbed(), 2);
        // Flush-early frees the slot; the rejected key now fits.
        let flushed = aggregator.flush_columns();
        assert_eq!(flushed.keys(), &[10]);
        assert_eq!(flushed.lane(0), &[3.0]);
        aggregator.absorb_element(11, 0, 1.0).unwrap();
        assert_eq!(aggregator.num_keys(), 1);
    }

    #[test]
    fn key_cap_exactly_at_key_count_is_not_a_breach() {
        let budget = ResourceBudget::unlimited().with_max_keys(5);
        let mut aggregator = KeyAggregator::new(Aggregation::SumByKey, 1, 1);
        aggregator.set_budget(&budget);
        for key in 0..5u64 {
            aggregator.absorb_element(key, 0, 1.0).unwrap();
        }
        assert_eq!(aggregator.num_keys(), 5, "cap == key count must admit every key");
        for key in 0..5u64 {
            aggregator.absorb_element(key, 0, 1.0).unwrap(); // updates still fine
        }
        assert!(aggregator.absorb_element(5, 0, 1.0).is_err());
    }

    #[test]
    fn capped_batch_rejection_is_atomic_and_retryable_after_flush() {
        let budget = ResourceBudget::unlimited().with_max_keys(3);
        let mut aggregator = KeyAggregator::new(Aggregation::SumByKey, 1, 1);
        aggregator.set_budget(&budget);
        aggregator.absorb_elements(&[(1, 0, 1.0), (2, 0, 1.0)]).unwrap();
        let batch = [(2, 0, 5.0), (3, 0, 1.0), (4, 0, 1.0), (0, 0, f64::NAN)];
        let err = aggregator.absorb_elements(&batch).unwrap_err();
        assert!(matches!(err, CwsError::BudgetExceeded { resource: "keys", limit: 3, .. }));
        // All-or-nothing: no keys, weights, counts or quarantines applied.
        assert_eq!(aggregator.num_keys(), 2);
        assert_eq!(aggregator.absorbed(), 2);
        assert!(aggregator.quarantined().is_none(), "a rejected batch must not quarantine");
        // After a flush the identical batch is admitted; the poison record
        // is quarantined and the valid ones ingest.
        let flushed = aggregator.flush_columns();
        assert_eq!(flushed.keys(), &[1, 2]);
        aggregator.absorb_elements(&batch).unwrap();
        assert_eq!(aggregator.num_keys(), 3);
        assert_eq!(aggregator.quarantined().unwrap().count, 1);
    }

    #[test]
    fn flush_early_then_continue_is_bit_exact_when_key_phases_are_disjoint() {
        // Phase 1 keys 0..40, phase 2 keys 40..80 — no key straddles the
        // flush boundary, so capped (flush-early) and uncapped runs must
        // produce identical column batches once concatenated.
        let elements: Vec<(u64, usize, f64)> = (0..800u64)
            .map(|i| {
                let phase = i / 400;
                (phase * 40 + i % 40, (i % 2) as usize, ((i % 13) + 1) as f64 * 0.25)
            })
            .collect();
        let mut uncapped = KeyAggregator::new(Aggregation::SumByKey, 2, 9);
        uncapped.absorb_elements(&elements).unwrap();
        let reference = uncapped.into_columns();

        let mut capped = KeyAggregator::new(Aggregation::SumByKey, 2, 9);
        capped.set_budget(&ResourceBudget::unlimited().with_max_keys(40));
        let mut flushed_batches: Vec<RecordColumns> = Vec::new();
        // Chunks of 40 divide the 400-element phases, so no chunk (and
        // therefore no flush) straddles a phase boundary.
        for chunk in elements.chunks(40) {
            match capped.absorb_elements(chunk) {
                Ok(()) => {}
                Err(CwsError::BudgetExceeded { .. }) => {
                    flushed_batches.push(capped.flush_columns());
                    capped.absorb_elements(chunk).unwrap();
                }
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        flushed_batches.push(capped.into_columns());
        assert!(flushed_batches.len() > 1, "the cap must actually force a flush");
        let mut recombined = RecordColumns::new(2);
        for batch in &flushed_batches {
            recombined.extend_from(batch, 0, batch.len());
        }
        assert_eq!(recombined.keys(), reference.keys());
        for assignment in 0..2 {
            for (a, b) in recombined.lane(assignment).iter().zip(reference.lane(assignment)) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn byte_budget_caps_tracked_growth() {
        // Enough for the initial index (4 KiB) plus a few dozen keys of
        // dense storage, but far below 10k keys.
        let budget = ResourceBudget::unlimited().with_max_bytes(8 * 1024);
        let mut aggregator = KeyAggregator::new(Aggregation::SumByKey, 2, 1);
        aggregator.set_budget(&budget);
        let mut admitted = 0u64;
        let mut rejected = false;
        for key in 0..10_000u64 {
            match aggregator.absorb_element(key, 0, 1.0) {
                Ok(()) => admitted += 1,
                Err(CwsError::BudgetExceeded { resource: "bytes", .. }) => {
                    rejected = true;
                    break;
                }
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        assert!(rejected, "an 8 KiB budget cannot hold 10k keys");
        assert!(admitted > 0, "the budget must admit keys up to the cap");
        assert!(aggregator.tracked_bytes() <= 8 * 1024);
        assert_eq!(aggregator.peak_tracked_bytes(), aggregator.tracked_bytes());
    }

    #[test]
    fn chunked_governed_batches_tolerate_one_element_chunks() {
        // Chunk size 1 exercises the batched admission path at the same
        // granularity as the scalar one; both must agree exactly.
        let budget = ResourceBudget::unlimited().with_max_keys(4);
        let mut scalar = KeyAggregator::new(Aggregation::MaxByKey, 1, 2);
        scalar.set_budget(&budget);
        let mut batched = KeyAggregator::new(Aggregation::MaxByKey, 1, 2);
        batched.set_budget(&budget);
        for key in 0..6u64 {
            let s = scalar.absorb_element(key, 0, key as f64);
            let b = batched.absorb_elements(&[(key, 0, key as f64)]);
            assert_eq!(s.is_ok(), b.is_ok(), "key {key}");
        }
        assert_eq!(scalar.num_keys(), 4);
        let (scalar, batched) = (scalar.into_columns(), batched.into_columns());
        assert_eq!(scalar, batched);
    }

    #[test]
    fn sum_overflow_is_a_typed_error_naming_the_cause() {
        let mut aggregator = KeyAggregator::new(Aggregation::SumByKey, 2, 1);
        aggregator.absorb_element(7, 0, f64::MAX).unwrap();
        let err = aggregator.absorb_element(7, 0, f64::MAX).unwrap_err();
        assert!(err.to_string().contains("overflowed"), "{err}");
        assert_eq!(aggregator.absorbed(), 1, "the overflowing fragment is not counted");
        // The slot keeps its last finite value, so the table stays valid
        // and a finalize after the error still feeds the samplers.
        let columns = aggregator.into_columns();
        assert_eq!(columns.lane(0), &[f64::MAX]);
        assert!(columns.validate().is_ok());

        // MaxByKey cannot overflow: the max of finite inputs is finite.
        let mut aggregator = KeyAggregator::new(Aggregation::MaxByKey, 1, 1);
        aggregator.absorb_element(7, 0, f64::MAX).unwrap();
        aggregator.absorb_element(7, 0, f64::MAX).unwrap();
        assert_eq!(aggregator.absorbed(), 2);

        // A record, or the same row as a one-row column batch, whose later
        // lane overflows is refused whole: no lane is combined.
        let mut aggregator = KeyAggregator::new(Aggregation::SumByKey, 2, 1);
        aggregator.absorb_record(1, &[1.0, f64::MAX]).unwrap();
        let before = state(&aggregator);
        let err = aggregator.absorb_record(1, &[2.0, f64::MAX]).unwrap_err();
        assert!(err.to_string().contains("assignment 1"), "{err}");
        assert_eq!(state(&aggregator), before, "a refused record left a trace");
        let mut row = RecordColumns::new(2);
        row.push(1, &[2.0, f64::MAX]);
        assert!(aggregator.absorb_columns(&row).is_err());
        assert_eq!(state(&aggregator), before, "a refused row left a trace");

        // An element batch refused mid-way leaves what element-at-a-time
        // absorption up to the first error leaves: no zero-weight rows of
        // the keys after it, and the index no longer than those keys need.
        let held = [(1, 0, f64::MAX)];
        let fresh: Vec<(Key, usize, f64)> = (2..600u64).map(|key| (key, 1, 1.0)).collect();
        let later: Vec<(Key, usize, f64)> = (600..1200u64).map(|key| (key, 0, 1.0)).collect();
        let batches = [
            [&held[..], &[(2, 0, 5.0), (3, 0, 1.0)]].concat(),
            [&fresh[..], &held[..], &later[..]].concat(),
        ];
        for batch in batches {
            let mut batched = KeyAggregator::new(Aggregation::SumByKey, 2, 1);
            batched.absorb_elements(&held).unwrap();
            let mut scalar = batched.clone();
            assert!(batched.absorb_elements(&batch).is_err());
            for &(key, assignment, weight) in &batch {
                if scalar.absorb_element(key, assignment, weight).is_err() {
                    break;
                }
            }
            assert_eq!(state(&batched), state(&scalar), "{} elements", batch.len());
        }
    }

    /// Everything observable about an aggregator (scratch buffers
    /// excluded), weights by bit pattern.
    fn state(aggregator: &KeyAggregator) -> String {
        let bits = |lane: &Vec<f64>| lane.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        let lanes: Vec<Vec<u64>> = aggregator.lanes.iter().map(bits).collect();
        let letters: Vec<(Key, usize, u64)> =
            aggregator.dead_letters.iter().map(|&(k, a, w)| (k, a, w.to_bits())).collect();
        format!(
            "{:?}",
            (
                (&aggregator.keys, lanes, &aggregator.table, aggregator.mask, aggregator.absorbed),
                (letters, aggregator.quarantined_count, &aggregator.first_quarantine_error),
                (aggregator.max_keys, aggregator.max_bytes, aggregator.peak_bytes),
            )
        )
    }

    /// A seeded element batch over `keys` keys: mostly valid, one element
    /// in sixteen poison (NaN, +∞, negative, or an out-of-range
    /// assignment).
    fn seeded_elements(seed: u64, len: usize, keys: u64) -> Vec<(Key, usize, f64)> {
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        (0..len)
            .map(|_| {
                let (r, key) = (next(), next() % keys);
                let weight = (r >> 11) as f64 / (1u64 << 53) as f64 * 100.0;
                match r % 64 {
                    0 => (key, 0, f64::NAN),
                    1 => (key, 1, f64::INFINITY),
                    2 => (key, 2, -weight - 1.0),
                    3 => (key, 3, weight),
                    _ => (key, (r % 3) as usize, weight),
                }
            })
            .collect()
    }

    /// The same elements as a column batch of whole records (rows with a
    /// poison lane included).
    fn as_columns(elements: &[(Key, usize, f64)]) -> RecordColumns {
        let mut columns = RecordColumns::new(3);
        for &(key, assignment, weight) in elements {
            let mut row = [weight * 0.5 + 1.0, 1.0, weight];
            row[assignment % 3] = weight;
            columns.push(key, &row);
        }
        columns
    }

    fn budgets() -> [Option<ResourceBudget>; 3] {
        [
            None,
            Some(ResourceBudget::unlimited().with_max_keys(1500)),
            Some(ResourceBudget::unlimited().with_max_bytes(96 * 1024)),
        ]
    }

    fn aggregator(mode: Aggregation, budget: &Option<ResourceBudget>) -> KeyAggregator {
        let mut aggregator = KeyAggregator::new(mode, 3, 21);
        if let Some(budget) = budget {
            aggregator.set_budget(budget);
        }
        aggregator
    }

    /// Element-at-a-time absorption of the same elements, column rows and
    /// record: a different code path (probe, insert and combine per
    /// element).
    /// Returns how many elements or rows it had to reject as poison.
    fn absorb_scalar(
        scalar: &mut KeyAggregator,
        elements: &[(Key, usize, f64)],
        columns: &RecordColumns,
        record: (Key, [f64; 3]),
    ) -> u64 {
        let mut poison = 0;
        for &(key, assignment, weight) in elements {
            poison += u64::from(scalar.absorb_element(key, assignment, weight).is_err());
        }
        let rows = columns.keys().iter().enumerate().map(|(index, &key)| {
            (key, [0, 1, 2].map(|assignment| columns.lane(assignment)[index]))
        });
        for (key, row) in rows.chain([record]) {
            if !row.iter().all(|&weight| weight_is_valid(weight)) {
                poison += 1;
                continue;
            }
            for (assignment, &weight) in row.iter().enumerate() {
                scalar.absorb_element(key, assignment, weight).unwrap();
            }
        }
        poison
    }

    #[test]
    fn stage_then_commit_is_bit_identical_to_absorb() {
        for mode in [Aggregation::SumByKey, Aggregation::MaxByKey] {
            let mut staged = aggregator(mode, &None);
            let (mut scalar, mut poison) = (aggregator(mode, &None), 0);
            for round in 0..12u64 {
                let elements = seeded_elements(round, 700, 3000);
                let columns = as_columns(&elements[..300]);
                let (key, row) = (elements[0].0, [1.5, 0.0, 2.5]);
                let stage = staged.stage(Push::Elements(&elements)).unwrap();
                staged.commit(stage, Push::Elements(&elements)).unwrap();
                staged.absorb_columns(&columns).unwrap();
                staged.absorb_record(key, &row).unwrap();
                poison += absorb_scalar(&mut scalar, &elements, &columns, (key, row));
                assert_eq!(scalar.keys, staged.keys, "{mode:?} round {round}");
                for (a, b) in scalar.lanes.iter().flatten().zip(staged.lanes.iter().flatten()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{mode:?} round {round}");
                }
                assert_eq!(staged.quarantined_count, poison);
            }
        }
    }

    #[test]
    fn stage_then_abort_leaves_the_aggregator_indistinguishable() {
        for mode in [Aggregation::SumByKey, Aggregation::MaxByKey] {
            for budget in budgets() {
                let mut aggregator = aggregator(mode, &budget);
                let mut breaches = 0;
                for round in 0..12u64 {
                    let elements = seeded_elements(100 + round, 700, 3000);
                    let before = state(&aggregator);
                    let reference = aggregator.clone();
                    match aggregator.stage(Push::Elements(&elements)) {
                        Ok(stage) => aggregator.abort(stage),
                        Err(CwsError::BudgetExceeded { .. }) => breaches += 1,
                        Err(other) => panic!("unexpected {other:?}"),
                    }
                    assert_eq!(state(&aggregator), before, "{mode:?} {budget:?} round {round}");
                    // Indistinguishable in behaviour too: the next absorb
                    // lands exactly where it would have without the abort.
                    let mut untouched = reference;
                    let expected = untouched.absorb_elements(&elements);
                    let got = aggregator.absorb_elements(&elements);
                    assert_eq!(format!("{expected:?}"), format!("{got:?}"));
                    if got.is_err() {
                        aggregator.flush_columns();
                        untouched.flush_columns();
                    }
                    assert_eq!(state(&aggregator), state(&untouched));
                }
                assert_eq!(breaches > 0, budget.is_some(), "{budget:?} must be breached");
            }
        }
    }

    #[test]
    #[should_panic(expected = "bypass the aggregation stage")]
    fn pre_aggregated_mode_is_rejected() {
        let _ = KeyAggregator::new(Aggregation::PreAggregated, 1, 0);
    }
}
