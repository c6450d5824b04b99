//! Bus-slot occupancy backends: the booking table of the placement
//! core.
//!
//! The list scheduler books every inter-node message into the
//! earliest TDMA slot occurrence of its sender with spare capacity.
//! Two interchangeable backends implement that query
//! ([`OccupancyBackend`]), both choosing **identical occurrences**:
//!
//! * **Flat** — the original implementation: a flat
//!   `Vec<(round, slot, used)>` scanned from the tail per booking.
//!   Fine for tens of messages, O(total bookings) per booking on
//!   communication-heavy workloads with thousands of them. Kept as
//!   the PR 2 perf-ablation reference and as the debug-build parity
//!   oracle the bitmap replays against.
//! * **Bitmap** (default) — per-slot *dense round arrays* with a
//!   bit-packed saturation bitmap: `used[round]` holds the booked
//!   bytes of every round up to the slot's horizon, and bit `round`
//!   of the `sat` words is set exactly when the round is saturated
//!   (`used == capacity`, unusable for any message). A booking skips
//!   fully-saturated words whole — 64 rounds per `sat[w] == !0`
//!   test, the common case on congested slots — and walks partial
//!   words with a branch-light threshold scan
//!   (`used[q] <= capacity − size`, which also rejects saturated
//!   rounds for free). No tail scan, no insert memmove; growth is
//!   chunked so long horizons amortize.
//!   The transfer from the BEE instruction scheduler's `FixedBitSet`
//!   port-busyness maps (see ROADMAP item 3), generalized from unit
//!   ports to byte-capacity slots.
//!
//! Bookings go through a [`SlotTable`]: one slot of the table with
//! its backend resolved, opened once per sender instance by the
//! placement core's per-sender booking (a node owns exactly one slot,
//! so all of an instance's messages land in it).
//!
//! Both backends refuse a booking that would land at or past
//! [`BOOKING_HORIZON_ROUNDS`] with [`TtpError::HorizonExceeded`],
//! checked on the booked round before anything grows: the bitmap's
//! arrays are dense in rounds, so an unbounded horizon would be an
//! unbounded allocation.
//!
//! Debug builds additionally mirror every insertion into the legacy
//! flat vector and assert that the chosen backend agrees with the
//! flat tail scan (`debug_assertions` only — the guard is stripped in
//! release).

use ftdes_ttp::error::TtpError;

/// The booking horizon of the occupancy table, in TDMA rounds: no
/// message is booked into round `BOOKING_HORIZON_ROUNDS` or later.
///
/// A fixed bound, not a tuning knob. It sits four orders of
/// magnitude above the slot horizons real schedules reach (the
/// benchmark workloads' slots end after 55–92 rounds on average) and
/// caps the bitmap backend's dense arrays at about 4 MiB per slot. A
/// schedule that needs more rounds — computation times many orders of
/// magnitude above the bus round — fails with
/// [`TtpError::HorizonExceeded`] instead of allocating without bound.
pub const BOOKING_HORIZON_ROUNDS: u64 = 1 << 20;

/// Rejects a booking into `round` at or past the horizon.
fn within_horizon(round: u64) -> Result<u64, TtpError> {
    if round < BOOKING_HORIZON_ROUNDS {
        Ok(round)
    } else {
        Err(TtpError::HorizonExceeded {
            round,
            limit: BOOKING_HORIZON_ROUNDS,
        })
    }
}

/// Selects which booking structure the slot-occupancy table (the
/// crate-private `SlotOccupancy`) runs on. Pure
/// throughput knob: both backends book the identical occurrence
/// sequence (debug builds assert it per booking; the workspace's
/// engine parity suite asserts it cross-backend), so
/// costs and search trajectories are bit-identical across backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OccupancyBackend {
    /// The legacy flat tail scan (the PR 2 booking path and the
    /// debug-build parity oracle).
    Flat,
    /// Per-slot dense round arrays + bit-packed saturation bitmap:
    /// saturated words skipped whole, partial words threshold-scanned
    /// (the default).
    #[default]
    Bitmap,
}

impl OccupancyBackend {
    /// The name used in bench and test output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            OccupancyBackend::Flat => "flat",
            OccupancyBackend::Bitmap => "bitmap",
        }
    }
}

impl std::fmt::Display for OccupancyBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Dense per-slot state of the bitmap backend.
///
/// `used.len()` is the slot's horizon: every round below it carries
/// its booked bytes; every round at/above it is empty. The `sat`
/// words hold one bit per round below the horizon, set exactly when
/// the round is saturated (`used == capacity`); bits at/above the
/// horizon are kept zero, so the inverted-word scan naturally treats
/// them as bookable.
#[derive(Debug, Default)]
struct DenseSlot {
    used: Vec<u32>,
    sat: Vec<u64>,
}

/// Horizon growth quantum of the bitmap backend: extending a slot's
/// dense arrays rounds the new horizon up to a multiple of this, so
/// long schedules grow in a few chunked reallocations instead of one
/// per booked round. One chunk is one saturation word, so a slot
/// carries less than a word's worth of unbooked rounds past its last
/// booking.
const DENSE_CHUNK: usize = 64;

impl DenseSlot {
    /// Grows the horizon to cover `round`, in [`DENSE_CHUNK`] steps.
    fn ensure_round(&mut self, round: usize) {
        if round >= self.used.len() {
            let horizon = (round + 1).next_multiple_of(DENSE_CHUNK);
            self.used.resize(horizon, 0);
            self.sat.resize(horizon.div_ceil(64), 0);
        }
    }

    /// Books `size` bytes into the earliest round `>= round` with
    /// spare capacity and returns it.
    ///
    /// The scan is a hybrid: fully-saturated 64-round *words* are
    /// skipped with one `sat` comparison each (the congested-slot
    /// fast path), and inside a partial word the candidate rounds are
    /// walked with a branch-light threshold compare over the dense
    /// `used` array (`used[q] > capacity − size` ⇔ round `q` cannot
    /// take this message — saturated rounds included, since
    /// `used == capacity > capacity − size`). The inner loop is a
    /// word-bounded "find first `u32 ≤ limit`" scan the compiler can
    /// unroll/vectorize, which is what beats the sorted-vec walk on
    /// runs of *partially-filled-but-unfitting* rounds — the common
    /// congestion regime under variable message sizes, where a pure
    /// saturation-bit scan would degrade to one recheck per round.
    ///
    /// Soundness note: the placement core validates `size <=
    /// capacity` before any booking ([`crate::list::SenderBooking`]),
    /// so an empty round (`used == 0 <= limit`) always accepts — the
    /// scan can never run past the first fully-free round, which
    /// bounds it by the horizon. A round at or past
    /// [`BOOKING_HORIZON_ROUNDS`] is refused before the arrays grow.
    fn book(&mut self, round: u64, size: u32, capacity: u32) -> Result<u64, TtpError> {
        let mut q = usize::try_from(round).expect("round index fits usize");
        let horizon = self.used.len();
        let limit = capacity - size;
        'scan: while q < horizon {
            let w = q / 64;
            if self.sat[w] == !0u64 {
                // Every round of this word is saturated — skip all 64.
                q = (w + 1) * 64;
                continue;
            }
            let end = horizon.min((w + 1) * 64);
            while q < end {
                if self.used[q] <= limit {
                    break 'scan;
                }
                q += 1;
            }
        }
        within_horizon(q as u64)?;
        self.ensure_round(q);
        self.used[q] += size;
        if self.used[q] == capacity {
            self.sat[q / 64] |= 1u64 << (q % 64);
        }
        Ok(q as u64)
    }

    fn clear(&mut self) {
        self.used.clear();
        self.sat.clear();
    }
}

/// Per-(node, slot) occupancy of the TDMA bus, reused across
/// evaluations like the rest of the scheduler scratch state.
///
/// Slot indices map 1:1 to nodes through the active [`BusConfig`].
/// The active [`OccupancyBackend`] is selected per placement run
/// ([`SlotOccupancy::set_backend`], from
/// `ScheduleOptions::occupancy`); the legacy flat table additionally
/// serves as the debug-build parity reference of the bitmap.
#[derive(Debug, Default)]
pub(crate) struct SlotOccupancy {
    /// Bitmap backend: dense used-bytes arrays + saturation words.
    dense: Vec<DenseSlot>,
    /// Legacy flat table `(round, slot, used)`: the booking path of
    /// the flat backend, and the tail-scan reference the parity
    /// assertion replays in debug builds otherwise.
    flat: Vec<(u64, usize, u32)>,
    /// The active booking structure.
    backend: OccupancyBackend,
}

/// Entry ceiling for the debug-build parity oracle: while the flat
/// reference table is below this many `(round, slot)` entries, every
/// bitmap booking is replayed against the legacy scan. The
/// cap keeps the oracle's linear rescans from turning congested debug
/// evaluations quadratic — at 64 the replay cost disappears into the
/// noise while the head of every single placement in every debug test
/// still gets cross-checked; the dedicated occupancy property tests
/// cover long sequences exhaustively on their own.
#[cfg(debug_assertions)]
const ORACLE_CAP: usize = 64;

impl SlotOccupancy {
    /// Empties the table, keeping every allocation.
    pub(crate) fn clear(&mut self) {
        for slot in &mut self.dense {
            slot.clear();
        }
        self.flat.clear();
    }

    /// Selects the booking backend. Called at the start of every
    /// placement run, after the table was cleared; switching backends
    /// on a non-empty table is not supported.
    pub(crate) fn set_backend(&mut self, backend: OccupancyBackend) {
        debug_assert!(
            backend == self.backend
                || (self.flat.is_empty() && self.dense.iter().all(|d| d.used.is_empty())),
            "occupancy backend switched on a non-empty table"
        );
        self.backend = backend;
    }

    /// Grows the per-slot structures to cover `slots` slots.
    fn ensure_slots(&mut self, slots: usize) {
        if self.backend == OccupancyBackend::Bitmap && self.dense.len() < slots {
            self.dense.resize_with(slots, DenseSlot::default);
        }
    }

    /// Total booked bytes in `slot` under the active backend (0 for
    /// never-extended slots).
    #[cfg(test)]
    fn slot_bytes(&self, slot: usize) -> u64 {
        match self.backend {
            OccupancyBackend::Flat => self
                .flat
                .iter()
                .filter(|&&(_, s, _)| s == slot)
                .map(|&(_, _, used)| u64::from(used))
                .sum(),
            OccupancyBackend::Bitmap => self
                .dense
                .get(slot)
                .map_or(0, |d| d.used.iter().map(|&used| u64::from(used)).sum()),
        }
    }

    /// Opens `slot` for booking: grows the per-slot structures and
    /// resolves the active backend once, so a sender instance's
    /// messages all book through one handle.
    pub(crate) fn slot(&mut self, slot: usize, capacity: u32) -> SlotTable<'_> {
        self.ensure_slots(slot + 1);
        let SlotOccupancy {
            dense,
            flat,
            backend,
        } = self;
        SlotTable {
            dense: match backend {
                OccupancyBackend::Flat => None,
                OccupancyBackend::Bitmap => Some(&mut dense[slot]),
            },
            flat,
            slot,
            capacity,
        }
    }

    /// Books `size` bytes into the earliest occurrence of `slot` at
    /// or after `round` with spare capacity, and returns the round
    /// chosen (see [`SlotTable::book`]).
    pub(crate) fn book(
        &mut self,
        slot: usize,
        round: u64,
        size: u32,
        capacity: u32,
    ) -> Result<u64, TtpError> {
        self.slot(slot, capacity).book(round, size)
    }

    /// The legacy algorithm verbatim: scan the flat table from the
    /// tail for the `(round, slot)` entry, overflow to the next round
    /// while full. The flat backend's booking path, and the parity
    /// reference the bitmap replays in debug builds.
    fn scanned_book(
        flat: &mut Vec<(u64, usize, u32)>,
        slot: usize,
        mut round: u64,
        size: u32,
        capacity: u32,
    ) -> Result<u64, TtpError> {
        loop {
            match flat
                .iter_mut()
                .rev()
                .find(|&&mut (r, s, _)| r == round && s == slot)
            {
                Some(&mut (_, _, ref mut used)) if *used + size <= capacity => {
                    *used += size;
                    break;
                }
                Some(_) => round += 1,
                None => {
                    flat.push((within_horizon(round)?, slot, size));
                    break;
                }
            }
        }
        Ok(round)
    }
}

/// One slot of a [`SlotOccupancy`] with its backend resolved
/// ([`SlotOccupancy::slot`]).
#[derive(Debug)]
pub(crate) struct SlotTable<'a> {
    /// The slot's dense arrays under the bitmap backend; `None` under
    /// the flat backend.
    dense: Option<&'a mut DenseSlot>,
    /// The flat table: the flat backend's booking path, the bitmap's
    /// debug-build parity reference.
    flat: &'a mut Vec<(u64, usize, u32)>,
    slot: usize,
    capacity: u32,
}

impl SlotTable<'_> {
    /// The slot's frame capacity in bytes.
    pub(crate) fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Books `size` bytes (`<= capacity`) into the earliest
    /// occurrence at or after `round` with spare capacity, and returns
    /// the round chosen. A round at or past
    /// [`BOOKING_HORIZON_ROUNDS`] is refused with
    /// [`TtpError::HorizonExceeded`] by both backends.
    ///
    /// Debug builds replay each bitmap booking against the legacy
    /// flat scan as a parity oracle — but only while the oracle's own
    /// table is below [`ORACLE_CAP`] entries: the flat scan is linear
    /// per booking, and replaying it unconditionally turns every
    /// congested debug evaluation quadratic (the oracle would
    /// dominate the whole test suite's runtime). Once a placement run
    /// crosses the cap the oracle disarms until the next `clear()`;
    /// dedicated parity tests cover large tables in release mode.
    pub(crate) fn book(&mut self, round: u64, size: u32) -> Result<u64, TtpError> {
        let (slot, capacity) = (self.slot, self.capacity);
        match self.dense.as_deref_mut() {
            None => SlotOccupancy::scanned_book(self.flat, slot, round, size, capacity),
            Some(dense) => {
                let booked = dense.book(round, size, capacity)?;
                #[cfg(debug_assertions)]
                if self.flat.len() < ORACLE_CAP {
                    let scanned =
                        SlotOccupancy::scanned_book(self.flat, slot, round, size, capacity);
                    debug_assert_eq!(
                        scanned,
                        Ok(booked),
                        "bitmap booking diverged from the flat tail scan \
                         (slot {slot}, from round {round}, {size} bytes)"
                    );
                }
                Ok(booked)
            }
        }
    }
}

/// Thin wrapper exposing the booking table to booking
/// micro-benchmarks (see `crate::occ_bench`). Hidden from docs; the
/// real API is the backend knob on `ScheduleOptions`.
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct OccBench(SlotOccupancy);

impl OccBench {
    #[must_use]
    pub fn new(backend: OccupancyBackend) -> Self {
        let mut occ = SlotOccupancy::default();
        occ.set_backend(backend);
        OccBench(occ)
    }

    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// # Panics
    ///
    /// Panics when the booking lands at or past the booking horizon
    /// (`round` from a schedule the scheduler built never does).
    pub fn book(&mut self, slot: usize, round: u64, size: u32, capacity: u32) -> u64 {
        self.0
            .book(slot, round, size, capacity)
            .expect("booking within the booking horizon")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL_BACKENDS: [OccupancyBackend; 2] = [OccupancyBackend::Flat, OccupancyBackend::Bitmap];

    fn with_backend(backend: OccupancyBackend) -> SlotOccupancy {
        let mut occ = SlotOccupancy::default();
        occ.set_backend(backend);
        occ
    }

    #[test]
    fn books_fill_then_overflow() {
        for backend in ALL_BACKENDS {
            let mut occ = with_backend(backend);
            // Capacity 4: two 2-byte messages share, the third overflows.
            assert_eq!(occ.book(0, 3, 2, 4), Ok(3), "{backend}");
            assert_eq!(occ.book(0, 3, 2, 4), Ok(3), "{backend}");
            assert_eq!(occ.book(0, 3, 2, 4), Ok(4), "{backend}");
            assert_eq!(occ.slot_bytes(0), 6, "{backend}");
            // An earlier round with free space is still usable.
            assert_eq!(occ.book(0, 1, 4, 4), Ok(1), "{backend}");
        }
    }

    #[test]
    fn later_booking_can_fill_an_earlier_gap() {
        for backend in ALL_BACKENDS {
            let mut occ = with_backend(backend);
            occ.book(1, 0, 4, 4).unwrap();
            occ.book(1, 2, 2, 4).unwrap();
            // Round 1 was skipped: a new request from round 0 overflows
            // round 0 (full) and lands in the round-1 gap.
            assert_eq!(occ.book(1, 0, 3, 4), Ok(1), "{backend}");
            // Round 2 still has 2 spare bytes for a small message.
            assert_eq!(occ.book(1, 2, 2, 4), Ok(2), "{backend}");
        }
    }

    #[test]
    fn all_backends_book_identically() {
        let mut occs: Vec<SlotOccupancy> = ALL_BACKENDS.iter().map(|&b| with_backend(b)).collect();
        let requests: [(usize, u64, u32); 8] = [
            (0, 0, 4),
            (0, 0, 2),
            (1, 2, 3),
            (0, 1, 4),
            (0, 0, 2),
            (1, 0, 4),
            (1, 1, 2),
            (0, 3, 1),
        ];
        for (slot, round, size) in requests {
            let reference = occs[0].book(slot, round, size, 4);
            for (occ, backend) in occs[1..].iter_mut().zip(&ALL_BACKENDS[1..]) {
                assert_eq!(
                    occ.book(slot, round, size, 4),
                    reference,
                    "{backend} diverged on (slot {slot}, round {round}, {size}B)"
                );
            }
        }
        for occ in &occs {
            assert_eq!(occ.slot_bytes(0), occs[0].slot_bytes(0));
            assert_eq!(occ.slot_bytes(1), occs[0].slot_bytes(1));
        }
    }

    #[test]
    fn bitmap_skips_long_saturated_runs() {
        let mut occ = with_backend(OccupancyBackend::Bitmap);
        // Saturate rounds 0..300 (crossing several 64-bit words and
        // one DENSE_CHUNK boundary), then request from round 0: the
        // word scan must land exactly at the first free round.
        for r in 0..300u64 {
            assert_eq!(occ.book(0, r, 4, 4), Ok(r));
        }
        assert_eq!(occ.book(0, 0, 1, 4), Ok(300));
        // A partially-used round inside the run still accepts a fit.
        assert_eq!(occ.book(0, 300, 3, 4), Ok(300));
        assert_eq!(occ.book(0, 0, 2, 4), Ok(301));
    }

    #[test]
    fn clear_keeps_allocations_and_resets_bytes() {
        for backend in ALL_BACKENDS {
            let mut occ = with_backend(backend);
            occ.book(0, 0, 4, 4).unwrap();
            occ.book(2, 5, 1, 4).unwrap();
            occ.clear();
            assert_eq!(occ.slot_bytes(0), 0, "{backend}");
            assert_eq!(occ.slot_bytes(2), 0, "{backend}");
            assert_eq!(occ.book(0, 0, 4, 4), Ok(0), "{backend}: table empty again");
        }
    }

    #[test]
    fn bookings_stop_at_the_horizon() {
        let last = BOOKING_HORIZON_ROUNDS - 1;
        let refused = |round| {
            Err(TtpError::HorizonExceeded {
                round,
                limit: BOOKING_HORIZON_ROUNDS,
            })
        };
        for backend in ALL_BACKENDS {
            let mut occ = with_backend(backend);
            // The horizon's last round still books; a message that
            // overflows it, or a request far past it, is refused.
            assert_eq!(occ.book(0, last, 4, 4), Ok(last), "{backend}");
            assert_eq!(
                occ.book(0, last, 1, 4),
                refused(BOOKING_HORIZON_ROUNDS),
                "{backend}"
            );
            assert_eq!(
                occ.book(1, u64::MAX / 2, 1, 4),
                refused(u64::MAX / 2),
                "{backend}"
            );
            assert_eq!(occ.slot_bytes(0), 4, "{backend}: refusals book nothing");
            assert_eq!(occ.slot_bytes(1), 0, "{backend}: refusals book nothing");
        }
    }

    mod properties {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// One random booking request: slot, start round, size. Small
        /// ranges force heavy round sharing and saturation runs — the
        /// regimes where the two scan algorithms could diverge.
        fn arb_request() -> impl Strategy<Value = (usize, u64, u32)> {
            (0usize..3, 0u64..40, 1u32..5)
        }

        proptest! {
            /// Flat and bitmap must pick the **same round**
            /// for every request of any random sequence, and agree on
            /// the per-slot byte totals afterwards. (The debug parity
            /// oracle inside `book` re-checks each step against the
            /// flat scan as well, so in debug builds this property
            /// exercises both comparisons at once.)
            #[test]
            fn backends_agree_on_random_sequences(
                requests in vec(arb_request(), 1..120),
                capacity in 1u32..8,
            ) {
                let mut occs: Vec<SlotOccupancy> =
                    ALL_BACKENDS.iter().map(|&b| with_backend(b)).collect();
                for &(slot, round, raw_size) in &requests {
                    // A single message never exceeds the slot capacity
                    // (`book_scratch` guarantees this in the engine).
                    let size = raw_size.min(capacity);
                    let reference = occs[0].book(slot, round, size, capacity);
                    for (occ, backend) in occs[1..].iter_mut().zip(&ALL_BACKENDS[1..]) {
                        let got = occ.book(slot, round, size, capacity);
                        prop_assert_eq!(
                            got, reference,
                            "{} diverged on (slot {}, round {}, {}B, cap {})",
                            backend, slot, round, size, capacity
                        );
                    }
                }
                for slot in 0..3 {
                    for occ in &occs[1..] {
                        prop_assert_eq!(occ.slot_bytes(slot), occs[0].slot_bytes(slot));
                    }
                }
            }

            /// Booked rounds never precede the requested round, and a
            /// booking into an empty table lands exactly on it.
            #[test]
            fn bookings_never_travel_back_in_time(
                requests in vec(arb_request(), 1..80),
            ) {
                for backend in ALL_BACKENDS {
                    let mut occ = with_backend(backend);
                    for &(slot, round, size) in &requests {
                        let got = occ.book(slot, round, size, 4).unwrap();
                        prop_assert!(
                            got >= round,
                            "{} booked round {} before requested round {}",
                            backend, got, round
                        );
                    }
                }
            }
        }
    }
}
