//! Struct-of-arrays request storage for the channel schedulers.
//!
//! The FR-FCFS drain used to pay two allocation taxes per call: the
//! pending queue itself (`VecDeque<(DecodedAddr, Cycle)>`, 24 bytes per
//! entry with the padding) and a per-drain row index
//! (`Vec<HashMap<u64, VecDeque<usize>>>`) rebuilt from scratch with
//! SipHash every time. This module replaces both:
//!
//! * [`RequestArena`] holds the pending requests as parallel column
//!   vectors (`channel` is implicit — each [`crate::channel::ChannelSim`]
//!   owns one arena; `row`/`bank`/`arrival`/`is_write` are columns),
//!   so pushing is a handful of vector appends and the drain walks flat
//!   `u64`/`u32` slices instead of chasing struct fields.
//! * [`DrainScratch`] is the reusable drain state: an intrusive
//!   index-linked list per `(bank, row)` threaded through a single
//!   `link` column, a generation-stamped open-addressing [`RowTable`]
//!   (no `HashMap`, no per-drain clear), tombstone `served` flags, and
//!   the per-bank row-hit candidate array. After warm-up a drain step
//!   performs **zero allocations**.
//!
//! ## Index-link invariants
//!
//! For every drain, request `i`'s links satisfy:
//!
//! * `link[i]` is the next *younger* request to the same `(bank, row)`,
//!   or [`NIL`]; lists are threaded in arrival order.
//! * Within one `(bank, row)` list, requests are served strictly
//!   oldest-first: a row-hit pick is by definition the oldest unserved
//!   member of its list, and a default (FCFS) pick is the oldest
//!   unserved request overall. Consequently, when request `i` is
//!   served, everything before it in its list is already served and
//!   nothing after it is — `link[i]` *is* the next unserved member,
//!   with no tombstone walk and no table lookup.
//! * `candidates[b]` is the oldest unserved request addressed to bank
//!   `b`'s currently open row ([`NIL`] if none). Serving a request
//!   mutates exactly one bank's row state and leaves the served row
//!   open, so the only candidate to refresh per pick is
//!   `candidates[bank(i)] = link[i]`.
//!
//! The [`RowTable`] is therefore consulted only while *building* the
//! lists (one insert per request) and to seed candidates from rows left
//! open by earlier drains (one lookup per bank).

use crate::{Cycle, DecodedAddr};

/// Sentinel index terminating intrusive lists ("no request").
pub const NIL: u32 = u32::MAX;

/// Pending requests of one channel, stored as parallel columns.
///
/// Capacity is retained across drains, so a steady-state
/// push/drain cycle allocates nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct RequestArena {
    row: Vec<u64>,
    bank: Vec<u32>,
    arrival: Vec<Cycle>,
    is_write: Vec<bool>,
}

impl RequestArena {
    /// An empty arena.
    pub(crate) fn new() -> Self {
        RequestArena::default()
    }

    /// Number of pending requests.
    #[inline]
    pub fn len(&self) -> usize {
        self.row.len()
    }

    /// Reserves room for `additional` more requests in every column.
    pub fn reserve(&mut self, additional: usize) {
        self.row.reserve(additional);
        self.bank.reserve(additional);
        self.arrival.reserve(additional);
        self.is_write.reserve(additional);
    }

    /// True when no requests are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.row.is_empty()
    }

    /// Appends one request. The decoded channel and column fields are
    /// dropped: the arena belongs to exactly one channel, so the channel
    /// id is the shard key, and no scheduling decision reads the column.
    #[inline]
    pub fn push(&mut self, addr: DecodedAddr, is_write: bool, arrival: Cycle) {
        self.row.push(addr.row);
        self.bank.push(addr.bank as u32);
        self.arrival.push(arrival);
        self.is_write.push(is_write);
    }

    /// Row column.
    #[inline]
    pub fn rows(&self) -> &[u64] {
        &self.row
    }

    /// Bank column.
    #[inline]
    pub(crate) fn banks(&self) -> &[u32] {
        &self.bank
    }

    /// Arrival-cycle column.
    #[inline]
    pub(crate) fn arrivals(&self) -> &[Cycle] {
        &self.arrival
    }

    /// Write-flag column.
    #[inline]
    pub(crate) fn is_writes(&self) -> &[bool] {
        &self.is_write
    }

    /// Removes all requests, keeping the allocations.
    pub fn clear(&mut self) {
        self.row.clear();
        self.bank.clear();
        self.arrival.clear();
        self.is_write.clear();
    }

    /// Compacts the arena in place, keeping only requests whose
    /// `served` flag is false and preserving arrival order. Returns the
    /// number of survivors.
    ///
    /// # Panics
    ///
    /// Panics if `served` is shorter than the arena.
    pub(crate) fn compact_unserved(&mut self, served: &[bool]) -> usize {
        let n = self.len();
        assert!(served.len() >= n, "tombstone column shorter than arena");
        let mut w = 0usize;
        for (i, &dead) in served.iter().enumerate().take(n) {
            if !dead {
                if w != i {
                    self.row[w] = self.row[i];
                    self.bank[w] = self.bank[i];
                    self.arrival[w] = self.arrival[i];
                    self.is_write[w] = self.is_write[i];
                }
                w += 1;
            }
        }
        self.row.truncate(w);
        self.bank.truncate(w);
        self.arrival.truncate(w);
        self.is_write.truncate(w);
        w
    }
}

/// One open-addressing slot: the `(bank, row)` key plus the head/tail
/// of that class's intrusive request list. Kept as a single 24-byte
/// record (not parallel columns) on purpose: every probe touches all
/// fields of one slot, so array-of-structs means one cache line per
/// probe instead of five.
#[derive(Debug, Clone, Copy, Default)]
struct RowSlot {
    row: u64,
    head: u32,
    tail: u32,
    bank: u32,
    stamp: u32,
}

/// Generation-stamped open-addressing table mapping `(bank, row)` to
/// the head/tail of that class's intrusive request list.
///
/// A slot is live only when its stamp equals the current generation, so
/// "clearing" the table between drains is a single counter increment —
/// no `fill`, no rehash, no allocation (stamps are wiped only on the
/// `u32` generation wrap, once every 4 billion drains).
#[derive(Debug, Clone, Default)]
pub(crate) struct RowTable {
    slots: Vec<RowSlot>,
    gen: u32,
    /// `64 - log2(capacity)`: multiply-shift hashing keeps the probe
    /// sequence allocation- and SipHash-free.
    shift: u32,
}

impl RowTable {
    #[inline]
    fn hash(bank: u32, row: u64) -> u64 {
        // Fibonacci multiply-shift over the packed key. Row bits rarely
        // reach the top 8 bits (a 16-bit row space is typical), so
        // folding the bank id high keeps distinct banks apart even for
        // identical rows.
        (row ^ ((bank as u64) << 56)).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    /// Grows the table to hold `n` distinct keys at load factor <= 1/2
    /// and starts a new generation. Allocation happens only when `n`
    /// outgrows every previous drain.
    pub(crate) fn begin(&mut self, n: usize) {
        let want = (n.max(1) * 2).next_power_of_two().max(64);
        if want > self.slots.len() {
            self.slots = vec![RowSlot::default(); want];
            self.gen = 0;
            self.shift = 64 - want.trailing_zeros();
        }
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // Generation wrap: stale stamps from 4 billion drains ago
            // could alias the fresh generation, so wipe once.
            self.slots.iter_mut().for_each(|s| s.stamp = 0);
            self.gen = 1;
        }
    }

    /// Appends request `i` to the `(bank, row)` list, creating the list
    /// if absent. `link[i]` must already be [`NIL`]; the previous tail
    /// (if any) is linked to `i`.
    #[inline]
    pub fn insert(&mut self, bank: u32, row: u64, i: u32, link: &mut [u32]) {
        let mask = self.slots.len() - 1;
        let mut idx = (Self::hash(bank, row) >> self.shift) as usize;
        loop {
            let slot = &mut self.slots[idx];
            if slot.stamp != self.gen {
                *slot = RowSlot {
                    row,
                    head: i,
                    tail: i,
                    bank,
                    stamp: self.gen,
                };
                return;
            }
            if slot.row == row && slot.bank == bank {
                link[slot.tail as usize] = i;
                slot.tail = i;
                return;
            }
            idx = (idx + 1) & mask;
        }
    }

    /// The head of the `(bank, row)` list in the current generation, or
    /// [`NIL`] if no request addresses that key.
    #[inline]
    pub(crate) fn find_head(&self, bank: u32, row: u64) -> u32 {
        let mask = self.slots.len() - 1;
        let mut idx = (Self::hash(bank, row) >> self.shift) as usize;
        loop {
            let slot = &self.slots[idx];
            if slot.stamp != self.gen {
                return NIL;
            }
            if slot.row == row && slot.bank == bank {
                return slot.head;
            }
            idx = (idx + 1) & mask;
        }
    }
}

/// Reusable per-drain working state (see the module docs for the
/// invariants). All columns keep their capacity across drains.
#[derive(Debug, Clone, Default)]
pub struct DrainScratch {
    /// Next request in the same `(bank, row)` list, [`NIL`] at tails.
    pub(crate) link: Vec<u32>,
    /// Tombstones: true once a request has been served.
    pub(crate) served: Vec<bool>,
    /// The `(bank, row)` -> list-head index.
    pub(crate) table: RowTable,
    /// Per-bank oldest unserved request to the bank's open row.
    pub(crate) candidates: Vec<u32>,
    /// Number of non-[`NIL`] entries in `candidates`; when zero the
    /// per-pick candidate scan is skipped entirely.
    pub(crate) live_candidates: usize,
}

impl DrainScratch {
    /// Resets the scratch for a drain over `n` requests and `banks`
    /// banks. Reuses every allocation that is already large enough.
    pub(crate) fn begin(&mut self, n: usize, banks: usize) {
        self.link.clear();
        self.link.resize(n, NIL);
        self.served.clear();
        self.served.resize(n, false);
        self.table.begin(n);
        self.candidates.clear();
        self.candidates.resize(banks, NIL);
        self.live_candidates = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn da(row: u64, bank: u64, col: u64) -> DecodedAddr {
        DecodedAddr {
            row,
            bank,
            channel: 3,
            col,
        }
    }

    #[test]
    fn push_and_columns_round_trip() {
        let mut a = RequestArena::new();
        a.push(da(7, 2, 1), true, 40);
        a.push(da(9, 0, 0), false, 41);
        assert_eq!(a.len(), 2);
        assert_eq!(a.rows(), &[7, 9]);
        assert_eq!(a.banks(), &[2, 0]);
        assert_eq!(a.arrivals(), &[40, 41]);
        assert_eq!(a.is_writes(), &[true, false]);
    }

    #[test]
    fn compact_preserves_order_and_capacity() {
        let mut a = RequestArena::new();
        for i in 0..6u64 {
            a.push(da(i, 0, 0), false, i);
        }
        let cap = a.row.capacity();
        let served = [true, false, true, false, false, true];
        let left = a.compact_unserved(&served);
        assert_eq!(left, 3);
        assert_eq!(a.rows(), &[1, 3, 4]);
        assert_eq!(a.arrivals(), &[1, 3, 4]);
        assert_eq!(a.row.capacity(), cap, "compaction must not reallocate");
    }

    #[test]
    fn row_table_links_in_arrival_order() {
        let mut t = RowTable::default();
        t.begin(4);
        let mut link = vec![NIL; 4];
        // Requests 0 and 2 share (bank 1, row 5); 1 and 3 are loners.
        t.insert(1, 5, 0, &mut link);
        t.insert(0, 5, 1, &mut link);
        t.insert(1, 5, 2, &mut link);
        t.insert(1, 6, 3, &mut link);
        assert_eq!(t.find_head(1, 5), 0, "head is the oldest request");
        assert_eq!(link[0], 2, "list threads arrival order");
        assert_eq!(link[2], NIL);
        assert_eq!(t.find_head(0, 5), 1, "same row, different bank");
        assert_eq!(t.find_head(1, 6), 3, "same bank, different row");
        assert_eq!(t.find_head(9, 9), NIL);
    }

    #[test]
    fn row_table_generation_invalidates_old_entries() {
        let mut t = RowTable::default();
        t.begin(2);
        let mut link = vec![NIL; 2];
        t.insert(0, 1, 0, &mut link);
        assert_eq!(t.find_head(0, 1), 0);
        t.begin(2);
        assert_eq!(t.find_head(0, 1), NIL, "new generation must start empty");
    }

    #[test]
    fn row_table_survives_collision_chains() {
        // Insert far more distinct keys than 2x-load would ever probe
        // cleanly; correctness of linear probing is what matters.
        let mut t = RowTable::default();
        let n = 1000u32;
        t.begin(n as usize);
        let mut link = vec![NIL; n as usize];
        for i in 0..n {
            t.insert(i % 7, (i as u64) << 3, i, &mut link);
        }
        for i in 0..n {
            assert_eq!(t.find_head(i % 7, (i as u64) << 3), i, "key {i} lost");
        }
    }
}
