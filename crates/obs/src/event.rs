//! A bounded ring buffer of structured trace events.

use std::collections::VecDeque;

/// Default capacity of an [`EventRing`].
pub(crate) const DEFAULT_RING_CAPACITY: usize = 4096;

/// One structured event: a dotted kind (`mem.chunk_acquired`), a
/// monotonic sequence number assigned by the ring, and a small set of
/// named `u64` fields in recording order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Position in the ring's total emission order (including dropped
    /// predecessors).
    pub seq: u64,
    /// Dotted event kind, e.g. `mem.heap_created`.
    pub kind: String,
    /// Named payload values, in the order the producer listed them.
    pub fields: Vec<(String, u64)>,
}

/// A bounded, oldest-first-dropping ring of [`Event`]s.
///
/// Every pushed event gets the next sequence number even if it later
/// falls off the ring, so consumers can detect gaps; `dropped()` counts
/// evictions. Merging appends the other ring's events in order and
/// re-assigns sequence numbers, which keeps merged output deterministic
/// when shards are merged in a fixed order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRing {
    cap: usize,
    next_seq: u64,
    dropped: u64,
    events: VecDeque<Event>,
}

impl Default for EventRing {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_RING_CAPACITY)
    }
}

impl EventRing {
    /// A ring holding at most `cap` events (at least one).
    pub(crate) fn with_capacity(cap: usize) -> Self {
        Self {
            cap,
            next_seq: 0,
            dropped: 0,
            events: VecDeque::with_capacity(cap.min(1024)),
        }
    }

    /// Appends one event, evicting the oldest if full. Returns the
    /// sequence number assigned.
    pub fn push(&mut self, kind: &str, fields: &[(&str, u64)]) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(Event {
            seq,
            kind: kind.to_owned(),
            fields: fields.iter().map(|&(k, v)| (k.to_owned(), v)).collect(),
        });
        seq
    }

    /// Events currently held, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Capacity the ring was created with.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever pushed, held or not.
    pub fn total_pushed(&self) -> u64 {
        self.next_seq
    }

    /// Appends all of `other`'s held events (in order, re-sequenced)
    /// and adds its drop count.
    pub fn merge(&mut self, other: &Self) {
        for e in other.iter() {
            let seq = self.next_seq;
            self.next_seq += 1;
            if self.events.len() == self.cap {
                self.events.pop_front();
                self.dropped += 1;
            }
            let mut e = e.clone();
            e.seq = seq;
            self.events.push_back(e);
        }
        self.dropped += other.dropped;
    }

    /// Removes all events and resets sequencing.
    pub fn clear(&mut self) {
        self.events.clear();
        self.next_seq = 0;
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_sequences_and_evicts() {
        let mut r = EventRing::with_capacity(2);
        assert_eq!(r.push("a", &[("x", 1)]), 0);
        assert_eq!(r.push("b", &[]), 1);
        assert_eq!(r.push("c", &[]), 2);
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 1);
        assert_eq!(r.total_pushed(), 3);
        let kinds: Vec<&str> = r.iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(kinds, vec!["b", "c"]);
        assert_eq!(r.iter().next().unwrap().seq, 1);
    }

    #[test]
    fn merge_resequences_in_order() {
        let mut a = EventRing::with_capacity(8);
        a.push("a0", &[]);
        let mut b = EventRing::with_capacity(8);
        b.push("b0", &[("v", 7)]);
        b.push("b1", &[]);
        a.merge(&b);
        let seqs: Vec<u64> = a.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        let kinds: Vec<&str> = a.iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(kinds, vec!["a0", "b0", "b1"]);
        assert_eq!(a.iter().nth(1).unwrap().fields, vec![("v".to_owned(), 7)]);
    }

    #[test]
    fn clear_resets() {
        let mut r = EventRing::default();
        assert_eq!(r.capacity(), DEFAULT_RING_CAPACITY);
        r.push("a", &[]);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.total_pushed(), 0);
    }
}
