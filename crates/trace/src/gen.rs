//! Seeded synthetic access-stream generators.
//!
//! These produce the paper's synthetic workloads (strided copies, §7.2)
//! and the building blocks of the SPEC/PARSEC surrogates in
//! `sdam-workloads`. All randomness is seeded `StdRng` for exact
//! reproducibility.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{MemAccess, ThreadId, Trace, VariableId};

/// A strided access-stream generator (the paper's synthetic benchmark:
/// "data copy with different strides", one 64 B element per step).
///
/// # Example
///
/// ```
/// use sdam_trace::gen::StrideGen;
/// use sdam_trace::{Trace, VariableId};
///
/// let mut t = Trace::new();
/// StrideGen::new(0, 2 * 64, 4).emit(&mut t);
/// let addrs: Vec<u64> = t.addrs().collect();
/// assert_eq!(addrs, vec![0, 128, 256, 384]);
/// ```
#[derive(Debug, Clone)]
pub struct StrideGen {
    base: u64,
    stride_bytes: u64,
    count: u64,
    variable: VariableId,
    thread: ThreadId,
    pc: u64,
    write: bool,
    wrap_bytes: Option<u64>,
}

impl StrideGen {
    /// A read stream of `count` accesses starting at `base`, advancing
    /// `stride_bytes` per access.
    pub fn new(base: u64, stride_bytes: u64, count: u64) -> Self {
        StrideGen {
            base,
            stride_bytes,
            count,
            variable: VariableId(0),
            thread: ThreadId(0),
            pc: 0x1000,
            write: false,
            wrap_bytes: None,
        }
    }

    /// Sets the variable accesses are attributed to.
    pub fn variable(mut self, v: VariableId) -> Self {
        self.variable = v;
        self
    }

    /// Sets the issuing thread.
    pub fn thread(mut self, t: ThreadId) -> Self {
        self.thread = t;
        self
    }

    /// Sets the synthetic program counter.
    pub fn pc(mut self, pc: u64) -> Self {
        self.pc = pc;
        self
    }

    /// Emits stores instead of loads.
    pub fn writes(mut self) -> Self {
        self.write = true;
        self
    }

    /// Wraps the stream within `bytes` of the base (models repeated
    /// passes over a bounded buffer).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn wrap(mut self, bytes: u64) -> Self {
        assert!(bytes > 0, "wrap window must be non-zero");
        self.wrap_bytes = Some(bytes);
        self
    }

    /// Appends the stream to `trace`.
    pub fn emit(&self, trace: &mut Trace) {
        trace.reserve(self.count as usize);
        for i in 0..self.count {
            let mut off = i * self.stride_bytes;
            if let Some(w) = self.wrap_bytes {
                off %= w;
            }
            trace.push(MemAccess {
                addr: self.base + off,
                pc: self.pc,
                thread: self.thread,
                variable: self.variable,
                is_write: self.write,
            });
        }
    }

    /// Convenience: emits into a fresh trace.
    pub fn into_trace(self) -> Trace {
        let mut t = Trace::with_capacity(self.count as usize);
        self.emit(&mut t);
        t
    }
}

/// A uniform-random access generator over a region — the pointer-chasing
/// extreme (hash tables, graph frontiers).
#[derive(Debug, Clone)]
pub struct RandomGen {
    base: u64,
    len_bytes: u64,
    count: u64,
    variable: VariableId,
    thread: ThreadId,
    pc: u64,
    seed: u64,
}

impl RandomGen {
    /// A read stream of `count` line-aligned accesses uniform over
    /// `[base, base + len_bytes)`.
    ///
    /// # Panics
    ///
    /// Panics if `len_bytes < 64`.
    pub fn new(base: u64, len_bytes: u64, count: u64, seed: u64) -> Self {
        assert!(len_bytes >= 64, "region must hold at least one line");
        RandomGen {
            base,
            len_bytes,
            count,
            variable: VariableId(0),
            thread: ThreadId(0),
            pc: 0x2000,
            seed,
        }
    }

    /// Sets the variable accesses are attributed to.
    pub fn variable(mut self, v: VariableId) -> Self {
        self.variable = v;
        self
    }

    /// Sets the issuing thread.
    pub fn thread(mut self, t: ThreadId) -> Self {
        self.thread = t;
        self
    }

    /// Appends the stream to `trace`.
    pub fn emit(&self, trace: &mut Trace) {
        trace.reserve(self.count as usize);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let lines = self.len_bytes / 64;
        for _ in 0..self.count {
            let line = rng.gen_range(0..lines);
            trace.push(MemAccess {
                addr: self.base + line * 64,
                pc: self.pc,
                thread: self.thread,
                variable: self.variable,
                is_write: false,
            });
        }
    }

    /// Convenience: emits into a fresh trace.
    pub fn into_trace(self) -> Trace {
        let mut t = Trace::with_capacity(self.count as usize);
        self.emit(&mut t);
        t
    }
}

/// Round-robin interleaving of several streams — models concurrent
/// threads (the paper's four-thread data-copy experiment, Fig. 11).
///
/// Streams are consumed one access at a time in rotation until all are
/// exhausted.
pub fn interleave_round_robin(streams: Vec<Trace>) -> Trace {
    let total: usize = streams.iter().map(Trace::len).sum();
    let mut iters: Vec<_> = streams.into_iter().map(Trace::into_iter).collect();
    let mut out = Trace::with_capacity(total);
    let mut live = true;
    while live {
        live = false;
        for it in &mut iters {
            if let Some(a) = it.next() {
                out.push(a);
                live = true;
            }
        }
    }
    out
}

/// Burst-granular interleaving: streams take turns emitting a random
/// burst of `min_burst..=max_burst` consecutive accesses.
///
/// Loop-based programs (the SPEC kernels the paper profiles) touch one
/// data structure in long runs before moving to the next; burst
/// interleaving preserves that phase behaviour, which is what makes a
/// channel-pinning variable actually saturate its channel.
///
/// # Panics
///
/// Panics if `min_burst` is zero or greater than `max_burst`.
pub fn interleave_bursts(
    streams: Vec<Trace>,
    min_burst: usize,
    max_burst: usize,
    seed: u64,
) -> Trace {
    assert!(
        min_burst > 0 && min_burst <= max_burst,
        "invalid burst range"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let total: usize = streams.iter().map(Trace::len).sum();
    let mut iters: Vec<_> = streams.into_iter().map(Trace::into_iter).collect();
    let mut out = Trace::with_capacity(total);
    while !iters.is_empty() {
        let i = rng.gen_range(0..iters.len());
        let burst = rng.gen_range(min_burst..=max_burst);
        let mut emitted = 0;
        while emitted < burst {
            match iters[i].next() {
                Some(a) => {
                    out.push(a);
                    emitted += 1;
                }
                None => {
                    iters.swap_remove(i);
                    break;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_gen_wraps() {
        let t = StrideGen::new(0, 64, 6).wrap(192).into_trace();
        let addrs: Vec<u64> = t.addrs().collect();
        assert_eq!(addrs, vec![0, 64, 128, 0, 64, 128]);
    }

    #[test]
    fn stride_gen_builder_fields() {
        let t = StrideGen::new(100, 64, 1)
            .variable(VariableId(9))
            .thread(ThreadId(3))
            .pc(0xabc)
            .writes()
            .into_trace();
        let a = t.accesses()[0];
        assert_eq!(a.variable, VariableId(9));
        assert_eq!(a.thread, ThreadId(3));
        assert_eq!(a.pc, 0xabc);
        assert!(a.is_write);
    }

    #[test]
    fn random_gen_is_deterministic_and_in_range() {
        let a = RandomGen::new(1 << 20, 1 << 16, 1000, 42).into_trace();
        let b = RandomGen::new(1 << 20, 1 << 16, 1000, 42).into_trace();
        assert_eq!(a, b);
        for acc in a.iter() {
            assert!(acc.addr >= 1 << 20);
            assert!(acc.addr < (1 << 20) + (1 << 16));
            assert_eq!(acc.addr % 64, 0);
        }
        let c = RandomGen::new(1 << 20, 1 << 16, 1000, 43).into_trace();
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn round_robin_alternates() {
        let s0 = StrideGen::new(0, 64, 3)
            .variable(VariableId(0))
            .into_trace();
        let s1 = StrideGen::new(1 << 20, 64, 2)
            .variable(VariableId(1))
            .into_trace();
        let t = interleave_round_robin(vec![s0, s1]);
        let vars: Vec<u32> = t.iter().map(|a| a.variable.0).collect();
        assert_eq!(vars, vec![0, 1, 0, 1, 0]);
    }

    #[test]
    fn interleave_empty_is_empty() {
        assert!(interleave_round_robin(vec![]).is_empty());
    }
}
