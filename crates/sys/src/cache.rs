//! A set-associative cache simulator with LRU replacement.

use crate::error::ConfigError;

/// Cache shape parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes (64 everywhere in this project).
    pub line_bytes: u64,
    /// Hit latency in cycles.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// The paper's per-core L1: 64 KB, 8-way, 64 B lines. The 1-cycle
    /// hit cost is a *throughput* charge (an OoO core retires about one
    /// L1 access per cycle), not the load-to-use latency, which the
    /// window hides.
    pub fn boom_l1() -> Self {
        CacheConfig {
            capacity_bytes: 64 << 10,
            ways: 8,
            line_bytes: 64,
            hit_latency: 1,
        }
    }

    /// A small accelerator buffer: 8 KB, 4-way. The paper notes
    /// accelerators "have smaller caches, leading to higher cache miss
    /// rate".
    pub(crate) fn accelerator_buffer() -> Self {
        CacheConfig {
            capacity_bytes: 8 << 10,
            ways: 4,
            line_bytes: 64,
            hit_latency: 1,
        }
    }

    /// Number of sets implied by the shape.
    pub(crate) fn num_sets(&self) -> usize {
        (self.capacity_bytes / (self.line_bytes * self.ways as u64)) as usize
    }

    /// Panicking form of [`CacheConfig::try_validate`], for
    /// [`Cache::new`].
    ///
    /// # Panics
    ///
    /// Panics if the shape is invalid.
    pub(crate) fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }

    /// Validates the shape: non-zero parameters, a power-of-two line
    /// size of at least 2 bytes (so a tag never reaches `u64::MAX`,
    /// the unused-way sentinel), and a capacity that divides evenly
    /// into a power-of-two number of sets.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Cache`] naming the violated constraint.
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        let bad = |what| Err(ConfigError::Cache { what });
        if self.capacity_bytes == 0 {
            return bad("capacity must be non-zero");
        }
        if self.ways == 0 {
            return bad("associativity must be non-zero");
        }
        if !self.line_bytes.is_power_of_two() {
            return bad("line size must be a power of two");
        }
        if self.line_bytes < 2 {
            return bad("line size must be at least 2 bytes");
        }
        if self.hit_latency == 0 {
            return bad("hit latency must be non-zero");
        }
        let sets = self.capacity_bytes / (self.line_bytes * self.ways as u64);
        if sets == 0 {
            return bad("capacity too small for the associativity");
        }
        if !sets.is_power_of_two() {
            return bad("set count must be a power of two for bit indexing");
        }
        Ok(())
    }
}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled (write-allocate).
    Miss,
}

/// A set-associative LRU cache.
///
/// # Example
///
/// ```
/// use sdam_sys::cache::{Cache, CacheConfig, CacheOutcome};
///
/// let mut c = Cache::new(CacheConfig::boom_l1());
/// assert_eq!(c.access(0x1000), CacheOutcome::Miss);
/// assert_eq!(c.access(0x1000), CacheOutcome::Hit);
/// assert_eq!(c.access(0x1020), CacheOutcome::Hit); // same 64 B line
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `sets × ways` tags, one row of `ways` per set, each row in
    /// recency order (front = most recent). Unused ways hold [`EMPTY`]
    /// and always sit behind the used ones.
    tags: Vec<u64>,
    line_shift: u32,
    set_mask: u64,
    /// `line_shift` plus the set-index width: `addr >> tag_shift` is
    /// the tag.
    tag_shift: u32,
    hits: u64,
    misses: u64,
}

/// The tag of an unused way. A tag is `addr >> tag_shift` with
/// `tag_shift >= 1` (lines are at least 2 bytes), so it is below
/// `2^63` and never equals this.
const EMPTY: u64 = u64::MAX;

impl Cache {
    /// Builds a cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`CacheConfig::try_validate`]).
    pub fn new(config: CacheConfig) -> Self {
        config.validate();
        let sets = config.num_sets();
        let line_shift = config.line_bytes.trailing_zeros();
        Cache {
            tags: vec![EMPTY; sets * config.ways],
            line_shift,
            set_mask: sets as u64 - 1,
            tag_shift: line_shift + sets.trailing_zeros(),
            config,
            hits: 0,
            misses: 0,
        }
    }

    /// The configuration.
    pub(crate) fn config(&self) -> CacheConfig {
        self.config
    }

    /// Performs an access, updating LRU state and filling on miss.
    pub fn access(&mut self, addr: u64) -> CacheOutcome {
        let set = ((addr >> self.line_shift) & self.set_mask) as usize;
        let tag = addr >> self.tag_shift;
        let ways = self.config.ways;
        let row = &mut self.tags[set * ways..(set + 1) * ways];
        // Move to front in one pass: each way takes its predecessor's
        // tag. A hit stops where the tag was; a miss runs off the end
        // and drops the LRU way (or an unused one).
        let mut carry = tag;
        for way in row {
            let cur = std::mem::replace(way, carry);
            if cur == tag {
                self.hits += 1;
                return CacheOutcome::Hit;
            }
            carry = cur;
        }
        self.misses += 1;
        CacheOutcome::Miss
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Clears contents and counters.
    pub fn reset(&mut self) {
        self.tags.fill(EMPTY);
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64 B = 512 B.
        Cache::new(CacheConfig {
            capacity_bytes: 512,
            ways: 2,
            line_bytes: 64,
            hit_latency: 1,
        })
    }

    #[test]
    fn fill_then_hit() {
        let mut c = tiny();
        assert_eq!(c.access(0), CacheOutcome::Miss);
        assert_eq!(c.access(63), CacheOutcome::Hit);
        assert_eq!(c.access(64), CacheOutcome::Miss);
        assert_eq!((c.hits(), c.misses()), (1, 2));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Three lines mapping to set 0 (stride = sets * line = 256 B).
        c.access(0);
        c.access(256);
        c.access(0); // 0 is now MRU; 256 is LRU
        c.access(512); // evicts 256
        assert_eq!(c.access(0), CacheOutcome::Hit);
        assert_eq!(c.access(256), CacheOutcome::Miss);
    }

    #[test]
    fn working_set_within_capacity_all_hits_second_pass() {
        let mut c = Cache::new(CacheConfig::boom_l1());
        let lines = 64 * 1024 / 64;
        for i in 0..lines {
            c.access(i * 64);
        }
        let misses_after_fill = c.misses();
        for i in 0..lines {
            assert_eq!(c.access(i * 64), CacheOutcome::Hit, "line {i}");
        }
        assert_eq!(c.misses(), misses_after_fill);
    }

    #[test]
    fn working_set_beyond_capacity_thrashes() {
        let mut c = tiny();
        // 16 lines in a 8-line cache, streamed twice: all misses.
        for _ in 0..2 {
            for i in 0..16u64 {
                c.access(i * 64);
            }
        }
        assert_eq!(c.hits(), 0);
    }

    #[test]
    fn reset_clears() {
        let mut c = tiny();
        c.access(0);
        c.reset();
        assert_eq!((c.hits(), c.misses()), (0, 0));
        assert_eq!(c.access(0), CacheOutcome::Miss);
    }

    #[test]
    fn one_byte_lines_rejected() {
        // With one set, a 1-byte line would make `addr >> 0` a tag, and
        // the tag `u64::MAX` would match an unused way.
        let cfg = CacheConfig {
            capacity_bytes: 4,
            ways: 4,
            line_bytes: 1,
            hit_latency: 1,
        };
        assert_eq!(
            cfg.try_validate(),
            Err(ConfigError::Cache {
                what: "line size must be at least 2 bytes"
            })
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        Cache::new(CacheConfig {
            capacity_bytes: 3 * 64 * 2,
            ways: 2,
            line_bytes: 64,
            hit_latency: 1,
        });
    }
}
