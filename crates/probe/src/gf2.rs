//! Linear algebra over GF(2) for hash recovery.
//!
//! Every observed conflict bit is one linear equation over the unknown
//! hash columns: the XOR of the columns touched by a probe delta equals
//! the measured channel correction. Gaussian elimination turns the
//! stack of observations (plus the gauge equations pinning the
//! unobservable degrees of freedom) into the unique canonical solution
//! — or a certificate of why there is none.

/// A system of XOR equations `⊕_{b ∈ mask} x_b = rhs` over at most 64
/// unknowns, each unknown a bit-vector packed into a `u64`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Gf2System {
    unknowns: u32,
    rows: Vec<(u64, u64)>,
}

/// The outcome of eliminating a [`Gf2System`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Gf2Solution {
    /// Full rank: the single satisfying assignment, indexed by unknown.
    Unique(Vec<u64>),
    /// Some equations contradict each other (an `0 = rhs` row with
    /// `rhs != 0` appeared during elimination).
    Inconsistent,
    /// The equations do not pin every unknown; the listed unknowns are
    /// free.
    Underdetermined {
        /// Indices of unknowns with no pivot.
        free: Vec<u32>,
    },
}

impl Gf2System {
    /// An empty system over `unknowns` variables (at most 64).
    ///
    /// # Panics
    ///
    /// Panics if `unknowns > 64`.
    pub(crate) fn new(unknowns: u32) -> Gf2System {
        assert!(unknowns <= 64, "at most 64 unknowns per system");
        Gf2System {
            unknowns,
            rows: Vec::new(),
        }
    }

    /// Adds the equation `⊕_{b ∈ mask} x_b = rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `mask` references an unknown outside the system.
    pub(crate) fn equation(&mut self, mask: u64, rhs: u64) {
        if self.unknowns < 64 {
            assert_eq!(
                mask >> self.unknowns,
                0,
                "equation references unknown {} of {}",
                63 - mask.leading_zeros(),
                self.unknowns
            );
        }
        self.rows.push((mask, rhs));
    }

    /// Gauss-Jordan elimination: reduce to row echelon form, then
    /// back-substitute.
    pub(crate) fn solve(&self) -> Gf2Solution {
        let mut rows = self.rows.clone();
        let mut pivot_of: Vec<Option<usize>> = vec![None; self.unknowns as usize];
        let mut next = 0usize;
        for col in 0..self.unknowns {
            let Some(p) = (next..rows.len()).find(|&r| (rows[r].0 >> col) & 1 == 1) else {
                continue;
            };
            rows.swap(next, p);
            let (pmask, prhs) = rows[next];
            for (r, row) in rows.iter_mut().enumerate() {
                if r != next && (row.0 >> col) & 1 == 1 {
                    row.0 ^= pmask;
                    row.1 ^= prhs;
                }
            }
            pivot_of[col as usize] = Some(next);
            next += 1;
        }
        if rows[next..].iter().any(|&(m, v)| m == 0 && v != 0) {
            return Gf2Solution::Inconsistent;
        }
        let free: Vec<u32> = (0..self.unknowns)
            .filter(|&c| pivot_of[c as usize].is_none())
            .collect();
        if !free.is_empty() {
            return Gf2Solution::Underdetermined { free };
        }
        let mut x = vec![0u64; self.unknowns as usize];
        for col in 0..self.unknowns as usize {
            if let Some(r) = pivot_of[col] {
                x[col] = rows[r].1;
            }
        }
        Gf2Solution::Unique(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_a_triangular_system() {
        let mut s = Gf2System::new(3);
        s.equation(0b001, 5);
        s.equation(0b011, 6); // x1 = 6 ^ 5 = 3
        s.equation(0b110, 9); // x2 = 9 ^ 3 = 10
        assert_eq!(s.solve(), Gf2Solution::Unique(vec![5, 3, 10]));
    }

    #[test]
    fn detects_inconsistency() {
        let mut s = Gf2System::new(2);
        s.equation(0b01, 1);
        s.equation(0b10, 2);
        s.equation(0b11, 0);
        assert_eq!(s.solve(), Gf2Solution::Inconsistent);
    }

    #[test]
    fn reports_free_unknowns() {
        let mut s = Gf2System::new(3);
        s.equation(0b011, 7);
        assert!(matches!(
            s.solve(),
            Gf2Solution::Underdetermined { free } if free.len() == 2
        ));
    }

    #[test]
    fn redundant_consistent_rows_are_harmless() {
        let mut s = Gf2System::new(2);
        s.equation(0b01, 4);
        s.equation(0b10, 9);
        s.equation(0b11, 13);
        assert_eq!(s.solve(), Gf2Solution::Unique(vec![4, 9]));
    }
}
