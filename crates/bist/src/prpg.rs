//! Pseudo-random pattern generation for scan-BIST sessions.
//!
//! A scan-BIST controller fills the scan chain and the primary inputs
//! with a pseudo-random bit stream each pattern. [`Prpg`] models the
//! classic LFSR-based generator: one maximal-length LFSR whose output
//! bit stream is consumed serially, so a test session is fully
//! determined by `(degree, seed)`.

use crate::error::BuildLfsrError;
use crate::lfsr::Lfsr;

/// An LFSR-based pseudo-random pattern generator.
///
/// # Examples
///
/// ```
/// use scan_bist::Prpg;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut prpg = Prpg::new(0xBEEF)?;
/// let first: Vec<bool> = (0..8).map(|_| prpg.next_bit()).collect();
/// let mut again = Prpg::new(0xBEEF)?;
/// let second: Vec<bool> = (0..8).map(|_| again.next_bit()).collect();
/// assert_eq!(first, second); // same seed, same stream
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Eq, PartialEq, Debug)]
pub struct Prpg {
    lfsr: Lfsr,
}

/// Degree of the pattern-generation LFSR.
pub const PRPG_DEGREE: u32 = 32;

impl Prpg {
    /// Creates a generator seeded with `seed` (degree-32 maximal LFSR).
    ///
    /// # Errors
    ///
    /// Never fails for the built-in degree; the `Result` mirrors the
    /// underlying constructor for API uniformity.
    pub fn new(seed: u64) -> Result<Self, BuildLfsrError> {
        let mut lfsr = Lfsr::new(PRPG_DEGREE)?;
        lfsr.load(seed);
        Ok(Prpg { lfsr })
    }

    /// Produces the next stimulus bit.
    pub fn next_bit(&mut self) -> bool {
        self.lfsr.step()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_balanced() {
        let mut prpg = Prpg::new(12345).unwrap();
        let ones: usize = (0..10_000).filter(|_| prpg.next_bit()).count();
        // A maximal LFSR stream is balanced to within a few percent.
        assert!((4_500..=5_500).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn different_seeds_different_streams() {
        let mut a = Prpg::new(1).unwrap();
        let mut b = Prpg::new(2).unwrap();
        let wa: Vec<bool> = (0..256).map(|_| a.next_bit()).collect();
        let wb: Vec<bool> = (0..256).map(|_| b.next_bit()).collect();
        assert_ne!(wa, wb);
    }
}
