//! Galois linear-feedback shift registers over GF(2).

use crate::error::BuildLfsrError;

/// Tabulated primitive feedback polynomials for degrees 2..=32.
///
/// Entry `i` holds the polynomial for degree `i + 2`, encoded as a
/// coefficient bit mask: bit `k` set means the term `x^k` is present
/// (bit `degree` and bit 0 are always set). The tap sets follow the
/// classic maximal-length LFSR tables (Xilinx XAPP052).
pub const PRIMITIVE_POLYS: [u64; 31] = [
    poly(&[2, 1]),
    poly(&[3, 2]),
    poly(&[4, 3]),
    poly(&[5, 3]),
    poly(&[6, 5]),
    poly(&[7, 6]),
    poly(&[8, 6, 5, 4]),
    poly(&[9, 5]),
    poly(&[10, 7]),
    poly(&[11, 9]),
    poly(&[12, 6, 4, 1]),
    poly(&[13, 4, 3, 1]),
    poly(&[14, 5, 3, 1]),
    poly(&[15, 14]),
    poly(&[16, 15, 13, 4]),
    poly(&[17, 14]),
    poly(&[18, 11]),
    poly(&[19, 6, 2, 1]),
    poly(&[20, 17]),
    poly(&[21, 19]),
    poly(&[22, 21]),
    poly(&[23, 18]),
    poly(&[24, 23, 22, 17]),
    poly(&[25, 22]),
    poly(&[26, 6, 2, 1]),
    poly(&[27, 5, 2, 1]),
    poly(&[28, 25]),
    poly(&[29, 27]),
    poly(&[30, 6, 4, 1]),
    poly(&[31, 28]),
    poly(&[32, 22, 2, 1]),
];

const fn poly(taps: &[u32]) -> u64 {
    let mut p = 1u64; // the +1 term
    let mut i = 0;
    while i < taps.len() {
        p |= 1 << taps[i];
        i += 1;
    }
    p
}

/// Returns the tabulated primitive polynomial of the given degree.
///
/// # Errors
///
/// Returns [`BuildLfsrError::UnsupportedDegree`] for degrees outside
/// `2..=32`.
pub fn primitive_poly(degree: u32) -> Result<u64, BuildLfsrError> {
    if (2..=32).contains(&degree) {
        Ok(PRIMITIVE_POLYS[(degree - 2) as usize])
    } else {
        Err(BuildLfsrError::UnsupportedDegree { degree })
    }
}

/// A Galois-form LFSR: the state is a polynomial `S(x)` of degree
/// `< degree`, and each step computes `S := S·x mod p(x)`.
///
/// With a primitive `p(x)` and a nonzero state the sequence of states is
/// maximal (period `2^degree − 1`).
///
/// # Examples
///
/// ```
/// use scan_bist::Lfsr;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut lfsr = Lfsr::new(4)?;
/// lfsr.load(0b0001);
/// let mut seen = std::collections::HashSet::new();
/// for _ in 0..15 {
///     assert!(seen.insert(lfsr.state()), "maximal LFSR repeats early");
///     lfsr.step();
/// }
/// assert_eq!(lfsr.state(), 0b0001); // full period
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Eq, PartialEq, Hash, Debug)]
pub struct Lfsr {
    poly: u64,
    degree: u32,
    state: u64,
}

impl Lfsr {
    /// Creates an LFSR of the given degree using the tabulated primitive
    /// polynomial, with initial state `1`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildLfsrError::UnsupportedDegree`] for degrees outside
    /// `2..=32`.
    pub fn new(degree: u32) -> Result<Self, BuildLfsrError> {
        Ok(Lfsr {
            poly: primitive_poly(degree)?,
            degree,
            state: 1,
        })
    }

    /// The feedback polynomial (coefficient bit mask, including the top
    /// term).
    #[must_use]
    pub fn poly(&self) -> u64 {
        self.poly
    }

    /// The register length in bits.
    #[must_use]
    pub fn degree(&self) -> u32 {
        self.degree
    }

    /// The current state (low `degree` bits).
    #[must_use]
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Bit mask covering the register (`2^degree − 1`).
    #[must_use]
    pub fn mask(&self) -> u64 {
        if self.degree == 64 {
            !0
        } else {
            (1u64 << self.degree) - 1
        }
    }

    /// Loads a seed, masked to the register width. A zero seed is mapped
    /// to `1` (the all-zero state is a fixed point and never useful for
    /// pattern generation).
    pub fn load(&mut self, seed: u64) {
        let s = seed & self.mask();
        self.state = if s == 0 { 1 } else { s };
    }

    /// Advances one step and returns the bit shifted out (the previous
    /// coefficient of `x^(degree−1)`).
    pub fn step(&mut self) -> bool {
        // The output bit is a fair coin, so a branch on it mispredicts
        // every other step; `out.wrapping_neg()` is all ones or zero and
        // selects the feedback instead.
        let out = self.state >> (self.degree - 1) & 1;
        self.state = ((self.state << 1) ^ (self.poly & out.wrapping_neg())) & self.mask();
        out != 0
    }

    /// The low `k` bits of the current state, as a small pseudo-random
    /// number. This models reading `k` selected stages of the register.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or exceeds the degree.
    #[must_use]
    pub fn low_bits(&self, k: u32) -> u64 {
        assert!(k >= 1 && k <= self.degree, "k must be in 1..=degree");
        self.state & ((1u64 << k) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn period(degree: u32) -> u64 {
        let mut l = Lfsr::new(degree).unwrap();
        l.load(1);
        let start = l.state();
        let mut n = 0u64;
        loop {
            l.step();
            n += 1;
            if l.state() == start {
                return n;
            }
            assert!(n < 1 << (degree + 1), "period overflow at degree {degree}");
        }
    }

    #[test]
    fn tabulated_polys_are_maximal_up_to_degree_18() {
        for degree in 2..=18 {
            assert_eq!(
                period(degree),
                (1u64 << degree) - 1,
                "degree {degree} polynomial is not primitive"
            );
        }
    }

    #[test]
    fn degree_16_paper_lfsr_is_maximal() {
        // The paper uses a degree-16 primitive-polynomial LFSR to create
        // partitions; check that specific degree explicitly.
        assert_eq!(period(16), 65535);
    }

    #[test]
    fn zero_seed_coerced() {
        let mut l = Lfsr::new(8).unwrap();
        l.load(0);
        assert_eq!(l.state(), 1);
        l.step();
        assert_ne!(l.state(), 0);
    }

    #[test]
    fn unsupported_degree_rejected() {
        assert!(Lfsr::new(1).is_err());
        assert!(Lfsr::new(33).is_err());
    }

    #[test]
    fn low_bits_window() {
        let mut l = Lfsr::new(16).unwrap();
        l.load(0b1010_1100);
        assert_eq!(l.low_bits(4), 0b1100);
        assert_eq!(l.low_bits(8), 0b1010_1100);
    }

    #[test]
    fn step_matches_branching_step_at_every_degree() {
        // The shift-then-conditionally-xor form of S·x mod p.
        fn branching_step(state: &mut u64, poly: u64, degree: u32) -> bool {
            let mask = (1u64 << degree) - 1;
            let out = *state >> (degree - 1) & 1 != 0;
            *state = (*state << 1) & mask;
            if out {
                *state ^= poly & mask;
            }
            out
        }
        for degree in 2..=32 {
            for seed in [1, 0xACE1, 0xDEAD_BEEF, u64::MAX] {
                let mut l = Lfsr::new(degree).unwrap();
                l.load(seed);
                let mut s = l.state();
                for i in 0..10_000 {
                    let out = branching_step(&mut s, l.poly(), degree);
                    assert_eq!(l.step(), out, "degree {degree} seed {seed:#x} step {i}");
                    assert_eq!(l.state(), s, "degree {degree} seed {seed:#x} step {i}");
                }
            }
        }
    }

    #[test]
    fn step_matches_polynomial_multiplication() {
        // S·x mod p, computed independently.
        let mut l = Lfsr::new(8).unwrap();
        let p = l.poly();
        l.load(0xB5);
        let mut s = 0xB5u64;
        for _ in 0..100 {
            l.step();
            s <<= 1;
            if s & 0x100 != 0 {
                s ^= p;
            }
            assert_eq!(l.state(), s & 0xFF);
        }
    }
}
