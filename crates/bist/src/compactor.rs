//! Response compactors beyond the MISR.
//!
//! A scan-BIST response analyzer reduces a long bit stream to a short
//! signature; different compactors trade hardware for aliasing
//! characteristics. The diagnosis schemes only need a *pass/fail*
//! verdict per session, so any compactor slots in — but aliasing (a
//! failing stream whose signature matches the fault-free one) differs
//! sharply:
//!
//! * [`Misr`](crate::Misr) — aliasing probability ≈ `2^−degree`,
//!   independent of the error pattern;
//! * [`OnesCounter`] — counts the ones in the stream; aliases whenever
//!   the numbers of `0→1` and `1→0` bit flips are equal (common for
//!   clustered, polarity-balanced errors);
//! * [`TransitionCounter`] — counts signal transitions; aliases when
//!   errors preserve the transition count.
//!
//! The `compactors` experiment binary measures those aliasing rates on
//! real fault responses.

/// A streaming response compactor with a short signature.
///
/// Implementations are clocked once per shift cycle with the (masked)
/// response bit(s) for that cycle.
pub trait ResponseCompactor {
    /// Consumes one clock's input bits (bit `i` = chain `i`; single
    /// chains use bit 0).
    fn clock(&mut self, inputs: u64);

    /// The current signature.
    fn signature(&self) -> u64;

    /// Resets to the initial state for a new session.
    fn reset(&mut self);
}

impl ResponseCompactor for crate::Misr {
    fn clock(&mut self, inputs: u64) {
        crate::Misr::clock(self, inputs);
    }

    fn signature(&self) -> u64 {
        crate::Misr::signature(self)
    }

    fn reset(&mut self) {
        crate::Misr::reset(self);
    }
}

/// Counts the total number of `1` bits in the stream (syndrome
/// counting).
///
/// # Examples
///
/// ```
/// use scan_bist::compactor::{OnesCounter, ResponseCompactor};
///
/// let mut c = OnesCounter::new();
/// for bits in [1u64, 0, 1, 1] {
///     c.clock(bits);
/// }
/// assert_eq!(c.signature(), 3);
/// ```
#[derive(Clone, Copy, Default, Eq, PartialEq, Hash, Debug)]
pub struct OnesCounter {
    count: u64,
}

impl OnesCounter {
    /// A zeroed counter.
    #[must_use]
    pub fn new() -> Self {
        OnesCounter::default()
    }
}

impl ResponseCompactor for OnesCounter {
    fn clock(&mut self, inputs: u64) {
        self.count += u64::from(inputs.count_ones());
    }

    fn signature(&self) -> u64 {
        self.count
    }

    fn reset(&mut self) {
        self.count = 0;
    }
}

/// Counts `0↔1` transitions of a single-bit stream.
///
/// The first clocked bit establishes the initial level without counting
/// a transition.
#[derive(Clone, Copy, Default, Eq, PartialEq, Hash, Debug)]
pub struct TransitionCounter {
    last: Option<bool>,
    count: u64,
}

impl TransitionCounter {
    /// A fresh counter with no established level.
    #[must_use]
    pub fn new() -> Self {
        TransitionCounter::default()
    }
}

impl ResponseCompactor for TransitionCounter {
    fn clock(&mut self, inputs: u64) {
        let bit = inputs & 1 != 0;
        if let Some(last) = self.last {
            if last != bit {
                self.count += 1;
            }
        }
        self.last = Some(bit);
    }

    fn signature(&self) -> u64 {
        self.count
    }

    fn reset(&mut self) {
        self.last = None;
        self.count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Misr;

    fn compact_stream<C: ResponseCompactor>(
        compactor: &mut C,
        stream: impl IntoIterator<Item = bool>,
    ) -> u64 {
        compactor.reset();
        for bit in stream {
            compactor.clock(u64::from(bit));
        }
        compactor.signature()
    }

    #[test]
    fn ones_counter_counts() {
        let mut c = OnesCounter::new();
        let sig = compact_stream(&mut c, [true, false, true, true, false]);
        assert_eq!(sig, 3);
        c.reset();
        assert_eq!(c.signature(), 0);
    }

    #[test]
    fn ones_counter_aliases_on_balanced_flips() {
        // Golden 10, faulty 01: one 1→0 and one 0→1 flip — identical
        // ones counts, undetected.
        let mut c = OnesCounter::new();
        let golden = compact_stream(&mut c, [true, false]);
        let faulty = compact_stream(&mut c, [false, true]);
        assert_eq!(golden, faulty);
        // A MISR distinguishes them.
        let mut m = Misr::new(8).unwrap();
        let g = compact_stream(&mut m, [true, false]);
        let f = compact_stream(&mut m, [false, true]);
        assert_ne!(g, f);
    }

    #[test]
    fn transition_counter_counts_edges() {
        let mut c = TransitionCounter::new();
        let sig = compact_stream(&mut c, [false, true, true, false, true]);
        assert_eq!(sig, 3);
    }

    #[test]
    fn transition_counter_aliases_on_inverted_pulse() {
        // 0110 vs 1001: two transitions each — indistinguishable.
        let mut c = TransitionCounter::new();
        let a = compact_stream(&mut c, [false, true, true, false]);
        let b = compact_stream(&mut c, [true, false, false, true]);
        assert_eq!(a, b);
    }

    #[test]
    fn misr_through_trait_object() {
        // The trait is object-safe: heterogeneous compactor banks work.
        let mut bank: Vec<Box<dyn ResponseCompactor>> = vec![
            Box::new(Misr::new(16).unwrap()),
            Box::new(OnesCounter::new()),
            Box::new(TransitionCounter::new()),
        ];
        for compactor in &mut bank {
            for bit in [true, false, true] {
                compactor.clock(u64::from(bit));
            }
            let _ = compactor.signature();
        }
    }

    #[test]
    fn first_bit_sets_level_without_transition() {
        let mut c = TransitionCounter::new();
        c.clock(1);
        assert_eq!(c.signature(), 0);
        c.clock(0);
        assert_eq!(c.signature(), 1);
    }
}
