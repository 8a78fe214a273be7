//! Hardware cost model for the scan cell selection logic (Fig. 1).
//!
//! The paper's hardware argument is that two-step partitioning costs
//! only *two additional registers* (Shift Counter 2 and Test Counter 2)
//! over the classical random-selection selection logic of \[5\]. This
//! module turns the Fig. 1 block diagram into flip-flop and gate-count
//! estimates so that claim can be checked quantitatively for any
//! configuration (see the `overhead` experiment binary).
//!
//! Costs use the usual DFT accounting: a `w`-bit register/counter is
//! `w` flip-flops; an up/down counter adds ~`5w` combinational gate
//! equivalents (half-adder + mux per stage); an equality comparator is
//! `w` XNORs plus a `w`-input AND tree (`w − 1` gates); LFSR feedback
//! is one XOR per tap.

use crate::lfsr::primitive_poly;

/// Parameters the selection hardware is sized for.
#[derive(Clone, Copy, Debug)]
pub struct SelectionHardwareSpec {
    /// Scan chain length (sizes Shift Counter 1).
    pub chain_len: usize,
    /// BIST patterns per session (sizes the Pattern Counter).
    pub num_patterns: usize,
    /// Groups per partition (sizes Test Counters and the label compare).
    pub groups: u16,
    /// Degree of the partition LFSR and IVR.
    pub lfsr_degree: u32,
    /// Selected bits per interval length (sizes Shift Counter 2); only
    /// meaningful when two-step hardware is included.
    pub length_bits: u32,
}

/// Flip-flop and gate-equivalent totals for one hardware variant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HardwareCost {
    /// Storage elements (register/counter bits).
    pub flip_flops: usize,
    /// Combinational gate equivalents.
    pub gates: usize,
}

impl HardwareCost {
    /// Sum of both components (a crude single-number area proxy, one
    /// flip-flop counted as four gate equivalents).
    #[must_use]
    pub fn area_estimate(&self) -> usize {
        self.flip_flops * 4 + self.gates
    }
}

/// Register width needed for `values` distinct states (`⌈log2 n⌉`,
/// minimum 1).
fn bits_for(values: usize) -> usize {
    if values <= 2 {
        1
    } else {
        (usize::BITS - (values - 1).leading_zeros()) as usize
    }
}

fn counter(width: usize) -> HardwareCost {
    HardwareCost {
        flip_flops: width,
        gates: 5 * width,
    }
}

fn register(width: usize) -> HardwareCost {
    HardwareCost {
        flip_flops: width,
        gates: 0,
    }
}

fn comparator(width: usize) -> HardwareCost {
    HardwareCost {
        flip_flops: 0,
        gates: width + width.saturating_sub(1),
    }
}

fn add(a: HardwareCost, b: HardwareCost) -> HardwareCost {
    HardwareCost {
        flip_flops: a.flip_flops + b.flip_flops,
        gates: a.gates + b.gates,
    }
}

/// Cost of the classical random-selection hardware of \[5\]: LFSR +
/// IVR + Pattern Counter + Shift Counter 1 + Test Counter 1 + label
/// compare logic + the output AND gate.
#[must_use]
pub fn random_selection_cost(spec: &SelectionHardwareSpec) -> HardwareCost {
    let degree = spec.lfsr_degree as usize;
    let taps = primitive_poly(spec.lfsr_degree).map_or(2, |p| p.count_ones() as usize - 2);
    let label_bits = bits_for(usize::from(spec.groups.max(2)) - 1).max(1);
    let mut cost = HardwareCost::default();
    cost = add(cost, register(degree)); // LFSR
    cost = add(
        cost,
        HardwareCost {
            flip_flops: 0,
            gates: taps,
        },
    ); // feedback
    cost = add(cost, register(degree)); // IVR
    cost = add(cost, counter(bits_for(spec.num_patterns))); // Pattern Counter
    cost = add(cost, counter(bits_for(spec.chain_len))); // Shift Counter 1
    cost = add(cost, counter(label_bits)); // Test Counter 1
    cost = add(cost, comparator(label_bits)); // label == TC1
    cost.gates += 1; // masking AND into the compactor
    cost
}

/// Cost of the paper's two-step hardware: the random-selection logic
/// plus Shift Counter 2 and Test Counter 2 (the shaded Fig. 1 blocks)
/// and the zero-detect compare on Test Counter 2.
#[must_use]
pub fn two_step_cost(spec: &SelectionHardwareSpec) -> HardwareCost {
    let label_bits = bits_for(usize::from(spec.groups.max(2)) - 1).max(1);
    let mut cost = random_selection_cost(spec);
    cost = add(cost, counter(spec.length_bits as usize)); // Shift Counter 2
    cost = add(cost, counter(label_bits)); // Test Counter 2
                                           // zero-detect on both counters: a NOR tree each.
    cost.gates += (spec.length_bits as usize).saturating_sub(1) + label_bits.saturating_sub(1) + 2;
    cost
}

/// The two-step increment over random selection, as absolute cost and
/// as a fraction of the baseline area.
///
/// # Panics
///
/// Panics only if the cost model produces a two-step cost below the
/// baseline (an internal invariant).
#[must_use]
#[allow(clippy::cast_precision_loss)] // gate counts are far below 2^52
pub fn two_step_overhead(spec: &SelectionHardwareSpec) -> (HardwareCost, f64) {
    let base = random_selection_cost(spec);
    let two = two_step_cost(spec);
    let delta = HardwareCost {
        flip_flops: two.flip_flops - base.flip_flops,
        gates: two.gates - base.gates,
    };
    let frac = delta.area_estimate() as f64 / base.area_estimate() as f64;
    (delta, frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SelectionHardwareSpec {
        SelectionHardwareSpec {
            chain_len: 228,
            num_patterns: 128,
            groups: 8,
            lfsr_degree: 16,
            length_bits: 6,
        }
    }

    #[test]
    fn two_step_adds_exactly_two_registers() {
        let s = spec();
        let (delta, _) = two_step_overhead(&s);
        // Shift Counter 2 (length_bits) + Test Counter 2 (label bits).
        assert_eq!(delta.flip_flops, 6 + 3);
        assert!(delta.gates > 0);
    }

    #[test]
    fn overhead_fraction_is_small() {
        let (_, frac) = two_step_overhead(&spec());
        assert!(
            frac < 0.5,
            "two-step overhead should be a modest fraction, got {frac}"
        );
    }

    #[test]
    fn costs_scale_with_parameters() {
        let small = random_selection_cost(&spec());
        let mut big_spec = spec();
        big_spec.chain_len = 7244;
        big_spec.groups = 32;
        let big = random_selection_cost(&big_spec);
        assert!(big.flip_flops > small.flip_flops);
    }

    #[test]
    fn bits_for_is_ceiling_log2() {
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(128), 7);
        assert_eq!(bits_for(200), 8);
        assert_eq!(bits_for(256), 8);
        assert_eq!(bits_for(257), 9);
    }

    #[test]
    fn area_estimate_weighs_flops() {
        let c = HardwareCost {
            flip_flops: 10,
            gates: 5,
        };
        assert_eq!(c.area_estimate(), 45);
    }
}
