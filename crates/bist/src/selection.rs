//! Cycle-level emulation of the scan cell selection hardware (Fig. 1 of
//! the paper).
//!
//! The hardware consists of an LFSR loaded from an Initial Value
//! Register (IVR), a Pattern Counter, Shift Counter 1 (chain position),
//! Test Counter 1 (current session/group number) and — for two-step
//! partitioning — the two shaded registers: Shift Counter 2 (remaining
//! cells in the current interval) and Test Counter 2 (intervals left
//! before the selected one). The compare logic gates each shifted-out
//! cell into the compactor.
//!
//! [`partition`](crate::partition) derives group assignments
//! algebraically; this module replays the registers cycle by cycle and
//! is used by tests to prove the two agree, and by anyone who wants to
//! trace the hardware behaviour directly.

use crate::lfsr::Lfsr;
use crate::seed::read_length;

/// Which selection mode the hardware is in.
#[derive(Clone, Copy, Eq, PartialEq, Debug)]
pub enum SelectionMode {
    /// Random-selection: an `⌈log2 b⌉`-bit label is compared against
    /// Test Counter 1 on every shift.
    RandomSelection,
    /// Interval-based: Shift Counter 2 / Test Counter 2 delimit the
    /// selected interval; lengths are read from `k_bits` LFSR stages.
    Interval {
        /// Stages read per interval length.
        k_bits: u32,
    },
}

/// The selection hardware state.
#[derive(Clone, Debug)]
pub struct SelectionHardware {
    lfsr: Lfsr,
    ivr: u64,
    groups: u16,
    mode: SelectionMode,
}

impl SelectionHardware {
    /// Creates the hardware with the given partition LFSR, IVR seed,
    /// group count, and mode.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is zero.
    #[must_use]
    pub fn new(lfsr: Lfsr, ivr: u64, groups: u16, mode: SelectionMode) -> Self {
        assert!(groups >= 1, "at least one group");
        SelectionHardware {
            lfsr,
            ivr,
            groups,
            mode,
        }
    }

    /// Current IVR contents.
    #[must_use]
    pub fn ivr(&self) -> u64 {
        self.ivr
    }

    /// Replays one scan-out of `chain_len` cells for the session that
    /// selects `group`, returning the per-position select mask (cell
    /// enters the compactor iff `mask[pos]`).
    ///
    /// The LFSR is reloaded from the IVR at the start (as the hardware
    /// does at the beginning of each pattern's scan-out), so the mask is
    /// identical for every pattern of the session.
    ///
    /// # Panics
    ///
    /// Panics if `group >= groups`.
    #[must_use]
    pub fn session_mask(&mut self, group: u16, chain_len: usize) -> Vec<bool> {
        assert!(group < self.groups, "group out of range");
        self.lfsr.load(self.ivr);
        match self.mode {
            SelectionMode::RandomSelection => self.random_selection_mask(group, chain_len),
            SelectionMode::Interval { k_bits } => self.interval_mask(group, chain_len, k_bits),
        }
    }

    fn random_selection_mask(&mut self, group: u16, chain_len: usize) -> Vec<bool> {
        let label_bits = if self.groups <= 1 {
            1
        } else {
            u32::from(self.groups)
                .next_power_of_two()
                .trailing_zeros()
                .max(1)
        }
        .min(self.lfsr.degree());
        let mut mask = Vec::with_capacity(chain_len);
        for _ in 0..chain_len {
            // Compare logic: label == Test Counter 1 (the group number).
            let label = if self.groups == 1 {
                0
            } else {
                (self.lfsr.low_bits(label_bits) % u64::from(self.groups)) as u16
            };
            mask.push(label == group);
            self.lfsr.step();
        }
        mask
    }

    fn interval_mask(&mut self, group: u16, chain_len: usize, k_bits: u32) -> Vec<bool> {
        // Test Counter 1 was incremented to `group` and transferred to
        // Test Counter 2; Shift Counter 2 is loaded with the first
        // interval length.
        let mut test_counter2 = group;
        let mut selecting = test_counter2 == 0;
        let mut shift_counter2 = read_length(&self.lfsr, k_bits);
        let mut done = false;
        let mut mask = Vec::with_capacity(chain_len);
        for _ in 0..chain_len {
            mask.push(selecting && !done);
            // Shift clock: Shift Counter 2 decrements; on reaching zero a
            // carry shifts the LFSR once, loads the next length, and
            // decrements Test Counter 2.
            shift_counter2 = shift_counter2.saturating_sub(1);
            if shift_counter2 == 0 {
                self.lfsr.step();
                shift_counter2 = read_length(&self.lfsr, k_bits);
                if selecting {
                    // The selected interval has ended.
                    done = true;
                    selecting = false;
                } else if test_counter2 > 0 {
                    test_counter2 -= 1;
                    selecting = test_counter2 == 0 && !done;
                }
            }
        }
        mask
    }

    /// Ends the current partition: the IVR is updated with the LFSR
    /// state so the next partition differs (random-selection mode), per
    /// the paper's "at the end of each partition, the IVR is updated
    /// with the current value of the LFSR".
    pub fn finish_partition(&mut self, chain_len: usize) {
        self.lfsr.load(self.ivr);
        for _ in 0..chain_len {
            self.lfsr.step();
        }
        self.ivr = self.lfsr.state();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{random_selection_partitions, PartitionConfig};
    use crate::seed::find_interval_seed;

    #[test]
    fn random_selection_hardware_matches_partition_derivation() {
        let chain_len = 97;
        let groups = 4u16;
        let config = PartitionConfig::new(chain_len, groups);
        let parts = random_selection_partitions(&config, 3);
        let lfsr = Lfsr::new(config.lfsr_degree).unwrap();
        let mut hw =
            SelectionHardware::new(lfsr, config.seed, groups, SelectionMode::RandomSelection);
        for part in &parts {
            for g in 0..groups {
                let mask = hw.session_mask(g, chain_len);
                for (pos, &selected) in mask.iter().enumerate() {
                    assert_eq!(
                        selected,
                        part.group_of(pos) == g,
                        "mismatch at position {pos}, group {g}"
                    );
                }
            }
            hw.finish_partition(chain_len);
        }
    }

    #[test]
    fn interval_hardware_matches_partition_derivation() {
        let chain_len = 300;
        let groups = 8u16;
        let found = find_interval_seed(chain_len, groups, 16, 0).unwrap();
        let part = crate::partition::Partition::from_interval_lengths(chain_len, &found.lengths);
        let lfsr = Lfsr::new(16).unwrap();
        let mut hw = SelectionHardware::new(
            lfsr,
            found.seed,
            groups,
            SelectionMode::Interval {
                k_bits: found.k_bits,
            },
        );
        for g in 0..groups {
            let mask = hw.session_mask(g, chain_len);
            for (pos, &selected) in mask.iter().enumerate() {
                assert_eq!(
                    selected,
                    part.group_of(pos) == g,
                    "mismatch at position {pos}, group {g}"
                );
            }
        }
    }

    #[test]
    fn masks_partition_the_chain() {
        // Every position selected in exactly one session.
        let chain_len = 64;
        let groups = 4u16;
        let lfsr = Lfsr::new(16).unwrap();
        let mut hw = SelectionHardware::new(lfsr, 1, groups, SelectionMode::RandomSelection);
        let mut counts = vec![0usize; chain_len];
        for g in 0..groups {
            for (pos, sel) in hw.session_mask(g, chain_len).iter().enumerate() {
                if *sel {
                    counts[pos] += 1;
                }
            }
        }
        assert!(counts.iter().all(|&c| c == 1));
    }

    #[test]
    fn finish_partition_changes_ivr() {
        let lfsr = Lfsr::new(16).unwrap();
        let mut hw = SelectionHardware::new(lfsr, 1, 4, SelectionMode::RandomSelection);
        let before = hw.ivr();
        hw.finish_partition(100);
        assert_ne!(hw.ivr(), before);
    }
}
