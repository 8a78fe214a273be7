//! Levelized bit-parallel logic evaluation.

use scan_netlist::{Driver, Netlist};

use crate::error::PatternShapeError;
use crate::fault::{Fault, FaultSite};
use crate::pattern::PatternSet;

/// A bit-parallel evaluator for the combinational logic of a full-scan
/// netlist.
///
/// Each call to [`Simulator::eval_word`] evaluates up to 64 patterns at
/// once: primary inputs and flip-flop outputs (the scanned-in state) are
/// taken from a [`PatternSet`], gates are evaluated in topological
/// order, and an optional stuck-at [`Fault`] is injected.
///
/// # Examples
///
/// ```
/// use scan_netlist::bench;
/// use scan_sim::{PatternSet, Simulator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let s27 = bench::s27();
/// let patterns = PatternSet::pseudo_random(4, 3, 64, 1);
/// let sim = Simulator::new(&s27, &patterns)?;
/// let mut values = vec![0u64; s27.num_nets()];
/// sim.eval_word(0, None, &mut values);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    patterns: &'a PatternSet,
}

impl<'a> Simulator<'a> {
    /// Creates an evaluator for a netlist/pattern-set pair.
    ///
    /// # Errors
    ///
    /// Returns [`PatternShapeError`] if the pattern set's PI/FF counts
    /// do not match the netlist.
    pub fn new(netlist: &'a Netlist, patterns: &'a PatternSet) -> Result<Self, PatternShapeError> {
        check_shape(netlist, patterns)?;
        Ok(Simulator { netlist, patterns })
    }

    /// The netlist under simulation.
    #[must_use]
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// The stimulus set.
    #[must_use]
    pub fn patterns(&self) -> &'a PatternSet {
        self.patterns
    }

    /// Evaluates pattern word `word` (patterns `word*64 ..`), writing one
    /// value word per net into `values`.
    ///
    /// `fault` is injected if given: a stem fault forces its net after
    /// the net is driven; a pin fault overrides one gate input pin.
    /// Lanes beyond the pattern count are left unmasked (callers mask
    /// with [`PatternSet::lane_mask`] when comparing).
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the netlist's net count or
    /// `word` is out of range.
    pub fn eval_word(&self, word: usize, fault: Option<&Fault>, values: &mut [u64]) {
        match fault {
            Some(f) => self.eval_word_multi(word, std::slice::from_ref(f), values),
            None => self.eval_word_multi(word, &[], values),
        }
    }

    /// Like [`Simulator::eval_word`], but injects *every* fault in
    /// `faults` simultaneously — the multiple-fault scenario the paper
    /// discusses in Section 3 (overlapping or disjoint fault cones).
    ///
    /// If two faults force the same site, the last one in the slice
    /// wins (physically, one defect dominates a node).
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the netlist's net count or
    /// `word` is out of range.
    pub fn eval_word_multi(&self, word: usize, faults: &[Fault], values: &mut [u64]) {
        assert_eq!(
            values.len(),
            self.netlist.num_nets(),
            "value buffer must cover every net"
        );
        assert!(word < self.patterns.num_words(), "word out of range");

        // Drive sources.
        for (pi_index, &net) in self.netlist.inputs().iter().enumerate() {
            values[net.index()] = self.patterns.pi_word(pi_index, word);
        }
        for (ff_index, dff) in self.netlist.dffs().iter().enumerate() {
            values[dff.q.index()] = self.patterns.state_word(ff_index, word);
        }
        // Source-driven stems are forced here; gate-driven stems are
        // forced as their gate is evaluated below.
        for fault in faults {
            if let FaultSite::Stem(site) = fault.site {
                if matches!(
                    self.netlist.driver(site),
                    Driver::PrimaryInput | Driver::Dff(_)
                ) {
                    values[site.index()] = force_word(fault.stuck);
                }
            }
        }

        // Evaluate gates in topological order.
        let mut input_buf: Vec<u64> = Vec::with_capacity(8);
        for &gid in self.netlist.topo_order() {
            let gate = self.netlist.gate(gid);
            input_buf.clear();
            input_buf.extend(gate.inputs.iter().map(|n| values[n.index()]));
            for fault in faults {
                if let FaultSite::Pin { gate: fgate, pin } = fault.site {
                    if fgate == gid {
                        input_buf[pin as usize] = force_word(fault.stuck);
                    }
                }
            }
            let mut out = gate.kind.eval_words(&input_buf);
            for fault in faults {
                if let FaultSite::Stem(site) = fault.site {
                    if site == gate.output {
                        out = force_word(fault.stuck);
                    }
                }
            }
            values[gate.output.index()] = out;
        }
    }
}

/// Checks that `patterns` drives exactly the netlist's primary inputs
/// and flip-flops.
pub(crate) fn check_shape(
    netlist: &Netlist,
    patterns: &PatternSet,
) -> Result<(), PatternShapeError> {
    if patterns.num_pis() != netlist.num_inputs() || patterns.num_ffs() != netlist.num_dffs() {
        return Err(PatternShapeError {
            expected_pis: netlist.num_inputs(),
            expected_ffs: netlist.num_dffs(),
            found_pis: patterns.num_pis(),
            found_ffs: patterns.num_ffs(),
        });
    }
    Ok(())
}

fn force_word(stuck: bool) -> u64 {
    if stuck {
        !0
    } else {
        0
    }
}
