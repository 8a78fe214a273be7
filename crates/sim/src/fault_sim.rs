//! Stuck-at fault simulation over a full-scan view.
//!
//! [`FaultSimulator`] evaluates the fault-free ("golden") response once
//! and then re-simulates the whole pattern set per fault, 64 patterns
//! per pass, comparing against the golden response to produce an
//! [`ErrorMap`]. Whole-circuit resimulation is the easiest engine to
//! trust, so it is the reference oracle that
//! [`PpsfpSimulator`](crate::PpsfpSimulator) — the production engine —
//! is checked against, and the one engine that returns the whole
//! faulty [`ResponseMap`].

use scan_rng::ScanRng;

use scan_netlist::{Netlist, ScanView};

use crate::error::PatternShapeError;
use crate::fault::{Fault, FaultUniverse};
use crate::pattern::PatternSet;
use crate::response::{ErrorMap, ResponseMap};
use crate::simulator::Simulator;

/// A fault simulator bound to one circuit, scan view, and pattern set.
///
/// # Examples
///
/// ```
/// use scan_netlist::{bench, ScanView};
/// use scan_sim::{Fault, FaultSimulator, PatternSet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let s27 = bench::s27();
/// let view = ScanView::natural(&s27, true);
/// let patterns = PatternSet::pseudo_random(4, 3, 64, 1);
/// let fsim = FaultSimulator::new(&s27, &view, &patterns)?;
/// let g10 = s27.find_net("G10").expect("net exists");
/// let errors = fsim.error_map(&Fault::stem(g10, true));
/// assert!(errors.num_positions() == view.len());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct FaultSimulator<'a> {
    sim: Simulator<'a>,
    view: &'a ScanView,
    observed_nets: Vec<usize>,
    golden: ResponseMap,
}

impl<'a> FaultSimulator<'a> {
    /// Creates the simulator and computes the golden response.
    ///
    /// # Errors
    ///
    /// Returns [`PatternShapeError`] if the pattern set does not match
    /// the netlist interface.
    pub fn new(
        netlist: &'a Netlist,
        view: &'a ScanView,
        patterns: &'a PatternSet,
    ) -> Result<Self, PatternShapeError> {
        let sim = Simulator::new(netlist, patterns)?;
        let observed_nets: Vec<usize> = (0..view.len())
            .map(|pos| view.observed_net(netlist, pos).index())
            .collect();
        let golden = {
            let _span = scan_obs::span!("golden");
            Self::response_with(&sim, &observed_nets, view.len(), None)
        };
        Ok(FaultSimulator {
            sim,
            view,
            observed_nets,
            golden,
        })
    }

    /// The scan view responses are observed through.
    #[must_use]
    pub fn view(&self) -> &'a ScanView {
        self.view
    }

    /// The netlist under test.
    #[must_use]
    pub fn netlist(&self) -> &'a Netlist {
        self.sim.netlist()
    }

    /// The fault-free response.
    #[must_use]
    pub fn golden(&self) -> &ResponseMap {
        &self.golden
    }

    /// Simulates the circuit with `fault` injected and returns the full
    /// faulty response map.
    #[must_use]
    pub fn response(&self, fault: &Fault) -> ResponseMap {
        Self::response_with(&self.sim, &self.observed_nets, self.view.len(), Some(fault))
    }

    /// Simulates `fault` and returns its error map (faulty XOR golden).
    #[must_use]
    pub fn error_map(&self, fault: &Fault) -> ErrorMap {
        scan_obs::metrics::incr("fault_sim.error_maps");
        self.response(fault).xor(&self.golden)
    }

    /// Simulates all of `faults` *simultaneously* and returns the full
    /// faulty response — the paper's multiple-fault scenario (Fig. 2's
    /// overlapping or disjoint fault cones).
    #[must_use]
    pub fn response_multi(&self, faults: &[Fault]) -> ResponseMap {
        let patterns = self.sim.patterns();
        let mut response = ResponseMap::zeroed(self.view.len(), patterns.num_patterns());
        let mut values = vec![0u64; self.sim.netlist().num_nets()];
        for word in 0..patterns.num_words() {
            self.sim.eval_word_multi(word, faults, &mut values);
            let mask = patterns.lane_mask(word);
            for (pos, &net) in self.observed_nets.iter().enumerate() {
                response.set_word(pos, word, values[net] & mask);
            }
        }
        response
    }

    /// Error map of several simultaneous faults.
    #[must_use]
    pub fn error_map_multi(&self, faults: &[Fault]) -> ErrorMap {
        scan_obs::metrics::incr("fault_sim.error_maps");
        self.response_multi(faults).xor(&self.golden)
    }

    /// Returns `true` if the fault flips at least one observed bit under
    /// this pattern set.
    #[must_use]
    pub fn is_detected(&self, fault: &Fault) -> bool {
        self.error_map(fault).is_detected()
    }

    fn response_with(
        sim: &Simulator<'a>,
        observed_nets: &[usize],
        positions: usize,
        fault: Option<&Fault>,
    ) -> ResponseMap {
        let patterns = sim.patterns();
        let mut response = ResponseMap::zeroed(positions, patterns.num_patterns());
        let mut values = vec![0u64; sim.netlist().num_nets()];
        for word in 0..patterns.num_words() {
            sim.eval_word(word, fault, &mut values);
            let mask = patterns.lane_mask(word);
            for (pos, &net) in observed_nets.iter().enumerate() {
                response.set_word(pos, word, values[net] & mask);
            }
        }
        response
    }

    /// Draws a reproducible sample of up to `count` *detected* faults
    /// from the collapsed fault universe.
    ///
    /// The universe is shuffled with `seed` and simulated until `count`
    /// detected faults are found (or the universe is exhausted) — the
    /// paper's "500 injected single stuck-at faults per circuit"
    /// methodology, restricted to faults the pattern set actually
    /// detects (undetected faults produce no failing cells and carry no
    /// diagnostic information).
    #[must_use]
    pub fn sample_detected_faults(&self, count: usize, seed: u64) -> Vec<Fault> {
        let _span = scan_obs::span!("sample_detected");
        let faults = shuffled_candidate_faults(self.netlist(), seed);
        let mut detected = Vec::with_capacity(count);
        let mut tried = 0u64;
        for fault in faults {
            if detected.len() == count {
                break;
            }
            tried += 1;
            if self.is_detected(&fault) {
                detected.push(fault);
            }
        }
        scan_obs::metrics::add("fault_sim.faults_tried", tried);
        scan_obs::metrics::add("fault_sim.faults_detected", detected.len() as u64);
        detected
    }

    /// Draws a reproducible sample of up to `count` *detected* fault
    /// multiplets of the given `size` (simultaneous faults) — the
    /// paper's multiple-fault discussion, where overlapping cones merge
    /// into one expanded failing segment.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    #[must_use]
    pub fn sample_detected_multiplets(
        &self,
        count: usize,
        size: usize,
        seed: u64,
    ) -> Vec<Vec<Fault>> {
        assert!(size >= 1, "multiplet size must be at least 1");
        let _span = scan_obs::span!("sample_detected");
        let faults = shuffled_candidate_faults(self.netlist(), seed ^ MULTIPLET_SEED_TAG);
        let mut result = Vec::with_capacity(count);
        let mut tried = 0u64;
        for chunk in faults.chunks_exact(size) {
            if result.len() == count {
                break;
            }
            tried += 1;
            if self.error_map_multi(chunk).is_detected() {
                result.push(chunk.to_vec());
            }
        }
        scan_obs::metrics::add("fault_sim.faults_tried", tried);
        scan_obs::metrics::add("fault_sim.faults_detected", result.len() as u64);
        result
    }
}

/// Seed perturbation applied when sampling fault *multiplets* instead
/// of single faults ("MULT"), so the two sample streams decorrelate.
pub(crate) const MULTIPLET_SEED_TAG: u64 = 0x4D55_4C54;

/// The shared candidate order both sampling engines draw from: the
/// collapsed fault universe, restricted to sites with fanout, shuffled
/// by `seed`.
///
/// Both [`FaultSimulator`] and the bit-parallel
/// [`PpsfpSimulator`](crate::PpsfpSimulator) sample from this exact
/// sequence, which is what makes their campaign fault samples — and
/// therefore every downstream verdict — bit-identical.
pub(crate) fn shuffled_candidate_faults(netlist: &Netlist, seed: u64) -> Vec<Fault> {
    let _span = scan_obs::span!("candidates");
    let universe = FaultUniverse::collapsed(netlist);
    // Precomputed [`site_has_fanout`] verdict per stem net: the
    // per-fault linear scans over outputs/DFFs would dominate the
    // sampler on large universes.
    let mut observable = vec![false; netlist.num_nets()];
    for net in netlist.net_ids() {
        observable[net.index()] = !netlist.fanout(net).is_empty();
    }
    for &out in netlist.outputs() {
        observable[out.index()] = true;
    }
    for dff in netlist.dffs() {
        observable[dff.d.index()] = true;
    }
    let mut faults: Vec<Fault> = universe
        .faults()
        .iter()
        .copied()
        .filter(|f| match f.site {
            crate::fault::FaultSite::Stem(net) => observable[net.index()],
            crate::fault::FaultSite::Pin { .. } => true,
        })
        .collect();
    let mut rng = ScanRng::seed_from_u64(seed);
    rng.shuffle(&mut faults);
    faults
}

#[cfg(test)]
mod tests {
    use super::*;
    use scan_netlist::bench;
    use scan_netlist::GateKind;

    fn setup() -> (Netlist, ScanView, PatternSet) {
        let n = bench::s27();
        let view = ScanView::natural(&n, true);
        let patterns = PatternSet::pseudo_random(4, 3, 128, 7);
        (n, view, patterns)
    }

    #[test]
    fn golden_matches_naive_per_pattern_eval() {
        let (n, view, patterns) = setup();
        let fsim = FaultSimulator::new(&n, &view, &patterns).unwrap();
        // Naive scalar evaluation for a handful of patterns.
        for pattern in [0usize, 1, 63, 64, 127] {
            let mut values: std::collections::BTreeMap<usize, bool> = std::collections::BTreeMap::new();
            for (pi, &net) in n.inputs().iter().enumerate() {
                values.insert(net.index(), patterns.pi_bit(pi, pattern));
            }
            for (ff, dff) in n.dffs().iter().enumerate() {
                values.insert(dff.q.index(), patterns.state_bit(ff, pattern));
            }
            for &gid in n.topo_order() {
                let gate = n.gate(gid);
                let ins: Vec<bool> = gate.inputs.iter().map(|i| values[&i.index()]).collect();
                values.insert(gate.output.index(), gate.kind.eval_bools(&ins));
            }
            for pos in 0..view.len() {
                let net = view.observed_net(&n, pos);
                assert_eq!(
                    fsim.golden().bit(pos, pattern),
                    values[&net.index()],
                    "pattern {pattern} position {pos}"
                );
            }
        }
    }

    #[test]
    fn stuck_fault_changes_response() {
        let (n, view, patterns) = setup();
        let fsim = FaultSimulator::new(&n, &view, &patterns).unwrap();
        // G11 feeds the PO (via NOT) and two NOR gates: forcing it must
        // be detected with 128 random patterns.
        let g11 = n.find_net("G11").unwrap();
        assert!(fsim.is_detected(&Fault::stem(g11, true)));
        assert!(fsim.is_detected(&Fault::stem(g11, false)));
    }

    #[test]
    fn errors_confined_to_structural_cone() {
        let (n, view, patterns) = setup();
        let fsim = FaultSimulator::new(&n, &view, &patterns).unwrap();
        let cones = scan_netlist::stats::OutputCones::compute(&n, &view);
        for fault in FaultUniverse::collapsed(&n).faults() {
            let errors = fsim.error_map(fault);
            let failing = errors.failing_positions();
            let cone = match fault.site {
                crate::fault::FaultSite::Stem(net) => cones.cone(net).clone(),
                crate::fault::FaultSite::Pin { gate, .. } => {
                    cones.cone(n.gate(gate).output).clone()
                }
            };
            for pos in &failing {
                assert!(
                    cone.contains(pos),
                    "fault {} produced an error outside its cone at {pos}",
                    fault.describe(&n)
                );
            }
        }
    }

    #[test]
    fn pin_fault_affects_only_its_branch() {
        // y = AND(a, b); z = OR(a, c). A pin fault on the AND's `a` pin
        // must leave z untouched even when a is wrong for z's cone.
        let n = Netlist::from_bench(
            "branch",
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\ny = AND(a, b)\nz = OR(a, c)\n",
        )
        .unwrap();
        let view = ScanView::natural(&n, true);
        let patterns = PatternSet::pseudo_random(3, 0, 64, 3);
        let fsim = FaultSimulator::new(&n, &view, &patterns).unwrap();
        let and_gate = n
            .gate_ids()
            .find(|&g| n.gate(g).kind == GateKind::And)
            .unwrap();
        let errors = fsim.error_map(&Fault::pin(and_gate, 0, true));
        // Position 0 is y, position 1 is z.
        assert!(errors.errors_at(1).next().is_none(), "z must be clean");
        assert!(errors.errors_at(0).next().is_some(), "y must fail");
    }

    #[test]
    fn sampling_returns_detected_faults_only() {
        let (n, view, patterns) = setup();
        let fsim = FaultSimulator::new(&n, &view, &patterns).unwrap();
        let sample = fsim.sample_detected_faults(10, 1);
        assert!(!sample.is_empty());
        for f in &sample {
            assert!(fsim.is_detected(f));
        }
        // Reproducible.
        assert_eq!(sample, fsim.sample_detected_faults(10, 1));
    }

    #[test]
    fn single_fault_multi_path_agrees_with_single_path() {
        let (n, view, patterns) = setup();
        let fsim = FaultSimulator::new(&n, &view, &patterns).unwrap();
        for fault in FaultUniverse::collapsed(&n).faults().iter().take(20) {
            assert_eq!(
                fsim.error_map(fault),
                fsim.error_map_multi(std::slice::from_ref(fault)),
                "fault {}",
                fault.describe(&n)
            );
        }
    }

    #[test]
    fn disjoint_cone_faults_superpose() {
        // y = AND(a, b); z = OR(c, d): faults in the two cones never
        // interact, so the pair's error map is the union of the
        // singles'.
        let n = Netlist::from_bench(
            "twocones",
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(y)\nOUTPUT(z)\ny = AND(a, b)\nz = OR(c, d)\n",
        )
        .unwrap();
        let view = ScanView::natural(&n, true);
        let patterns = PatternSet::pseudo_random(4, 0, 64, 9);
        let fsim = FaultSimulator::new(&n, &view, &patterns).unwrap();
        let fa = Fault::stem(n.find_net("a").unwrap(), true);
        let fc = Fault::stem(n.find_net("c").unwrap(), true);
        let ea = fsim.error_map(&fa);
        let ec = fsim.error_map(&fc);
        let both = fsim.error_map_multi(&[fa, fc]);
        for pos in 0..view.len() {
            for pat in 0..64 {
                assert_eq!(
                    both.bit(pos, pat),
                    ea.bit(pos, pat) ^ ec.bit(pos, pat),
                    "({pos},{pat})"
                );
            }
        }
    }

    #[test]
    fn multiplet_sampling_detected_and_reproducible() {
        let (n, view, patterns) = setup();
        let fsim = FaultSimulator::new(&n, &view, &patterns).unwrap();
        let pairs = fsim.sample_detected_multiplets(5, 2, 1);
        assert!(!pairs.is_empty());
        for pair in &pairs {
            assert_eq!(pair.len(), 2);
            assert!(fsim.error_map_multi(pair).is_detected());
        }
        assert_eq!(pairs, fsim.sample_detected_multiplets(5, 2, 1));
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let (n, view, _) = setup();
        let bad = PatternSet::pseudo_random(5, 3, 64, 7);
        assert!(FaultSimulator::new(&n, &view, &bad).is_err());
    }
}
