//! Bit-parallel PPSFP fault simulation with fault dropping.
//!
//! PPSFP (parallel-pattern single-fault propagation) simulates 64 BIST
//! patterns per `u64` word pass over the netlist. This engine combines
//! that word layout with cone-limited event propagation and keeps a
//! *per-word* scratch image of the fault-free net values, so a fault
//! costs only its touched nets — there is no whole-circuit
//! re-evaluation, unlike the reference oracle
//! [`FaultSimulator`](crate::FaultSimulator).
//!
//! It is the workspace's one production fault-simulation engine. Three
//! things make it the campaign workhorse:
//!
//! * **Single-pass sampling.** [`PpsfpSimulator::sample_detected_with_maps`]
//!   returns each detected fault *with* the error map that proved it
//!   detected, eliminating the classic sample-then-resimulate double
//!   pass.
//! * **Fault dropping.** [`PpsfpSimulator::detects`] stops sweeping a
//!   fault at the first pattern word that produces an observed error —
//!   once a fault's failing status is resolved, the remaining words are
//!   dropped (`ppsfp.faults_dropped` counts the early exits).
//! * **Fused compaction.** [`PpsfpSimulator::sweep`] streams packed
//!   `(position, word, diff)` triples to a caller-supplied sink during
//!   the propagation sweep itself, so MISR signature accumulation (see
//!   `scan_bist::WordMisr` and `DiagnosisPlan::analyze_packed` in
//!   `scan-diagnosis`) consumes error words without an intermediate
//!   per-bit pass.
//!
//! The engine is bit-exact with the oracle; the differential harness
//! `tests/engine_diff.rs` proves it over generated circuits, pattern
//! counts, scan orderings, and sampled fault and multiplet lists.

use scan_netlist::{GateId, Netlist, ScanView};

use crate::error::PatternShapeError;
use crate::fault::{Fault, FaultSite};
use crate::fault_sim::{shuffled_candidate_faults, MULTIPLET_SEED_TAG};
use crate::pattern::PatternSet;
use crate::response::{ErrorMap, ResponseMap};
use crate::simulator::Simulator;

/// A bit-parallel PPSFP fault simulator bound to one circuit, scan
/// view, and pattern set.
///
/// # Examples
///
/// ```
/// use scan_netlist::{bench, ScanView};
/// use scan_sim::{Fault, PatternSet, PpsfpSimulator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let s27 = bench::s27();
/// let view = ScanView::natural(&s27, true);
/// let patterns = PatternSet::pseudo_random(4, 3, 100, 1);
/// let mut psim = PpsfpSimulator::new(&s27, &view, &patterns)?;
/// let g10 = s27.find_net("G10").expect("net exists");
/// let fault = Fault::stem(g10, true);
/// assert_eq!(psim.detects(&fault), psim.error_map(&fault).is_detected());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct PpsfpSimulator<'a> {
    netlist: &'a Netlist,
    patterns: &'a PatternSet,
    view_len: usize,
    /// Fault-free net values, `golden_nets[word][net]`.
    golden_nets: Vec<Vec<u64>>,
    /// Fault-free observed response (lane-masked).
    golden: ResponseMap,
    /// Observation positions per net (a net can be both a PO and a DFF
    /// data input).
    observers: Vec<Vec<u32>>,
    /// Per-word scratch image of the net values. Between sweeps every
    /// word equals `golden_nets`; a sweep dirties only the nets a fault
    /// touches and restores exactly those, so no word-sized memcpy is
    /// ever needed.
    scratch: Vec<Vec<u64>>,
    /// Whether a gate is already queued, per gate.
    queued: Vec<bool>,
    /// Worklist buckets by gate level.
    buckets: Vec<Vec<GateId>>,
    /// Reused gate-input buffer (avoids a heap allocation per event).
    input_buf: Vec<u64>,
    /// Reused touched-net list.
    touched: Vec<usize>,
}

impl<'a> PpsfpSimulator<'a> {
    /// Creates the simulator and computes the fault-free values of
    /// every net for every pattern word (under the `golden` span, like
    /// the oracle).
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
        let _span = scan_obs::span!("golden");
        let sim = Simulator::new(netlist, patterns)?;
        let mut golden_nets = Vec::with_capacity(patterns.num_words());
        let mut values = vec![0u64; netlist.num_nets()];
        for word in 0..patterns.num_words() {
            sim.eval_word(word, None, &mut values);
            golden_nets.push(values.clone());
        }
        let mut observers = vec![Vec::new(); netlist.num_nets()];
        let mut golden = ResponseMap::zeroed(view.len(), patterns.num_patterns());
        for pos in 0..view.len() {
            let net = view.observed_net(netlist, pos);
            observers[net.index()].push(pos as u32);
            for (word, nets) in golden_nets.iter().enumerate() {
                golden.set_word(pos, word, nets[net.index()] & patterns.lane_mask(word));
            }
        }
        let depth = netlist.depth() as usize;
        Ok(PpsfpSimulator {
            netlist,
            patterns,
            view_len: view.len(),
            scratch: golden_nets.clone(),
            golden_nets,
            golden,
            observers,
            queued: vec![false; netlist.num_gates()],
            buckets: vec![Vec::new(); depth + 2],
            input_buf: Vec::with_capacity(8),
            touched: Vec::new(),
        })
    }

    /// The netlist under simulation.
    #[must_use]
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// The fault-free observed response.
    #[must_use]
    pub fn golden(&self) -> &ResponseMap {
        &self.golden
    }

    /// Simulates `fault` and returns its error map. Bit-exact with
    /// [`FaultSimulator::error_map`](crate::FaultSimulator::error_map).
    pub fn error_map(&mut self, fault: &Fault) -> ErrorMap {
        self.error_map_multi(std::slice::from_ref(fault))
    }

    /// Error map of several *simultaneous* faults (the paper's
    /// multiple-fault scenario). Bit-exact with
    /// [`FaultSimulator::error_map_multi`](crate::FaultSimulator::error_map_multi):
    /// if two faults force the same site, the last one in the slice
    /// wins.
    pub fn error_map_multi(&mut self, faults: &[Fault]) -> ErrorMap {
        scan_obs::metrics::incr("fault_sim.error_maps");
        let mut errors = ResponseMap::zeroed(self.view_len, self.patterns.num_patterns());
        self.sweep(faults, |pos, word, diff| {
            let current = errors.word(pos as usize, word);
            errors.set_word(pos as usize, word, current | diff);
        });
        ErrorMap::from(errors)
    }

    /// Returns `true` if the fault flips at least one observed bit,
    /// *dropping* the fault at the first failing pattern word: once its
    /// failing status is resolved the remaining words are never swept.
    ///
    /// Identical verdict to `error_map(fault).is_detected()`.
    pub fn detects(&mut self, fault: &Fault) -> bool {
        let faults = std::slice::from_ref(fault);
        let words = self.patterns.num_words();
        for word in 0..words {
            if self.propagate_word(word, faults, &mut |_, _, _| {}) {
                if word + 1 < words {
                    scan_obs::metrics::incr("ppsfp.faults_dropped");
                }
                return true;
            }
        }
        false
    }

    /// Sweeps every pattern word with `faults` injected simultaneously,
    /// streaming each observed diff as a packed `(position, word, diff)`
    /// triple to `sink`, and returns whether any diff was observed.
    ///
    /// This is the fused word-level pass: error-map accumulation and
    /// MISR compaction are both sinks over the same sweep instead of
    /// separate per-bit passes. Diff words are lane-masked; a position
    /// is reported at most once per word.
    pub fn sweep<S: FnMut(u32, usize, u64)>(&mut self, faults: &[Fault], mut sink: S) -> bool {
        let mut detected = false;
        for word in 0..self.patterns.num_words() {
            detected |= self.propagate_word(word, faults, &mut sink);
        }
        detected
    }

    /// Propagates `faults` through pattern word `word` by levelized
    /// events, reporting observed diffs to `sink`. Returns whether any
    /// observed diff occurred. Scratch is restored before returning.
    fn propagate_word<S: FnMut(u32, usize, u64)>(
        &mut self,
        word: usize,
        faults: &[Fault],
        sink: &mut S,
    ) -> bool {
        scan_obs::metrics::incr("ppsfp.words_swept");
        let mask = self.patterns.lane_mask(word);
        let mut touched = std::mem::take(&mut self.touched);
        let mut input_buf = std::mem::take(&mut self.input_buf);
        touched.clear();
        let mut detected = false;
        let mut gate_evals = 0u64;

        // Seed the worklist. Stem forcings apply in slice order (last
        // wins, matching `Simulator::eval_word_multi`); the final value
        // of each forced net stays pinned for the whole word.
        let mut forced_stems: Vec<(scan_netlist::NetId, u64)> = Vec::new();
        for fault in faults {
            match fault.site {
                FaultSite::Stem(net) => {
                    let forced = force_word(fault.stuck);
                    if let Some(entry) = forced_stems.iter_mut().find(|(n, _)| *n == net) {
                        entry.1 = forced;
                    } else {
                        forced_stems.push((net, forced));
                    }
                }
                FaultSite::Pin { gate, .. } => self.enqueue(gate),
            }
        }
        for &(net, forced) in &forced_stems {
            let diff = (self.scratch[word][net.index()] ^ forced) & mask;
            if diff == 0 {
                continue;
            }
            self.scratch[word][net.index()] = forced;
            touched.push(net.index());
            detected |= self.report(net.index(), diff, word, sink);
            for &g in self.netlist.fanout(net) {
                self.enqueue(g);
            }
        }

        // Levelized propagation: fanout always points to strictly
        // higher levels, so each gate is evaluated at most once.
        for level in 0..self.buckets.len() {
            while let Some(gid) = self.buckets[level].pop() {
                self.queued[gid.index()] = false;
                let gate = self.netlist.gate(gid);
                let out_index = gate.output.index();
                if forced_stems.iter().any(|&(n, _)| n.index() == out_index) {
                    // The output is pinned by a stem fault; input
                    // changes cannot move it.
                    continue;
                }
                gate_evals += 1;
                input_buf.clear();
                input_buf.extend(gate.inputs.iter().map(|n| self.scratch[word][n.index()]));
                for fault in faults {
                    if let FaultSite::Pin { gate: fgate, pin } = fault.site {
                        if fgate == gid {
                            input_buf[pin as usize] = force_word(fault.stuck);
                        }
                    }
                }
                let new = gate.kind.eval_words(&input_buf);
                let old = self.scratch[word][out_index];
                if (new ^ old) & mask == 0 {
                    continue;
                }
                self.scratch[word][out_index] = new;
                touched.push(out_index);
                let golden_diff = (new ^ self.golden_nets[word][out_index]) & mask;
                detected |= self.report(out_index, golden_diff, word, sink);
                for &succ in self.netlist.fanout(gate.output) {
                    self.enqueue(succ);
                }
            }
        }

        // Restore only the touched nets of this word's scratch image.
        for &net in &touched {
            self.scratch[word][net] = self.golden_nets[word][net];
        }
        touched.clear();
        self.touched = touched;
        self.input_buf = input_buf;
        scan_obs::metrics::add("ppsfp.gate_evals", gate_evals);
        detected
    }

    /// Reports a net's diff word to every observer of the net. Returns
    /// whether anything was observed.
    fn report<S: FnMut(u32, usize, u64)>(
        &self,
        net: usize,
        diff: u64,
        word: usize,
        sink: &mut S,
    ) -> bool {
        if diff == 0 {
            return false;
        }
        let mut observed = false;
        for &pos in &self.observers[net] {
            sink(pos, word, diff);
            observed = true;
        }
        observed
    }

    fn enqueue(&mut self, gate: GateId) {
        if !self.queued[gate.index()] {
            self.queued[gate.index()] = true;
            let level = self.netlist.gate_level(gate) as usize;
            self.buckets[level].push(gate);
        }
    }

    /// Draws a reproducible sample of up to `count` *detected* faults
    /// together with the error maps that proved them detected, in one
    /// pass: the map computed for the detection check is the map the
    /// campaign keeps, so no fault is ever simulated twice.
    ///
    /// Samples from the exact candidate sequence of
    /// [`FaultSimulator::sample_detected_faults`](crate::FaultSimulator::sample_detected_faults)
    /// (same universe, same shuffle, same verdicts), so it draws the
    /// same faults as the oracle.
    pub fn sample_detected_with_maps(&mut self, count: usize, seed: u64) -> Vec<(Fault, ErrorMap)> {
        let _span = scan_obs::span!("sample_detected");
        let faults = shuffled_candidate_faults(self.netlist, seed);
        let mut detected = Vec::with_capacity(count);
        let mut tried = 0u64;
        for fault in faults {
            if detected.len() == count {
                break;
            }
            tried += 1;
            let map = self.error_map(&fault);
            if map.is_detected() {
                detected.push((fault, map));
            }
        }
        scan_obs::metrics::add("fault_sim.faults_tried", tried);
        scan_obs::metrics::add("fault_sim.faults_detected", detected.len() as u64);
        detected
    }

    /// Single-pass multiplet sampling: like
    /// [`PpsfpSimulator::sample_detected_with_maps`] but injecting
    /// `size` simultaneous faults per candidate chunk, matching
    /// [`FaultSimulator::sample_detected_multiplets`](crate::FaultSimulator::sample_detected_multiplets).
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn sample_detected_multiplets_with_maps(
        &mut self,
        count: usize,
        size: usize,
        seed: u64,
    ) -> Vec<(Vec<Fault>, ErrorMap)> {
        assert!(size >= 1, "multiplet size must be at least 1");
        let _span = scan_obs::span!("sample_detected");
        let faults = shuffled_candidate_faults(self.netlist, seed ^ MULTIPLET_SEED_TAG);
        let mut detected = Vec::with_capacity(count);
        let mut tried = 0u64;
        for chunk in faults.chunks_exact(size) {
            if detected.len() == count {
                break;
            }
            tried += 1;
            let map = self.error_map_multi(chunk);
            if map.is_detected() {
                detected.push((chunk.to_vec(), map));
            }
        }
        scan_obs::metrics::add("fault_sim.faults_tried", tried);
        scan_obs::metrics::add("fault_sim.faults_detected", detected.len() as u64);
        detected
    }
}

fn force_word(stuck: bool) -> u64 {
    if stuck {
        !0
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultUniverse;
    use crate::fault_sim::FaultSimulator;
    use scan_netlist::generate::{generate, profile};
    use scan_netlist::{bench, ScanView};

    #[test]
    fn matches_full_resimulation_on_s27() {
        let n = bench::s27();
        let view = ScanView::natural(&n, true);
        let patterns = PatternSet::pseudo_random(4, 3, 100, 7);
        let fsim = FaultSimulator::new(&n, &view, &patterns).unwrap();
        let mut psim = PpsfpSimulator::new(&n, &view, &patterns).unwrap();
        assert_eq!(fsim.golden(), psim.golden());
        for fault in FaultUniverse::all(&n).faults() {
            assert_eq!(
                fsim.error_map(fault),
                psim.error_map(fault),
                "fault {}",
                fault.describe(&n)
            );
        }
    }

    #[test]
    fn matches_full_resimulation_on_synthetic_circuit() {
        let p = profile("s344").unwrap();
        let n = generate(p, 5);
        let view = ScanView::natural(&n, true);
        let patterns = PatternSet::pseudo_random(n.num_inputs(), n.num_dffs(), 128, 3);
        let fsim = FaultSimulator::new(&n, &view, &patterns).unwrap();
        let mut psim = PpsfpSimulator::new(&n, &view, &patterns).unwrap();
        for fault in FaultUniverse::collapsed(&n).faults().iter().take(150) {
            assert_eq!(
                fsim.error_map(fault),
                psim.error_map(fault),
                "fault {}",
                fault.describe(&n)
            );
        }
    }

    #[test]
    fn multi_fault_matches_full_resimulation() {
        let p = profile("s344").unwrap();
        let n = generate(p, 9);
        let view = ScanView::natural(&n, true);
        let patterns = PatternSet::pseudo_random(n.num_inputs(), n.num_dffs(), 96, 11);
        let fsim = FaultSimulator::new(&n, &view, &patterns).unwrap();
        let mut psim = PpsfpSimulator::new(&n, &view, &patterns).unwrap();
        let universe = FaultUniverse::collapsed(&n);
        for chunk in universe.faults().chunks_exact(3).take(40) {
            assert_eq!(
                fsim.error_map_multi(chunk),
                psim.error_map_multi(chunk),
                "multiplet {:?}",
                chunk.iter().map(|f| f.describe(&n)).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn detects_agrees_with_error_map_and_drops_early() {
        let n = bench::s27();
        let view = ScanView::natural(&n, true);
        let patterns = PatternSet::pseudo_random(4, 3, 150, 3);
        let fsim = FaultSimulator::new(&n, &view, &patterns).unwrap();
        let mut psim = PpsfpSimulator::new(&n, &view, &patterns).unwrap();
        for fault in FaultUniverse::all(&n).faults() {
            assert_eq!(
                psim.detects(fault),
                fsim.is_detected(fault),
                "fault {}",
                fault.describe(&n)
            );
        }
    }

    #[test]
    fn dropping_leaves_no_residue() {
        // detects() early-exits mid-sweep; the next fault must still see
        // pristine scratch state: A (dropped), B, then A fully.
        let n = bench::s27();
        let view = ScanView::natural(&n, true);
        let patterns = PatternSet::pseudo_random(4, 3, 130, 1);
        let mut psim = PpsfpSimulator::new(&n, &view, &patterns).unwrap();
        let a = Fault::stem(n.find_net("G11").unwrap(), false);
        let b = Fault::stem(n.find_net("G8").unwrap(), true);
        let full_a = psim.error_map(&a);
        let _ = psim.detects(&a);
        let _ = psim.detects(&b);
        let _ = psim.error_map(&b);
        assert_eq!(full_a, psim.error_map(&a));
    }

    #[test]
    fn sampling_matches_reference_engine() {
        let n = bench::s27();
        let view = ScanView::natural(&n, true);
        let patterns = PatternSet::pseudo_random(4, 3, 128, 7);
        let fsim = FaultSimulator::new(&n, &view, &patterns).unwrap();
        let mut psim = PpsfpSimulator::new(&n, &view, &patterns).unwrap();
        let reference = fsim.sample_detected_faults(10, 1);
        let fused = psim.sample_detected_with_maps(10, 1);
        assert_eq!(
            reference,
            fused.iter().map(|(f, _)| *f).collect::<Vec<_>>()
        );
        for (fault, map) in &fused {
            assert_eq!(map, &fsim.error_map(fault));
        }
    }

    #[test]
    fn multiplet_sampling_matches_reference_engine() {
        let n = bench::s27();
        let view = ScanView::natural(&n, true);
        let patterns = PatternSet::pseudo_random(4, 3, 128, 7);
        let fsim = FaultSimulator::new(&n, &view, &patterns).unwrap();
        let mut psim = PpsfpSimulator::new(&n, &view, &patterns).unwrap();
        let reference = fsim.sample_detected_multiplets(5, 2, 1);
        let fused = psim.sample_detected_multiplets_with_maps(5, 2, 1);
        assert_eq!(
            reference,
            fused.iter().map(|(fs, _)| fs.clone()).collect::<Vec<_>>()
        );
        for (faults, map) in &fused {
            assert_eq!(map, &fsim.error_map_multi(faults));
        }
    }

    #[test]
    fn sweep_sink_reconstructs_error_map() {
        let n = bench::s27();
        let view = ScanView::natural(&n, true);
        let patterns = PatternSet::pseudo_random(4, 3, 100, 5);
        let mut psim = PpsfpSimulator::new(&n, &view, &patterns).unwrap();
        let fault = Fault::stem(n.find_net("G11").unwrap(), true);
        let mut bits = Vec::new();
        let detected = psim.sweep(std::slice::from_ref(&fault), |pos, word, diff| {
            let mut d = diff;
            while d != 0 {
                let lane = d.trailing_zeros() as usize;
                d &= d - 1;
                bits.push((pos as usize, word * 64 + lane));
            }
        });
        bits.sort_unstable();
        bits.dedup();
        let rebuilt = ErrorMap::from_bits(view.len(), 100, bits.iter().copied());
        let direct = psim.error_map(&fault);
        assert!(detected);
        assert_eq!(rebuilt, direct);
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let n = bench::s27();
        let view = ScanView::natural(&n, true);
        let bad = PatternSet::pseudo_random(5, 3, 64, 7);
        assert!(PpsfpSimulator::new(&n, &view, &bad).is_err());
    }
}
