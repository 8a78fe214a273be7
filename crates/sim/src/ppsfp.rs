//! Bit-parallel PPSFP fault simulation with fault dropping.
//!
//! PPSFP (parallel-pattern single-fault propagation) simulates 64 BIST
//! patterns per `u64` word pass over the netlist. This engine combines
//! that word layout with cone-limited event propagation, so a fault
//! costs only its touched nets — there is no whole-circuit
//! re-evaluation, unlike the reference oracle
//! [`FaultSimulator`](crate::FaultSimulator).
//!
//! The fault-free values and the scratch image the sweeps dirty are
//! stored net-major, `[net * words + word]`, so a net's pattern words
//! sit side by side. One levelized event sweep carries up to 64 pattern
//! words (4 096 patterns) of a fault: each queued gate holds a `u64`
//! mask of the words in which one of its inputs changed, and evaluates
//! exactly those words. The cone is walked once per sweep rather than
//! once per word, and the work counted (`ppsfp.gate_evals`, gate·word
//! evaluations) is the same as a separate sweep per word would do.
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
//! * **Sparse error maps.** [`PpsfpSimulator::sweep`] streams packed
//!   `(position, word, diff)` triples to a caller-supplied sink during
//!   the propagation sweep itself. [`PpsfpSimulator::error_map`] keeps
//!   exactly those triples as a sparse [`ErrorMap`], so a fault costs
//!   its observed error words, never a chain-sized map, and MISR
//!   signature accumulation (`DiagnosisPlan::analyze_packed` in
//!   `scan-diagnosis`) consumes the words without a per-bit pass.
//!
//! The engine is bit-exact with the oracle; the differential harness
//! `tests/engine_diff.rs` proves it over generated circuits, pattern
//! counts, scan orderings, and sampled fault and multiplet lists.

use std::ops::Range;

use scan_netlist::{GateId, NetId, Netlist, ScanView};

use crate::error::PatternShapeError;
use crate::fault::{Fault, FaultSite};
use crate::fault_sim::{shuffled_candidate_faults, MULTIPLET_SEED_TAG};
use crate::pattern::PatternSet;
use crate::response::{ErrorMap, ResponseMap};
use crate::simulator::check_shape;

/// Pattern words one event sweep carries, one bit each in a gate's
/// pending-word mask.
const SWEEP_WORDS: usize = 64;

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
    /// Pattern words per net.
    words: usize,
    /// Fault-free net values, net-major: `golden_nets[net * words + word]`.
    golden_nets: Vec<u64>,
    /// Fault-free observed response (lane-masked).
    golden: ResponseMap,
    /// Observation positions per net (a net can be both a PO and a DFF
    /// data input).
    observers: Vec<Vec<u32>>,
    /// Scratch image of the net values, laid out like `golden_nets`.
    /// Between sweeps it equals `golden_nets`; a sweep dirties only the
    /// nets a fault touches and restores exactly those rows.
    scratch: Vec<u64>,
    /// Words still to evaluate per gate in the current sweep, bit `i`
    /// for the sweep's `i`-th word; a gate is queued exactly when its
    /// mask is nonzero.
    pending: Vec<u64>,
    /// Worklist buckets by gate level.
    buckets: Vec<Vec<GateId>>,
    /// Reused gate-input buffer (avoids a heap allocation per event).
    input_buf: Vec<u64>,
    /// Reused stem forcings of the current sweep.
    forced_stems: Vec<(NetId, u64)>,
    /// Reused touched-net list.
    touched: Vec<usize>,
}

impl<'a> PpsfpSimulator<'a> {
    /// Creates the simulator and computes the fault-free values of
    /// every net for every pattern word (under the `golden` span, like
    /// the oracle): one topological pass evaluates each gate in every
    /// word, writing straight into the net-major image.
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
        check_shape(netlist, patterns)?;
        let words = patterns.num_words();
        let mut golden_nets = vec![0u64; netlist.num_nets() * words];
        for (pi, &net) in netlist.inputs().iter().enumerate() {
            let row = net.index() * words;
            for word in 0..words {
                golden_nets[row + word] = patterns.pi_word(pi, word);
            }
        }
        for (ff, dff) in netlist.dffs().iter().enumerate() {
            let row = dff.q.index() * words;
            for word in 0..words {
                golden_nets[row + word] = patterns.state_word(ff, word);
            }
        }
        let mut input_buf = Vec::with_capacity(8);
        for &gid in netlist.topo_order() {
            let gate = netlist.gate(gid);
            let row = gate.output.index() * words;
            for word in 0..words {
                input_buf.clear();
                input_buf.extend(
                    gate.inputs
                        .iter()
                        .map(|n| golden_nets[n.index() * words + word]),
                );
                golden_nets[row + word] = gate.kind.eval_words(&input_buf);
            }
        }
        let mut observers = vec![Vec::new(); netlist.num_nets()];
        let mut golden = ResponseMap::zeroed(view.len(), patterns.num_patterns());
        for pos in 0..view.len() {
            let net = view.observed_net(netlist, pos);
            observers[net.index()].push(pos as u32);
            for word in 0..words {
                let value = golden_nets[net.index() * words + word];
                golden.set_word(pos, word, value & patterns.lane_mask(word));
            }
        }
        let depth = netlist.depth() as usize;
        Ok(PpsfpSimulator {
            netlist,
            patterns,
            view_len: view.len(),
            words,
            scratch: golden_nets.clone(),
            golden_nets,
            golden,
            observers,
            pending: vec![0; netlist.num_gates()],
            buckets: vec![Vec::new(); depth + 2],
            input_buf,
            forced_stems: Vec::new(),
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
        let mut words = Vec::new();
        self.sweep(faults, |pos, word, diff| {
            words.push((pos, word as u32, diff));
        });
        ErrorMap::from_words(self.view_len, self.patterns.num_patterns(), words)
    }

    /// Returns `true` if the fault flips at least one observed bit,
    /// *dropping* the fault at the first failing pattern word: once its
    /// failing status is resolved the remaining words are never swept.
    ///
    /// Identical verdict to `error_map(fault).is_detected()`.
    pub fn detects(&mut self, fault: &Fault) -> bool {
        let faults = std::slice::from_ref(fault);
        let words = self.words;
        for word in 0..words {
            if self.propagate(word..word + 1, faults, &mut |_, _, _| {}) {
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
        for start in (0..self.words).step_by(SWEEP_WORDS) {
            let end = (start + SWEEP_WORDS).min(self.words);
            detected |= self.propagate(start..end, faults, &mut sink);
        }
        detected
    }

    /// Propagates `faults` through the pattern words in `words` (at most
    /// [`SWEEP_WORDS`]) by one levelized event sweep, reporting observed
    /// diffs to `sink`. Returns whether any observed diff occurred.
    /// Scratch is restored before returning.
    fn propagate<S: FnMut(u32, usize, u64)>(
        &mut self,
        words: Range<usize>,
        faults: &[Fault],
        sink: &mut S,
    ) -> bool {
        scan_obs::metrics::add("ppsfp.words_swept", words.len() as u64);
        let stride = self.words;
        let mut touched = std::mem::take(&mut self.touched);
        let mut input_buf = std::mem::take(&mut self.input_buf);
        let mut forced_stems = std::mem::take(&mut self.forced_stems);
        let mut detected = false;
        let mut gate_evals = 0u64;

        // Seed the worklist. Stem forcings apply in slice order (last
        // wins, matching `Simulator::eval_word_multi`); the final value
        // of each forced net stays pinned for the whole sweep. A pin
        // fault's gate is evaluated in every swept word.
        forced_stems.clear();
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
                FaultSite::Pin { gate, .. } => self.enqueue(gate, !0 >> (64 - words.len())),
            }
        }
        for &(net, forced) in &forced_stems {
            let mut changed = 0u64;
            let row = net.index() * stride;
            for word in words.clone() {
                let diff = (self.scratch[row + word] ^ forced) & self.patterns.lane_mask(word);
                if diff != 0 {
                    self.scratch[row + word] = forced;
                    changed |= 1 << (word - words.start);
                    detected |= self.report(net.index(), diff, word, sink);
                }
            }
            self.fan_out(net, changed, &mut touched);
        }

        // Levelized propagation: fanout always points to strictly
        // higher levels, so each gate is evaluated at most once per word.
        for level in 0..self.buckets.len() {
            while let Some(gid) = self.buckets[level].pop() {
                let out = self.netlist.gate(gid).output;
                if forced_stems.iter().any(|&(n, _)| n == out) {
                    // The output is pinned by a stem fault; input
                    // changes cannot move it.
                    self.pending[gid.index()] = 0;
                    continue;
                }
                gate_evals += u64::from(self.pending[gid.index()].count_ones());
                let changed = self.eval_gate(
                    gid,
                    words.start,
                    faults,
                    &mut input_buf,
                    &mut detected,
                    sink,
                );
                self.fan_out(out, changed, &mut touched);
            }
        }

        // Restore only the touched nets' swept words.
        for &net in &touched {
            for at in net * stride + words.start..net * stride + words.end {
                self.scratch[at] = self.golden_nets[at];
            }
        }
        touched.clear();
        self.touched = touched;
        self.input_buf = input_buf;
        self.forced_stems = forced_stems;
        scan_obs::metrics::add("ppsfp.gate_evals", gate_evals);
        detected
    }

    /// Evaluates gate `gid` in each of its pending words (bit `i` is
    /// word `first + i`) and clears them. Reports the diffs of the words
    /// in which its output moved to `sink`, setting `detected` if any
    /// was observed, and returns the mask of those words.
    fn eval_gate<S: FnMut(u32, usize, u64)>(
        &mut self,
        gid: GateId,
        first: usize,
        faults: &[Fault],
        input_buf: &mut Vec<u64>,
        detected: &mut bool,
        sink: &mut S,
    ) -> u64 {
        let gate = self.netlist.gate(gid);
        let stride = self.words;
        let out = gate.output.index();
        let mut changed = 0u64;
        let mut bits = std::mem::take(&mut self.pending[gid.index()]);
        while bits != 0 {
            let bit = bits.trailing_zeros();
            bits &= bits - 1;
            let word = first + bit as usize;
            input_buf.clear();
            input_buf.extend(
                gate.inputs
                    .iter()
                    .map(|n| self.scratch[n.index() * stride + word]),
            );
            for fault in faults {
                if let FaultSite::Pin { gate: fgate, pin } = fault.site {
                    if fgate == gid {
                        input_buf[pin as usize] = force_word(fault.stuck);
                    }
                }
            }
            let new = gate.kind.eval_words(input_buf);
            let lane_mask = self.patterns.lane_mask(word);
            let at = out * stride + word;
            if (new ^ self.scratch[at]) & lane_mask == 0 {
                continue;
            }
            self.scratch[at] = new;
            changed |= 1 << bit;
            let golden_diff = (new ^ self.golden_nets[at]) & lane_mask;
            *detected |= self.report(out, golden_diff, word, sink);
        }
        changed
    }

    /// If `net` changed in any word of `changed`, records it touched
    /// and queues its fanout gates in those words.
    fn fan_out(&mut self, net: NetId, changed: u64, touched: &mut Vec<usize>) {
        if changed == 0 {
            return;
        }
        touched.push(net.index());
        for &g in self.netlist.fanout(net) {
            self.enqueue(g, changed);
        }
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

    /// Adds the words of mask `words` to `gate`'s pending words,
    /// queueing the gate if it had none.
    fn enqueue(&mut self, gate: GateId, words: u64) {
        let pending = &mut self.pending[gate.index()];
        if *pending == 0 {
            let level = self.netlist.gate_level(gate) as usize;
            self.buckets[level].push(gate);
        }
        *pending |= words;
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
        let mut faults = shuffled_candidate_faults(self.netlist, seed ^ MULTIPLET_SEED_TAG);
        let mut detected = Vec::with_capacity(count);
        let mut tried = 0u64;
        let mut chunk = Vec::with_capacity(size);
        while detected.len() < count {
            chunk.clear();
            chunk.extend(faults.by_ref().take(size));
            if chunk.len() < size {
                break;
            }
            tried += 1;
            let map = self.error_map_multi(&chunk);
            if map.is_detected() {
                detected.push((chunk.clone(), map));
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
    fn golden_image_matches_the_oracle_at_word_edges() {
        // A gate reading one net on two pins, DFF state feeding back,
        // and a net observed both as a PO and as a DFF data input.
        let mut b = scan_netlist::NetlistBuilder::new("twopin");
        b.input("a");
        b.input("b");
        b.dff("q", "d");
        b.gate(scan_netlist::GateKind::Xor, "y", &["a", "q"]);
        b.gate(scan_netlist::GateKind::Nand, "z", &["y", "y"]);
        b.gate(scan_netlist::GateKind::Not, "w", &["z"]);
        b.gate(scan_netlist::GateKind::Or, "d", &["w", "b"]);
        b.output("z");
        b.output("d");
        let circuits = [
            bench::s27(),
            generate(profile("s953").unwrap(), 3),
            b.finish().unwrap(),
        ];
        for n in &circuits {
            let view = ScanView::natural(n, true);
            for count in [1, 63, 64, 65, 200, 4_200] {
                let patterns = PatternSet::pseudo_random(n.num_inputs(), n.num_dffs(), count, 11);
                let fsim = FaultSimulator::new(n, &view, &patterns).unwrap();
                let psim = PpsfpSimulator::new(n, &view, &patterns).unwrap();
                assert_eq!(psim.golden(), fsim.golden(), "{} at {count}", n.name());
            }
        }
    }

    #[test]
    fn sweeps_longer_than_one_mask_match_full_resimulation() {
        // 4 200 patterns: 66 words, so `sweep` runs two event sweeps
        // and the second one's last word is partial.
        let n = bench::s27();
        let view = ScanView::natural(&n, true);
        let patterns = PatternSet::pseudo_random(4, 3, 4_200, 5);
        let fsim = FaultSimulator::new(&n, &view, &patterns).unwrap();
        let mut psim = PpsfpSimulator::new(&n, &view, &patterns).unwrap();
        let faults = FaultUniverse::all(&n);
        for fault in faults.faults() {
            assert_eq!(fsim.error_map(fault), psim.error_map(fault));
            assert_eq!(psim.detects(fault), fsim.is_detected(fault));
        }
        for pair in faults.faults().chunks_exact(2) {
            assert_eq!(fsim.error_map_multi(pair), psim.error_map_multi(pair));
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
        assert_eq!(reference, fused.iter().map(|(f, _)| *f).collect::<Vec<_>>());
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
