//! PODEM: path-oriented decision making for stuck-at test generation.
//!
//! The implementation follows the classical algorithm: decisions are
//! made only on primary inputs (and, under full scan, flip-flop state
//! bits), implications run a full five-valued forward simulation with
//! the fault injected, objectives alternate between fault activation
//! and D-frontier advancement, and backtracking is bounded.

use scan_netlist::scoap::Scoap;
use scan_netlist::{Driver, NetId, Netlist};
use scan_sim::{Fault, FaultSite};

use crate::logic::{eval_gate, Trit, V5};
use crate::pattern::TestPattern;

/// Resource limits for one PODEM run.
#[derive(Clone, Copy, Debug)]
pub struct PodemLimits {
    /// Maximum decision backtracks before aborting.
    pub max_backtracks: usize,
}

impl Default for PodemLimits {
    fn default() -> Self {
        PodemLimits {
            max_backtracks: 400,
        }
    }
}

/// The outcome of one test generation attempt.
#[derive(Clone, Eq, PartialEq, Debug)]
pub enum PodemResult {
    /// A test cube that detects the fault.
    Test(TestPattern),
    /// The fault is proven untestable (the full decision space was
    /// exhausted without a test): it is *redundant* under single
    /// stuck-at semantics.
    Untestable,
    /// The backtrack limit was hit before a conclusion.
    Aborted,
}

/// One decision point: which input, which value, whether the
/// alternative value was already tried.
#[derive(Clone, Copy, Debug)]
struct Decision {
    input: usize,
    tried_both: bool,
}

/// A PODEM test generator bound to one circuit.
///
/// # Examples
///
/// ```
/// use scan_netlist::bench;
/// use scan_sim::Fault;
/// use scan_atpg::{Podem, PodemResult};
///
/// let s27 = bench::s27();
/// let g10 = s27.find_net("G10").expect("net exists");
/// let mut podem = Podem::new(&s27);
/// match podem.generate(&Fault::stem(g10, true), &Default::default()) {
///     PodemResult::Test(cube) => assert!(cube.specified_bits() > 0),
///     other => panic!("expected a test, got {other:?}"),
/// }
/// ```
pub struct Podem<'a> {
    netlist: &'a Netlist,
    /// Decision inputs: PIs first, then flip-flop state bits, each
    /// identified by the net it drives.
    input_nets: Vec<NetId>,
    /// Per-net current five-valued value.
    values: Vec<V5>,
    /// SCOAP measures guiding backtrace input choice.
    scoap: Scoap,
    /// Backtracks spent across all calls (instrumentation).
    total_backtracks: usize,
}

impl<'a> Podem<'a> {
    /// Creates a generator for the circuit.
    #[must_use]
    pub fn new(netlist: &'a Netlist) -> Self {
        let mut input_nets: Vec<NetId> = netlist.inputs().to_vec();
        input_nets.extend(netlist.dffs().iter().map(|d| d.q));
        Podem {
            netlist,
            input_nets,
            values: vec![V5::X; netlist.num_nets()],
            scoap: Scoap::compute(netlist),
            total_backtracks: 0,
        }
    }

    /// Total backtracks spent across every [`Podem::generate`] call on
    /// this instance (search-effort instrumentation).
    #[must_use]
    pub fn total_backtracks(&self) -> usize {
        self.total_backtracks
    }

    /// Attempts to generate a test for `fault`.
    pub fn generate(&mut self, fault: &Fault, limits: &PodemLimits) -> PodemResult {
        let mut assignment: Vec<Trit> = vec![Trit::X; self.input_nets.len()];
        let mut stack: Vec<Decision> = Vec::new();
        let mut backtracks = 0usize;

        self.imply(fault, &assignment);
        loop {
            if self.test_found() {
                return PodemResult::Test(self.cube_from(&assignment));
            }
            let objective = self.pick_objective(fault);
            let backtraced = objective.and_then(|(net, value)| self.backtrace(net, value));
            match backtraced {
                Some((input, value)) if assignment[input] == Trit::X => {
                    assignment[input] = value;
                    stack.push(Decision {
                        input,
                        tried_both: false,
                    });
                    self.imply(fault, &assignment);
                }
                _ => {
                    // No objective can be advanced: backtrack.
                    loop {
                        let Some(top) = stack.last_mut() else {
                            return PodemResult::Untestable;
                        };
                        if top.tried_both {
                            assignment[top.input] = Trit::X;
                            stack.pop();
                            continue;
                        }
                        top.tried_both = true;
                        assignment[top.input] = !assignment[top.input];
                        backtracks += 1;
                        self.total_backtracks += 1;
                        if backtracks > limits.max_backtracks {
                            return PodemResult::Aborted;
                        }
                        break;
                    }
                    self.imply(fault, &assignment);
                }
            }
        }
    }

    /// Full five-valued forward implication with the fault injected.
    fn imply(&mut self, fault: &Fault, assignment: &[Trit]) {
        for v in &mut self.values {
            *v = V5::X;
        }
        for (i, &net) in self.input_nets.iter().enumerate() {
            self.values[net.index()] = match assignment[i] {
                Trit::Zero => V5::Zero,
                Trit::One => V5::One,
                Trit::X => V5::X,
            };
        }
        // Stem faults on source nets activate directly.
        if let FaultSite::Stem(net) = fault.site {
            if matches!(
                self.netlist.driver(net),
                Driver::PrimaryInput | Driver::Dff(_)
            ) {
                self.values[net.index()] = inject(self.values[net.index()], fault.stuck);
            }
        }
        let mut inputs: Vec<V5> = Vec::with_capacity(4);
        for &gid in self.netlist.topo_order() {
            let gate = self.netlist.gate(gid);
            inputs.clear();
            inputs.extend(gate.inputs.iter().map(|n| self.values[n.index()]));
            if let FaultSite::Pin { gate: fgate, pin } = fault.site {
                if fgate == gid {
                    inputs[pin as usize] = inject(inputs[pin as usize], fault.stuck);
                }
            }
            let mut out = eval_gate(gate.kind, &inputs);
            if let FaultSite::Stem(net) = fault.site {
                if net == gate.output {
                    out = inject(out, fault.stuck);
                }
            }
            self.values[gate.output.index()] = out;
        }
    }

    /// A fault effect at any observation point (PO or flip-flop data
    /// input) means a test is found.
    fn test_found(&self) -> bool {
        self.netlist
            .outputs()
            .iter()
            .map(|&net| self.values[net.index()])
            .chain(self.netlist.dffs().iter().map(|d| self.values[d.d.index()]))
            .any(V5::is_fault_effect)
    }

    /// Picks the next objective `(net, desired good-machine value)`.
    ///
    /// If the fault is not activated yet (no `D`/`D̄` anywhere), the
    /// objective is to set the fault site to the opposite of the stuck
    /// value. Otherwise a D-frontier gate (output `X`, some input
    /// `D`/`D̄`) is advanced by setting one of its `X` inputs to the
    /// non-controlling value.
    fn pick_objective(&self, fault: &Fault) -> Option<(NetId, bool)> {
        let site_net = match fault.site {
            FaultSite::Stem(net) => net,
            FaultSite::Pin { gate, pin } => self.netlist.gate(gate).inputs[pin as usize],
        };
        let site_value = self.values[site_net.index()];
        // Activation: the good machine must drive the site to !stuck.
        match site_value.good() {
            Trit::X => return Some((site_net, !fault.stuck)),
            good if good == Trit::from_bool(fault.stuck) => {
                // Site pinned at the stuck value: this branch cannot
                // activate the fault.
                return None;
            }
            _ => {}
        }
        // For a pin fault the fault effect lives *inside* the faulted
        // gate until its other inputs sensitize it; treat that gate as
        // the first D-frontier member.
        if let FaultSite::Pin { gate, .. } = fault.site {
            let g = self.netlist.gate(gate);
            if self.values[g.output.index()] == V5::X {
                if let Some(&x_input) = g.inputs.iter().find(|n| self.values[n.index()] == V5::X) {
                    let non_controlling = g.kind.controlling_value().is_none_or(|c| !c);
                    return Some((x_input, non_controlling));
                }
            }
        }
        // Propagation objective: advance the D-frontier.
        for &gid in self.netlist.topo_order() {
            let gate = self.netlist.gate(gid);
            if self.values[gate.output.index()] != V5::X {
                continue;
            }
            let has_effect = gate
                .inputs
                .iter()
                .any(|n| self.values[n.index()].is_fault_effect());
            if !has_effect {
                continue;
            }
            if let Some(&x_input) = gate.inputs.iter().find(|n| self.values[n.index()] == V5::X) {
                let non_controlling = gate.kind.controlling_value().is_none_or(|c| !c);
                return Some((x_input, non_controlling));
            }
        }
        None
    }

    /// Walks an objective backward to an unassigned decision input,
    /// inverting the desired value through inverting gates.
    fn backtrace(&self, mut net: NetId, mut value: bool) -> Option<(usize, Trit)> {
        loop {
            match self.netlist.driver(net) {
                Driver::PrimaryInput | Driver::Dff(_) => {
                    let index = self.input_nets.iter().position(|&n| n == net)?;
                    if self.values[net.index()] != V5::X {
                        return None;
                    }
                    return Some((index, Trit::from_bool(value)));
                }
                Driver::Gate(gid) => {
                    let gate = self.netlist.gate(gid);
                    if gate.kind.is_inverting() {
                        value = !value;
                    }
                    // Standard SCOAP-guided multiple-backtrace choice:
                    // if one input suffices (the target value is the
                    // controlled output of a controlling input), take
                    // the *easiest* input; if all inputs are needed,
                    // take the *hardest* so conflicts surface early.
                    let needs_all = match gate.kind.controlling_value() {
                        Some(c) => value != c, // AND/NAND need all 1s for 1 etc.
                        None => false,
                    };
                    let x_inputs = gate
                        .inputs
                        .iter()
                        .filter(|n| self.values[n.index()] == V5::X);
                    let chosen = if needs_all {
                        x_inputs.max_by_key(|n| self.scoap.cc(**n, value))
                    } else {
                        x_inputs.min_by_key(|n| self.scoap.cc(**n, value))
                    };
                    let fallback = chosen.or_else(|| gate.inputs.first())?;
                    net = *fallback;
                }
            }
        }
    }

    fn cube_from(&self, assignment: &[Trit]) -> TestPattern {
        let num_pis = self.netlist.num_inputs();
        TestPattern {
            pi: assignment[..num_pis].to_vec(),
            state: assignment[num_pis..].to_vec(),
        }
    }
}

fn inject(value: V5, stuck: bool) -> V5 {
    // The faulty machine sees the stuck value; the good machine keeps
    // its own.
    let faulty = Trit::from_bool(stuck);
    V5::from_parts(value.good(), faulty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scan_netlist::bench;
    use scan_netlist::Netlist;

    fn assert_is_test(netlist: &Netlist, fault: &Fault, cube: &TestPattern) {
        // Verify with the independent bit-parallel simulator: the cube,
        // X-filled, must flip at least one observed value.
        use scan_netlist::ScanView;
        use scan_sim::{FaultSimulator, PatternSet};
        let (pi, state) = cube.x_fill(0);
        let mut pi_iter = pi.iter();
        let mut st_iter = state.iter();
        let patterns = PatternSet::from_bit_stream(
            netlist.num_inputs(),
            netlist.num_dffs(),
            1,
            // Scan order: state bits first, then PIs.
            || {
                if let Some(&b) = st_iter.next() {
                    b
                } else {
                    *pi_iter.next().expect("enough bits")
                }
            },
        );
        let view = ScanView::natural(netlist, true);
        let fsim = FaultSimulator::new(netlist, &view, &patterns).unwrap();
        assert!(
            fsim.is_detected(fault),
            "cube does not detect {}",
            fault.describe(netlist)
        );
    }

    #[test]
    fn generates_tests_for_all_detectable_s27_faults() {
        let n = bench::s27();
        let universe = scan_sim::FaultUniverse::collapsed(&n);
        let mut podem = Podem::new(&n);
        let mut tests = 0;
        let mut untestable = 0;
        for fault in universe.faults() {
            match podem.generate(fault, &PodemLimits::default()) {
                PodemResult::Test(cube) => {
                    assert_is_test(&n, fault, &cube);
                    tests += 1;
                }
                PodemResult::Untestable => untestable += 1,
                PodemResult::Aborted => panic!("s27 fault aborted: {}", fault.describe(&n)),
            }
        }
        // s27 is fully testable for collapsed stuck-at faults.
        assert!(tests > 0);
        assert_eq!(untestable, 0, "s27 has no redundant collapsed faults");
    }

    #[test]
    fn proves_redundant_fault_untestable() {
        // y = OR(a, NOT(a)) is constant 1: y stuck-at-1 is redundant.
        let n = Netlist::from_bench(
            "redundant",
            "INPUT(a)\nOUTPUT(y)\nna = NOT(a)\ny = OR(a, na)\n",
        )
        .unwrap();
        let y = n.find_net("y").unwrap();
        let mut podem = Podem::new(&n);
        assert_eq!(
            podem.generate(&Fault::stem(y, true), &PodemLimits::default()),
            PodemResult::Untestable
        );
        // y stuck-at-0 is testable (any input works).
        assert!(matches!(
            podem.generate(&Fault::stem(y, false), &PodemLimits::default()),
            PodemResult::Test(_)
        ));
    }

    #[test]
    fn pin_faults_get_tests() {
        let n = bench::s27();
        let mut podem = Podem::new(&n);
        let universe = scan_sim::FaultUniverse::all(&n);
        let pin_faults: Vec<&Fault> = universe
            .faults()
            .iter()
            .filter(|f| matches!(f.site, FaultSite::Pin { .. }))
            .collect();
        assert!(!pin_faults.is_empty());
        let mut found = 0;
        for fault in pin_faults {
            if let PodemResult::Test(cube) = podem.generate(fault, &PodemLimits::default()) {
                assert_is_test(&n, fault, &cube);
                found += 1;
            }
        }
        assert!(found > 0);
    }

    #[test]
    fn synthetic_circuit_tests_verify() {
        let n = scan_netlist::generate::benchmark("s298");
        let universe = scan_sim::FaultUniverse::collapsed(&n);
        let mut podem = Podem::new(&n);
        let mut tested = 0;
        for fault in universe.faults().iter().take(120) {
            if let PodemResult::Test(cube) = podem.generate(fault, &PodemLimits::default()) {
                assert_is_test(&n, fault, &cube);
                tested += 1;
            }
        }
        assert!(tested > 30, "only {tested} testable faults found");
    }
}
