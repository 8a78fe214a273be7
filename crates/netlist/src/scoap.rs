//! SCOAP testability measures.
//!
//! The Sandia Controllability/Observability Analysis Program metrics
//! (Goldstein, 1979) estimate, per net, how hard it is to *control* the
//! net to 0 or 1 (`CC0`/`CC1`) and to *observe* it at an output
//! (`CO`), counting the number of circuit nodes that must be assigned.
//! They are the standard cheap testability proxy: ATPG uses them to
//! order backtrace choices, and DFT engineers use them to spot
//! hard-to-test regions.
//!
//! Under the full-scan assumption, primary inputs and flip-flop outputs
//! are directly controllable (cost 1) and flip-flop data inputs are
//! directly observable (cost 0), so the combinational formulation
//! applies to the whole circuit.

use crate::gate::{Driver, GateKind, NetId};
use crate::Netlist;

/// Cost value used for unreachable/uncomputed measures.
pub const SCOAP_INFINITY: u32 = u32::MAX / 4;

/// Per-net SCOAP measures.
#[derive(Clone, Debug)]
pub struct Scoap {
    cc0: Vec<u32>,
    cc1: Vec<u32>,
    co: Vec<u32>,
}

impl Scoap {
    /// Computes combinational SCOAP for a full-scan netlist.
    #[must_use]
    #[allow(clippy::too_many_lines)]
    pub fn compute(netlist: &Netlist) -> Self {
        let n = netlist.num_nets();
        let mut cc0 = vec![SCOAP_INFINITY; n];
        let mut cc1 = vec![SCOAP_INFINITY; n];
        // Sources: PIs and scan flip-flop outputs cost 1 either way.
        for net in netlist.net_ids() {
            if matches!(netlist.driver(net), Driver::PrimaryInput | Driver::Dff(_)) {
                cc0[net.index()] = 1;
                cc1[net.index()] = 1;
            }
        }
        // Controllability: forward pass in topological order.
        for &gid in netlist.topo_order() {
            let gate = netlist.gate(gid);
            let out = gate.output.index();
            let ins: Vec<(u32, u32)> = gate
                .inputs
                .iter()
                .map(|i| (cc0[i.index()], cc1[i.index()]))
                .collect();
            let sum0: u32 = ins.iter().map(|&(a, _)| a).sum::<u32>().min(SCOAP_INFINITY);
            let sum1: u32 = ins.iter().map(|&(_, b)| b).sum::<u32>().min(SCOAP_INFINITY);
            let min0 = ins.iter().map(|&(a, _)| a).min().unwrap_or(SCOAP_INFINITY);
            let min1 = ins.iter().map(|&(_, b)| b).min().unwrap_or(SCOAP_INFINITY);
            let (c0, c1) = match gate.kind {
                // AND: output 1 needs all inputs 1; output 0 needs the
                // cheapest input at 0.
                GateKind::And => (min0 + 1, sum1 + 1),
                GateKind::Nand => (sum1 + 1, min0 + 1),
                GateKind::Or => (sum0 + 1, min1 + 1),
                GateKind::Nor => (min1 + 1, sum0 + 1),
                GateKind::Not => (ins[0].1 + 1, ins[0].0 + 1),
                GateKind::Buf => (ins[0].0 + 1, ins[0].1 + 1),
                // XOR/XNOR: parity; cost over the cheapest parity-
                // consistent assignment (exact for 2 inputs, a standard
                // approximation for wider gates).
                GateKind::Xor | GateKind::Xnor => {
                    let (even, odd) = parity_costs(&ins);
                    if gate.kind == GateKind::Xor {
                        (even + 1, odd + 1)
                    } else {
                        (odd + 1, even + 1)
                    }
                }
            };
            cc0[out] = c0.min(SCOAP_INFINITY);
            cc1[out] = c1.min(SCOAP_INFINITY);
        }
        // Observability: backward pass. Observation points cost 0.
        let mut co = vec![SCOAP_INFINITY; n];
        for &net in netlist.outputs() {
            co[net.index()] = 0;
        }
        for dff in netlist.dffs() {
            co[dff.d.index()] = 0;
        }
        for &gid in netlist.topo_order().iter().rev() {
            let gate = netlist.gate(gid);
            let out_co = co[gate.output.index()];
            if out_co >= SCOAP_INFINITY {
                continue;
            }
            for (pin, &input) in gate.inputs.iter().enumerate() {
                // To observe input `pin`, the other inputs must be set
                // to non-controlling (non-masking) values and the output
                // observed.
                let side_cost: u32 = gate
                    .inputs
                    .iter()
                    .enumerate()
                    .filter(|&(k, _)| k != pin)
                    .map(|(_, other)| {
                        let o = other.index();
                        match gate.kind {
                            GateKind::And | GateKind::Nand => cc1[o],
                            GateKind::Or | GateKind::Nor => cc0[o],
                            // XOR side inputs just need a known value.
                            GateKind::Xor | GateKind::Xnor => cc0[o].min(cc1[o]),
                            GateKind::Not | GateKind::Buf => 0,
                        }
                    })
                    .fold(0u32, u32::saturating_add);
                let cost = out_co
                    .saturating_add(side_cost)
                    .saturating_add(1)
                    .min(SCOAP_INFINITY);
                let i = input.index();
                co[i] = co[i].min(cost);
            }
        }
        Scoap { cc0, cc1, co }
    }

    /// Cost of controlling `net` to 0.
    #[must_use]
    pub fn cc0(&self, net: NetId) -> u32 {
        self.cc0[net.index()]
    }

    /// Cost of controlling `net` to 1.
    #[must_use]
    pub fn cc1(&self, net: NetId) -> u32 {
        self.cc1[net.index()]
    }

    /// Cost of controlling `net` to the given value.
    #[must_use]
    pub fn cc(&self, net: NetId, value: bool) -> u32 {
        if value {
            self.cc1(net)
        } else {
            self.cc0(net)
        }
    }

    /// Cost of observing `net`.
    #[must_use]
    pub fn co(&self, net: NetId) -> u32 {
        self.co[net.index()]
    }
}

/// Suggests per-source 1-probabilities for weighted-random pattern
/// generation: each primary input and flip-flop state bit is biased
/// toward the *non-controlling* value its fanout pins want most, so
/// deep AND/OR structures are sensitized more often than uniform
/// patterns manage (the classical weighted-random BIST heuristic).
///
/// Returns `(pi_weights, state_weights)` in [`Netlist::inputs`] and
/// [`Netlist::dffs`] order; weights are Laplace-smoothed into
/// `[1/(n+2), (n+1)/(n+2)]` so no bit is ever constant.
#[must_use]
pub fn suggested_input_weights(netlist: &Netlist) -> (Vec<f64>, Vec<f64>) {
    let weight_for = |net: NetId| -> f64 {
        let mut want_one = 0usize;
        let mut total = 0usize;
        for &gid in netlist.fanout(net) {
            let gate = netlist.gate(gid);
            for &input in &gate.inputs {
                if input != net {
                    continue;
                }
                total += 1;
                // The non-controlling value keeps this pin from masking
                // the gate: 1 for AND/NAND, 0 for OR/NOR.
                if let Some(c) = gate.kind.controlling_value() {
                    if !c {
                        want_one += 1;
                    }
                } else {
                    // XOR/unary pins have no preference; split the vote.
                    total += 1;
                    want_one += 1;
                }
            }
        }
        (want_one + 1) as f64 / (total + 2) as f64
    };
    let pi = netlist.inputs().iter().map(|&n| weight_for(n)).collect();
    let state = netlist.dffs().iter().map(|d| weight_for(d.q)).collect();
    (pi, state)
}

/// Costs of achieving even / odd parity over the inputs: dynamic sweep
/// tracking the cheapest assignment of each parity class.
fn parity_costs(ins: &[(u32, u32)]) -> (u32, u32) {
    let mut even = 0u32; // all-zeros so far
    let mut odd = SCOAP_INFINITY;
    for &(c0, c1) in ins {
        let new_even = (even.saturating_add(c0)).min(odd.saturating_add(c1));
        let new_odd = (even.saturating_add(c1)).min(odd.saturating_add(c0));
        even = new_even.min(SCOAP_INFINITY);
        odd = new_odd.min(SCOAP_INFINITY);
    }
    (even, odd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench;
    use crate::Netlist;

    #[test]
    fn sources_cost_one_each_way() {
        let n = bench::s27();
        let s = Scoap::compute(&n);
        for net in n.net_ids() {
            if matches!(n.driver(net), Driver::PrimaryInput | Driver::Dff(_)) {
                assert_eq!(s.cc0(net), 1);
                assert_eq!(s.cc1(net), 1);
            }
        }
    }

    #[test]
    fn and_gate_costs() {
        let n =
            Netlist::from_bench("and2", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let s = Scoap::compute(&n);
        let y = n.find_net("y").unwrap();
        // CC1(y) = CC1(a)+CC1(b)+1 = 3; CC0(y) = min(CC0)+1 = 2.
        assert_eq!(s.cc1(y), 3);
        assert_eq!(s.cc0(y), 2);
        // Observing `a` through the AND needs b at 1, cost CO(y)+CC1(b)+1.
        let a = n.find_net("a").unwrap();
        assert_eq!(s.co(a), 1 + 1);
        assert_eq!(s.co(y), 0);
    }

    #[test]
    fn xor_parity_costs() {
        let n =
            Netlist::from_bench("xor2", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n").unwrap();
        let s = Scoap::compute(&n);
        let y = n.find_net("y").unwrap();
        // Even parity (00 or 11): cost min(1+1, 1+1)+1 = 3; same odd.
        assert_eq!(s.cc0(y), 3);
        assert_eq!(s.cc1(y), 3);
    }

    #[test]
    fn deeper_nets_cost_more() {
        let n = bench::s27();
        let s = Scoap::compute(&n);
        let g0 = n.find_net("G0").unwrap(); // PI
        let g9 = n.find_net("G9").unwrap(); // internal NAND output
        assert!(s.cc1(g9) > s.cc1(g0));
        // Every net of s27 is controllable and observable.
        for net in n.net_ids() {
            assert!(s.cc0(net) < SCOAP_INFINITY, "{}", n.net_name(net));
            assert!(s.cc1(net) < SCOAP_INFINITY, "{}", n.net_name(net));
            assert!(s.co(net) < SCOAP_INFINITY, "{}", n.net_name(net));
        }
    }

    #[test]
    fn dangling_net_unobservable() {
        let n =
            Netlist::from_bench("dangle", "INPUT(a)\nOUTPUT(y)\ny = BUF(a)\nz = NOT(a)\n").unwrap();
        let s = Scoap::compute(&n);
        let z = n.find_net("z").unwrap();
        assert_eq!(s.co(z), SCOAP_INFINITY);
    }

    #[test]
    fn suggested_weights_bias_toward_non_controlling() {
        // a feeds only an AND gate: weight toward 1. b feeds only a NOR:
        // weight toward 0.
        let n = Netlist::from_bench(
            "w",
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\ny = AND(a, c)\nz = NOR(b, c)\n",
        )
        .unwrap();
        let (pi, state) = suggested_input_weights(&n);
        assert!(state.is_empty());
        // a: 1 AND pin → (1+1)/(1+2) = 2/3.
        assert!((pi[0] - 2.0 / 3.0).abs() < 1e-9);
        // b: 1 NOR pin → (0+1)/(1+2) = 1/3.
        assert!((pi[1] - 1.0 / 3.0).abs() < 1e-9);
        // c: one AND pin (wants 1) + one NOR pin (wants 0) → 1/2.
        assert!((pi[2] - 0.5).abs() < 1e-9);
        // Weights always in the open interval.
        for &w in &pi {
            assert!(w > 0.0 && w < 1.0);
        }
    }
}
