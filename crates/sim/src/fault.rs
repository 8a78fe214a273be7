//! Single stuck-at faults: sites, enumeration, and equivalence
//! collapsing.

use std::fmt;

use scan_netlist::{GateId, GateKind, NetId, Netlist};

/// Where a stuck-at fault sits.
#[derive(Clone, Copy, Eq, PartialEq, Ord, PartialOrd, Hash, Debug)]
pub enum FaultSite {
    /// On a net's stem: affects every reader of the net.
    Stem(NetId),
    /// On one input pin of one gate (a fanout branch): affects only that
    /// reader.
    Pin {
        /// The reading gate.
        gate: GateId,
        /// The pin index into the gate's input list.
        pin: u32,
    },
}

/// A single stuck-at fault.
#[derive(Clone, Copy, Eq, PartialEq, Ord, PartialOrd, Hash, Debug)]
pub struct Fault {
    /// The fault site.
    pub site: FaultSite,
    /// The stuck value (`false` = stuck-at-0, `true` = stuck-at-1).
    pub stuck: bool,
}

impl Fault {
    /// A stuck-at fault on a net stem.
    #[must_use]
    pub fn stem(net: NetId, stuck: bool) -> Self {
        Fault {
            site: FaultSite::Stem(net),
            stuck,
        }
    }

    /// A stuck-at fault on a gate input pin.
    #[must_use]
    pub fn pin(gate: GateId, pin: u32, stuck: bool) -> Self {
        Fault {
            site: FaultSite::Pin { gate, pin },
            stuck,
        }
    }

    /// Renders the fault against its netlist (e.g. `G10/SA0`).
    #[must_use]
    pub fn describe(&self, netlist: &Netlist) -> String {
        let sa = if self.stuck { "SA1" } else { "SA0" };
        match self.site {
            FaultSite::Stem(net) => format!("{}/{sa}", netlist.net_name(net)),
            FaultSite::Pin { gate, pin } => {
                let g = netlist.gate(gate);
                format!(
                    "{}.pin{}({})/{sa}",
                    netlist.net_name(g.output),
                    pin,
                    netlist.net_name(g.inputs[pin as usize]),
                )
            }
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sa = if self.stuck { "SA1" } else { "SA0" };
        match self.site {
            FaultSite::Stem(net) => write!(f, "{net}/{sa}"),
            FaultSite::Pin { gate, pin } => write!(f, "{gate}.pin{pin}/{sa}"),
        }
    }
}

/// The set of single stuck-at faults considered for a circuit.
#[derive(Clone, Debug)]
pub struct FaultUniverse {
    faults: Vec<Fault>,
}

impl FaultUniverse {
    /// Every structural fault: stuck-at-0/1 on every net stem, plus
    /// stuck-at-0/1 on every input pin whose net has fanout greater than
    /// one (fanout branches). Pins on single-fanout nets are identical
    /// to the stem fault and are not duplicated.
    ///
    /// Costs O(nets + pins).
    #[must_use]
    pub fn all(netlist: &Netlist) -> Self {
        let mut faults = Vec::with_capacity(2 * netlist.num_nets());
        for_each_structural_fault(netlist, |fault| faults.push(fault));
        FaultUniverse { faults }
    }

    /// The equivalence-collapsed fault list.
    ///
    /// Collapsing rules (classical gate-level equivalence):
    ///
    /// * NOT/BUF: an input stem fault is equivalent to the corresponding
    ///   output fault (inverted value for NOT), provided the input net
    ///   has a single fanout.
    /// * AND/NAND: a controlling (stuck-at-0) input fault is equivalent
    ///   to the output stuck-at-0 (AND) / stuck-at-1 (NAND); same for
    ///   OR/NOR with stuck-at-1 inputs. Again only for single-fanout
    ///   inputs.
    ///
    /// Branch (pin) faults never collapse across the gate.
    ///
    /// The list is [`FaultUniverse::all`]'s order with each stem fault
    /// replaced by its class representative at the class's first
    /// occurrence. The samplers' candidate order is built by the same
    /// collapsing routine, in the same pass that drops unobservable
    /// sites. Costs O(nets + pins).
    #[must_use]
    pub fn collapsed(netlist: &Netlist) -> Self {
        let mut faults = Vec::with_capacity(2 * netlist.num_nets());
        for_each_collapsed_fault(netlist, |fault| faults.push(fault));
        FaultUniverse { faults }
    }

    /// The faults in this universe.
    #[must_use]
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Number of faults.
    #[must_use]
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Returns `true` if the universe is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// Visits the structural faults in universe order: both stuck values
/// on every net stem in net order, then both on every fanout-branch
/// pin, in gate and pin order. The one definition of that order, which
/// [`FaultUniverse::all`] collects and [`for_each_collapsed_fault`]
/// filters.
fn for_each_structural_fault(netlist: &Netlist, mut visit: impl FnMut(Fault)) {
    for net in netlist.net_ids() {
        visit(Fault::stem(net, false));
        visit(Fault::stem(net, true));
    }
    for gid in netlist.gate_ids() {
        for (pin, &input) in netlist.gate(gid).inputs.iter().enumerate() {
            if netlist.fanout_count(input) > 1 {
                visit(Fault::pin(gid, pin as u32, false));
                visit(Fault::pin(gid, pin as u32, true));
            }
        }
    }
}

/// Visits the equivalence-collapsed faults in
/// [`FaultUniverse::collapsed`]'s order: the one collapsing routine,
/// which `collapsed` collects and the samplers' candidate order filters.
pub(crate) fn for_each_collapsed_fault(netlist: &Netlist, mut visit: impl FnMut(Fault)) {
    let rep = stem_representatives(netlist);
    let nets: Vec<NetId> = netlist.net_ids().collect();
    let mut seen = vec![false; rep.len()];
    for_each_structural_fault(netlist, |fault| match fault.site {
        FaultSite::Stem(net) => {
            let class = rep[stem_slot(net, fault.stuck)] as usize;
            if !std::mem::replace(&mut seen[class], true) {
                visit(Fault::stem(nets[class / 2], class % 2 == 1));
            }
        }
        FaultSite::Pin { .. } => visit(fault),
    });
}

/// Flat index of the stem fault `net`/stuck-at-`value`.
fn stem_slot(net: NetId, value: bool) -> usize {
    net.index() * 2 + usize::from(value)
}

/// The class representative of every stem fault, flat-indexed by
/// [`stem_slot`]: the slot of the equivalent stem fault furthest
/// downstream, the fault's own slot when nothing absorbs it. Gates are
/// visited outputs-first, so a gate's output faults are resolved before
/// its inputs point at them, and every lookup is one step.
fn stem_representatives(netlist: &Netlist) -> Vec<u32> {
    let slots = u32::try_from(netlist.num_nets() * 2).expect("stem slots fit in u32");
    let mut rep: Vec<u32> = (0..slots).collect();
    for &gid in netlist.topo_order().iter().rev() {
        let gate = netlist.gate(gid);
        let out = gate.output;
        let target = [false, true].map(|value| rep[stem_slot(out, value)]);
        for &input in &gate.inputs {
            if netlist.fanout_count(input) != 1 {
                continue;
            }
            match gate.kind {
                GateKind::Not | GateKind::Buf => {
                    let inv = usize::from(gate.kind == GateKind::Not);
                    rep[stem_slot(input, false)] = target[inv];
                    rep[stem_slot(input, true)] = target[1 - inv];
                }
                _ => {
                    if let Some(c) = gate.kind.controlling_value() {
                        let value = c ^ gate.kind.is_inverting();
                        rep[stem_slot(input, c)] = target[usize::from(value)];
                    }
                }
            }
        }
    }
    rep
}

/// Returns `true` if the fault site drives anything observable at all
/// (stems on dangling nets are undetectable by construction).
#[must_use]
pub fn site_has_fanout(netlist: &Netlist, fault: &Fault) -> bool {
    match fault.site {
        FaultSite::Stem(net) => {
            !netlist.fanout(net).is_empty()
                || netlist.outputs().contains(&net)
                || netlist.dffs().iter().any(|d| d.d == net)
        }
        FaultSite::Pin { .. } => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scan_netlist::bench;

    #[test]
    fn all_faults_cover_stems_and_branches() {
        let n = bench::s27();
        let u = FaultUniverse::all(&n);
        // Every net contributes two stem faults.
        assert!(u.len() >= 2 * n.num_nets());
        // s27 has fanout stems (e.g. G8 feeds G15 and G16), so branch
        // faults exist.
        assert!(u
            .faults()
            .iter()
            .any(|f| matches!(f.site, FaultSite::Pin { .. })));
    }

    #[test]
    fn collapse_shrinks_universe() {
        let n = bench::s27();
        let all = FaultUniverse::all(&n);
        let col = FaultUniverse::collapsed(&n);
        assert!(col.len() < all.len());
        assert!(!col.is_empty());
    }

    #[test]
    fn collapse_is_deterministic() {
        let n = bench::s27();
        let a = FaultUniverse::collapsed(&n);
        let b = FaultUniverse::collapsed(&n);
        assert_eq!(a.faults(), b.faults());
    }

    #[test]
    fn not_gate_input_collapses_to_output() {
        let n =
            scan_netlist::Netlist::from_bench("inv", "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").unwrap();
        let col = FaultUniverse::collapsed(&n);
        let a = n.find_net("a").unwrap();
        // a/SA0 ≡ y/SA1 and a/SA1 ≡ y/SA0: only y faults remain.
        assert!(!col
            .faults()
            .iter()
            .any(|f| matches!(f.site, FaultSite::Stem(net) if net == a)));
        assert_eq!(col.len(), 2);
    }

    #[test]
    fn and_controlling_input_collapses() {
        let n = scan_netlist::Netlist::from_bench(
            "and2",
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n",
        )
        .unwrap();
        let col = FaultUniverse::collapsed(&n);
        let a = n.find_net("a").unwrap();
        // a/SA0 collapses into y/SA0; a/SA1 remains.
        let a_faults: Vec<&Fault> = col
            .faults()
            .iter()
            .filter(|f| matches!(f.site, FaultSite::Stem(net) if net == a))
            .collect();
        assert_eq!(a_faults.len(), 1);
        assert!(a_faults[0].stuck);
    }

    #[test]
    fn describe_names_sites() {
        let n = bench::s27();
        let g10 = n.find_net("G10").unwrap();
        let f = Fault::stem(g10, true);
        assert_eq!(f.describe(&n), "G10/SA1");
    }

    #[test]
    fn site_has_fanout_detects_dangles() {
        let n = scan_netlist::Netlist::from_bench(
            "dangle",
            "INPUT(a)\nOUTPUT(y)\ny = BUF(a)\nz = NOT(a)\n",
        )
        .unwrap();
        let z = n.find_net("z").unwrap();
        assert!(!site_has_fanout(&n, &Fault::stem(z, false)));
        let y = n.find_net("y").unwrap();
        assert!(site_has_fanout(&n, &Fault::stem(y, false)));
    }
}
