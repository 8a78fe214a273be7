//! Structural analysis: output cones and failing-cell clustering
//! potential.
//!
//! The DATE 2003 paper's key structural observation (its Fig. 2) is that
//! an error caused by a fault can only be captured by scan cells inside
//! the fault's *output cone* — the observation points reachable from the
//! fault site through sensitizable paths. This module computes the
//! structural (topological) over-approximation of those cones and
//! summarizes how tightly they cluster in scan-chain order.

use crate::bitset::BitSet;
use crate::gate::NetId;
use crate::scan::{ObsPoint, ScanView};
use crate::Netlist;

/// Per-net structural output cones over a [`ScanView`].
///
/// `cone(net)` is the set of observation positions (indices into
/// [`ScanView::points`]) that are topologically reachable from the net.
#[derive(Clone, Debug)]
pub struct OutputCones {
    cones: Vec<BitSet>,
    view_len: usize,
}

impl OutputCones {
    /// Computes the structural output cone of every net.
    ///
    /// Runs one reverse-topological sweep; memory is
    /// `O(nets × view_len / 64)`.
    ///
    /// # Panics
    ///
    /// Panics only on internal invariant violations.
    #[must_use]
    pub fn compute(netlist: &Netlist, view: &ScanView) -> Self {
        let n = netlist.num_nets();
        let len = view.len();
        let mut cones = vec![BitSet::new(len); n];
        // Seed: observed nets reach their own observation position.
        for (pos, &point) in view.points().iter().enumerate() {
            let net = match point {
                ObsPoint::Cell(ff) => netlist.dff(ff).d,
                ObsPoint::Output(o) => netlist.outputs()[o as usize],
            };
            cones[net.index()].insert(pos);
        }
        // Reverse topological order: propagate each gate's output cone
        // into its input nets.
        for &gid in netlist.topo_order().iter().rev() {
            let gate = netlist.gate(gid);
            let out_cone = cones[gate.output.index()].clone();
            if out_cone.is_empty() {
                continue;
            }
            for &input in &gate.inputs {
                cones[input.index()].union_with(&out_cone);
            }
        }
        OutputCones {
            cones,
            view_len: len,
        }
    }

    /// The set of observation positions reachable from `net`.
    #[must_use]
    pub fn cone(&self, net: NetId) -> &BitSet {
        &self.cones[net.index()]
    }

    /// Chain length of the underlying view.
    #[must_use]
    pub fn view_len(&self) -> usize {
        self.view_len
    }

    /// The *span* of a net's cone in scan order: `(min, max)` observation
    /// positions, or `None` if the cone is empty.
    #[must_use]
    pub fn span(&self, net: NetId) -> Option<(usize, usize)> {
        let cone = self.cone(net);
        let min = cone.first()?;
        let max = cone.iter().last()?;
        Some((min, max))
    }
}

/// Clustering statistics over all fault sites of a circuit,
/// demonstrating the paper's Fig. 2 premise quantitatively.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ClusteringStats {
    /// Number of nets with a non-empty cone.
    pub observable_nets: usize,
    /// Mean cone size (number of observation points reachable).
    pub mean_cone_size: f64,
    /// Mean span (max − min + 1) of cones in scan order.
    pub mean_span: f64,
    /// Mean span as a fraction of the chain length: small values mean
    /// fault effects cluster in a narrow band of the chain.
    pub mean_span_fraction: f64,
}

impl ClusteringStats {
    /// Computes clustering statistics over every net of a circuit.
    ///
    /// # Panics
    ///
    /// Panics only on internal invariant violations.
    #[must_use]
    pub fn compute(netlist: &Netlist, view: &ScanView) -> Self {
        let cones = OutputCones::compute(netlist, view);
        let mut observable = 0usize;
        let mut total_size = 0usize;
        let mut total_span = 0usize;
        for net in netlist.net_ids() {
            // Skip pure sink duplicates: every net counts once.
            let cone = cones.cone(net);
            if cone.is_empty() {
                continue;
            }
            observable += 1;
            total_size += cone.len();
            let (min, max) = cones.span(net).expect("non-empty cone has a span");
            total_span += max - min + 1;
        }
        let denom = observable.max(1) as f64;
        ClusteringStats {
            observable_nets: observable,
            mean_cone_size: total_size as f64 / denom,
            mean_span: total_span as f64 / denom,
            mean_span_fraction: (total_span as f64 / denom) / view.len().max(1) as f64,
        }
    }
}

/// Gate-kind census of a netlist.
#[derive(Clone, Copy, Debug, Default, Eq, PartialEq)]
pub struct GateCensus {
    /// Counts indexed by [`GateKind::ALL`](crate::GateKind::ALL) order.
    pub counts: [usize; 8],
    /// Total number of gates.
    pub total: usize,
    /// Maximum combinational depth.
    pub depth: u32,
}

impl GateCensus {
    /// Tallies the gates of a netlist.
    ///
    /// # Panics
    ///
    /// Panics only on internal invariant violations.
    #[must_use]
    pub fn compute(netlist: &Netlist) -> Self {
        let mut counts = [0usize; 8];
        for gate in netlist.gates() {
            let idx = crate::GateKind::ALL
                .iter()
                .position(|&k| k == gate.kind)
                .expect("kind in ALL");
            counts[idx] += 1;
        }
        GateCensus {
            counts,
            total: netlist.num_gates(),
            depth: netlist.depth(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench;
    use crate::generate::{generate, profile};

    #[test]
    fn s27_cones_are_sensible() {
        let n = bench::s27();
        let view = ScanView::natural(&n, true);
        let cones = OutputCones::compute(&n, &view);
        // G11 drives DFF G6's D and the PO G17 (via NOT): its cone
        // includes position 1 (cell G6) and position 3 (PO).
        let g11 = n.find_net("G11").unwrap();
        let cone = cones.cone(g11);
        assert!(cone.contains(1));
        assert!(cone.contains(3));
        // Primary input G0 reaches everything downstream of G14.
        let g0 = n.find_net("G0").unwrap();
        assert!(!cones.cone(g0).is_empty());
    }

    #[test]
    fn observed_nets_contain_self_position() {
        let n = bench::s27();
        let view = ScanView::natural(&n, true);
        let cones = OutputCones::compute(&n, &view);
        for pos in 0..view.len() {
            let net = view.observed_net(&n, pos);
            assert!(
                cones.cone(net).contains(pos),
                "net {} should reach its own position {pos}",
                n.net_name(net)
            );
        }
    }

    #[test]
    fn synthetic_circuits_cluster() {
        let p = profile("s953").unwrap();
        let n = generate(p, 11);
        let view = ScanView::natural(&n, true);
        let stats = ClusteringStats::compute(&n, &view);
        assert!(stats.observable_nets > 0);
        // Locality must hold: average span well below the whole chain.
        assert!(
            stats.mean_span_fraction < 0.75,
            "mean span fraction {} too large — generator lost locality",
            stats.mean_span_fraction
        );
    }

    #[test]
    fn census_counts_all_gates() {
        let n = bench::s27();
        let c = GateCensus::compute(&n);
        assert_eq!(c.total, 10);
        assert_eq!(c.counts.iter().sum::<usize>(), 10);
        assert_eq!(c.depth, n.depth());
    }
}
