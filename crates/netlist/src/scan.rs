//! Full-scan views: scan chain ordering and response observation points.

use scan_rng::ScanRng;

use crate::gate::{DffId, Driver, NetId};
use crate::Netlist;

/// How scan cells are stitched into the chain.
///
/// The paper (Section 3) notes that the locations of error-capturing
/// cells "depend on the scan chain ordering", and interval-based
/// partitioning profits exactly when the ordering correlates with
/// structure. These strategies let experiments quantify that
/// dependence.
#[derive(Clone, Copy, Eq, PartialEq, Debug, Default)]
pub enum ScanOrdering {
    /// Netlist declaration order (layout-correlated for circuits whose
    /// flip-flops are declared in placement order, as the synthetic
    /// generator does).
    #[default]
    Natural,
    /// A seeded random permutation — the worst case for clustering.
    Shuffled(u64),
    /// Cone-aware stitching: flip-flops are ordered by the barycenter
    /// of the source flip-flops feeding their next-state cones, so
    /// structurally coupled cells sit near each other in the chain.
    ConeClustered,
}

/// One observable position in a scan-BIST response stream.
///
/// In a full-scan circuit the test response for a pattern consists of the
/// values captured by the scan cells (flip-flops) plus the primary output
/// values; both are shifted to the compactor, so the DATE 2003 paper
/// counts POs among the "scan cells under diagnosis" (its s953 example
/// numbers 52 cells = 29 DFFs + 23 POs).
#[derive(Clone, Copy, Eq, PartialEq, Ord, PartialOrd, Hash, Debug)]
pub enum ObsPoint {
    /// A scan cell; the observed value is what the flip-flop captured.
    Cell(DffId),
    /// A primary output, identified by its index in
    /// [`Netlist::outputs`].
    Output(u32),
}

/// An ordered full-scan view of a netlist: the scan chain order of its
/// flip-flops followed (optionally) by its primary outputs.
///
/// The position of an observation point in this view is its shift
/// position in the (single) scan chain, which is what the partitioning
/// schemes operate on.
///
/// # Examples
///
/// ```
/// use scan_netlist::{bench, ScanView};
///
/// let s27 = bench::s27();
/// let view = ScanView::natural(&s27, true);
/// assert_eq!(view.len(), 3 + 1); // 3 scan cells + 1 PO
/// ```
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct ScanView {
    points: Vec<ObsPoint>,
    num_cells: usize,
}

impl ScanView {
    /// Builds a view with flip-flops in netlist declaration order,
    /// followed by primary outputs when `include_outputs` is set.
    #[must_use]
    pub fn natural(netlist: &Netlist, include_outputs: bool) -> Self {
        let order: Vec<DffId> = netlist.dff_ids().collect();
        Self::with_order(netlist, order, include_outputs)
    }

    /// Builds a view under the given [`ScanOrdering`] strategy.
    #[must_use]
    pub fn ordered(netlist: &Netlist, ordering: ScanOrdering, include_outputs: bool) -> Self {
        match ordering {
            ScanOrdering::Natural => Self::natural(netlist, include_outputs),
            ScanOrdering::Shuffled(seed) => {
                let mut order: Vec<DffId> = netlist.dff_ids().collect();
                let mut rng = ScanRng::seed_from_u64(seed);
                rng.shuffle(&mut order);
                Self::with_order(netlist, order, include_outputs)
            }
            ScanOrdering::ConeClustered => {
                Self::with_order(netlist, cone_clustered_order(netlist), include_outputs)
            }
        }
    }

    /// Builds a view with an explicit scan chain ordering of the
    /// flip-flops.
    ///
    /// # Panics
    ///
    /// Panics if `order` does not contain every flip-flop exactly once.
    #[must_use]
    pub fn with_order(netlist: &Netlist, order: Vec<DffId>, include_outputs: bool) -> Self {
        assert_eq!(
            order.len(),
            netlist.num_dffs(),
            "scan order must cover every flip-flop"
        );
        let mut seen = vec![false; netlist.num_dffs()];
        for &ff in &order {
            assert!(!seen[ff.index()], "flip-flop {ff} repeated in scan order");
            seen[ff.index()] = true;
        }
        let mut points: Vec<ObsPoint> = order.into_iter().map(ObsPoint::Cell).collect();
        let num_cells = points.len();
        if include_outputs {
            points.extend((0..netlist.num_outputs() as u32).map(ObsPoint::Output));
        }
        ScanView { points, num_cells }
    }

    /// All observation points, in shift order.
    #[must_use]
    pub fn points(&self) -> &[ObsPoint] {
        &self.points
    }

    /// Total number of observation points (chain length for
    /// partitioning).
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` if the view has no observation points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of scan cells (excluding primary outputs).
    #[must_use]
    pub fn num_cells(&self) -> usize {
        self.num_cells
    }

    /// The net whose captured/driven value is observed at `position`.
    ///
    /// For a scan cell this is the flip-flop's D input (the value captured
    /// at the response clock); for a primary output it is the output net.
    ///
    /// # Panics
    ///
    /// Panics if `position` is out of range.
    #[must_use]
    pub fn observed_net(&self, netlist: &Netlist, position: usize) -> NetId {
        match self.points[position] {
            ObsPoint::Cell(ff) => netlist.dff(ff).d,
            ObsPoint::Output(o) => netlist.outputs()[o as usize],
        }
    }

    /// The shift position of a given flip-flop, if it is in the view.
    #[must_use]
    pub fn position_of_cell(&self, ff: DffId) -> Option<usize> {
        self.points[..self.num_cells]
            .iter()
            .position(|&p| p == ObsPoint::Cell(ff))
    }
}

/// Orders flip-flops by iterated barycenter placement: each flip-flop's
/// position is pulled toward the mean position of the source flip-flops
/// in its next-state (D input) cone, so structurally coupled state
/// elements end up adjacent in the scan chain. Deterministic; three
/// relaxation rounds suffice for chain-locality purposes.
fn cone_clustered_order(netlist: &Netlist) -> Vec<DffId> {
    let num_ffs = netlist.num_dffs();
    if num_ffs <= 2 {
        return netlist.dff_ids().collect();
    }
    // Source flip-flops feeding each D net: one backward traversal per
    // flip-flop over the combinational logic.
    let mut q_owner: Vec<Option<u32>> = vec![None; netlist.num_nets()];
    for (i, dff) in netlist.dffs().iter().enumerate() {
        q_owner[dff.q.index()] = Some(i as u32);
    }
    let sources: Vec<Vec<u32>> = netlist
        .dffs()
        .iter()
        .map(|dff| {
            let mut seen = vec![false; netlist.num_nets()];
            let mut stack = vec![dff.d];
            let mut found = Vec::new();
            while let Some(net) = stack.pop() {
                if seen[net.index()] {
                    continue;
                }
                seen[net.index()] = true;
                match netlist.driver(net) {
                    Driver::Dff(_) => {
                        if let Some(owner) = q_owner[net.index()] {
                            found.push(owner);
                        }
                    }
                    Driver::Gate(g) => stack.extend(netlist.gate(g).inputs.iter().copied()),
                    Driver::PrimaryInput => {}
                }
            }
            found
        })
        .collect();
    // Iterated barycenter relaxation from the natural positions.
    let mut pos: Vec<f64> = (0..num_ffs).map(|i| i as f64).collect();
    for _ in 0..3 {
        let snapshot = pos.clone();
        for (i, srcs) in sources.iter().enumerate() {
            if srcs.is_empty() {
                continue;
            }
            let mean: f64 =
                srcs.iter().map(|&s| snapshot[s as usize]).sum::<f64>() / srcs.len() as f64;
            // Blend with the current position so chains don't collapse
            // onto a single point.
            pos[i] = 0.5 * snapshot[i] + 0.5 * mean;
        }
    }
    let mut order: Vec<usize> = (0..num_ffs).collect();
    order.sort_by(|&a, &b| pos[a].total_cmp(&pos[b]).then(a.cmp(&b)));
    order.into_iter().map(|i| DffId(i as u32)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench;

    #[test]
    fn natural_view_orders_cells_then_outputs() {
        let n = bench::s27();
        let v = ScanView::natural(&n, true);
        assert_eq!(v.num_cells(), 3);
        assert_eq!(v.len(), 4);
        assert!(matches!(v.points()[0], ObsPoint::Cell(_)));
        assert!(matches!(v.points()[3], ObsPoint::Output(0)));
    }

    #[test]
    fn without_outputs() {
        let n = bench::s27();
        let v = ScanView::natural(&n, false);
        assert_eq!(v.len(), 3);
        assert_eq!(v.num_cells(), 3);
    }

    #[test]
    fn observed_nets() {
        let n = bench::s27();
        let v = ScanView::natural(&n, true);
        // First cell is G5 = DFF(G10): observed net is G10.
        assert_eq!(v.observed_net(&n, 0), n.find_net("G10").unwrap());
        // Last point is the PO G17.
        assert_eq!(v.observed_net(&n, 3), n.find_net("G17").unwrap());
    }

    #[test]
    fn custom_order_and_position_lookup() {
        let n = bench::s27();
        let mut order: Vec<DffId> = n.dff_ids().collect();
        order.reverse();
        let v = ScanView::with_order(&n, order.clone(), false);
        assert_eq!(v.position_of_cell(order[0]), Some(0));
        assert_eq!(v.position_of_cell(order[2]), Some(2));
    }

    #[test]
    #[should_panic(expected = "repeated in scan order")]
    fn repeated_cell_rejected() {
        let n = bench::s27();
        let first = n.dff_ids().next().unwrap();
        let _ = ScanView::with_order(&n, vec![first, first, first], false);
    }

    #[test]
    fn shuffled_is_a_permutation_and_seed_dependent() {
        let n = crate::generate::benchmark("s953");
        let a = ScanView::ordered(&n, ScanOrdering::Shuffled(1), false);
        let b = ScanView::ordered(&n, ScanOrdering::Shuffled(1), false);
        let c = ScanView::ordered(&n, ScanOrdering::Shuffled(2), false);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Every flip-flop appears exactly once.
        for ff in n.dff_ids() {
            assert!(a.position_of_cell(ff).is_some());
        }
    }

    #[test]
    fn cone_clustered_is_a_permutation() {
        let n = crate::generate::benchmark("s953");
        let v = ScanView::ordered(&n, ScanOrdering::ConeClustered, true);
        assert_eq!(v.num_cells(), n.num_dffs());
        for ff in n.dff_ids() {
            assert!(v.position_of_cell(ff).is_some());
        }
    }

    #[test]
    fn cone_clustered_improves_or_matches_span() {
        // On the synthetic circuits cone-clustered ordering should not
        // be worse than a shuffled chain for structural span.
        use crate::stats::ClusteringStats;
        let n = crate::generate::benchmark("s953");
        let clustered = ScanView::ordered(&n, ScanOrdering::ConeClustered, true);
        let shuffled = ScanView::ordered(&n, ScanOrdering::Shuffled(3), true);
        let sc = ClusteringStats::compute(&n, &clustered);
        let ss = ClusteringStats::compute(&n, &shuffled);
        assert!(
            sc.mean_span_fraction <= ss.mean_span_fraction,
            "clustered {} vs shuffled {}",
            sc.mean_span_fraction,
            ss.mean_span_fraction
        );
    }

    #[test]
    fn default_ordering_is_natural() {
        assert_eq!(ScanOrdering::default(), ScanOrdering::Natural);
    }
}
