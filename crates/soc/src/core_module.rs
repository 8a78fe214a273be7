//! Embedded core descriptors.

use scan_netlist::{Netlist, ScanView};

/// One embedded core of a system-on-chip: a netlist plus its full-scan
/// observation view.
///
/// The view's positions (`0 .. view.len()`) are the core's *local*
/// observation indices; [`Soc`](crate::Soc) maps them onto meta scan
/// chain positions.
#[derive(Clone, Debug)]
pub struct CoreModule {
    name: String,
    netlist: Netlist,
    view: ScanView,
}

impl CoreModule {
    /// Wraps a netlist as an embedded core, observing scan cells and
    /// primary outputs in natural order.
    #[must_use]
    pub fn new(netlist: Netlist) -> Self {
        let view = ScanView::natural(&netlist, true);
        CoreModule {
            name: netlist.name().to_owned(),
            netlist,
            view,
        }
    }

    /// The core (circuit) name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The core's netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The core's full-scan observation view.
    #[must_use]
    pub fn view(&self) -> &ScanView {
        &self.view
    }

    /// Number of observation positions this core contributes to the
    /// meta scan chains.
    #[must_use]
    pub fn num_positions(&self) -> usize {
        self.view.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scan_netlist::bench;

    #[test]
    fn wraps_netlist_with_natural_view() {
        let core = CoreModule::new(bench::s27());
        assert_eq!(core.name(), "s27");
        assert_eq!(core.num_positions(), 4); // 3 FFs + 1 PO
    }
}
