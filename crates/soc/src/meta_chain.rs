//! Meta scan chain construction: threading core-internal scan chains
//! into SOC-level chains (`TestRail` daisy-chain architecture).

use crate::core_module::CoreModule;
use crate::error::BuildSocError;

/// A reference to one observation position of one core.
#[derive(Clone, Copy, Eq, PartialEq, Ord, PartialOrd, Hash, Debug)]
pub struct CellRef {
    /// Index of the core within the SOC.
    pub core: u32,
    /// Local observation index within the core's scan view.
    pub local: u32,
}

/// A system-on-chip under test: embedded cores threaded onto one or more
/// meta scan chains.
///
/// Chain `c`, position `p` holds `chains()[c][p]`, a [`CellRef`] into a
/// core's local scan view. During scan-out, shift cycle `p` presents the
/// cells at position `p` of *every* chain simultaneously to the
/// compactor — which is why the partitioning schemes operate on shift
/// positions (see `scan-diagnosis`).
///
/// # Examples
///
/// ```
/// use scan_netlist::{bench, Netlist};
/// use scan_soc::{CoreModule, Soc};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let twin = Netlist::from_bench("s27_copy", bench::S27_BENCH)?;
/// let cores = vec![CoreModule::new(bench::s27()), CoreModule::new(twin)];
/// let soc = Soc::single_chain("twin", cores)?;
/// assert_eq!(soc.num_chains(), 1);
/// assert_eq!(soc.total_positions(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Soc {
    name: String,
    cores: Vec<CoreModule>,
    chains: Vec<Vec<CellRef>>,
}

impl Soc {
    /// Builds an SOC whose cores are daisy-chained on a single meta scan
    /// chain, in the given core order (the paper's first SOC).
    ///
    /// # Errors
    ///
    /// Returns [`BuildSocError`] if no cores are given or names repeat.
    pub fn single_chain(
        name: impl Into<String>,
        cores: Vec<CoreModule>,
    ) -> Result<Self, BuildSocError> {
        Self::check_cores(&cores)?;
        let mut chain = Vec::new();
        for (ci, core) in cores.iter().enumerate() {
            for local in 0..core.num_positions() {
                chain.push(CellRef {
                    core: ci as u32,
                    local: local as u32,
                });
            }
        }
        Ok(Soc {
            name: name.into(),
            cores,
            chains: vec![chain],
        })
    }

    /// Builds an SOC with `width` balanced meta scan chains (the
    /// paper's second SOC, a d695 variant on an 8-bit TAM): each core's
    /// scan view is cut into `width` nearly equal segments, and chain
    /// `i` daisy-chains segment `i` of every core.
    ///
    /// # Errors
    ///
    /// Returns [`BuildSocError`] if no cores are given, names repeat,
    /// or `width` is zero.
    pub fn balanced(
        name: impl Into<String>,
        cores: Vec<CoreModule>,
        width: usize,
    ) -> Result<Self, BuildSocError> {
        Self::check_cores(&cores)?;
        if width == 0 {
            return Err(BuildSocError::BadTamWidth { width });
        }
        let mut chains: Vec<Vec<CellRef>> = vec![Vec::new(); width];
        for (ci, core) in cores.iter().enumerate() {
            let n = core.num_positions();
            let base = n / width;
            let rem = n % width;
            let mut local = 0usize;
            for (w, chain) in chains.iter_mut().enumerate() {
                let seg = base + usize::from(w < rem);
                for _ in 0..seg {
                    chain.push(CellRef {
                        core: ci as u32,
                        local: local as u32,
                    });
                    local += 1;
                }
            }
        }
        Ok(Soc {
            name: name.into(),
            cores,
            chains,
        })
    }

    fn check_cores(cores: &[CoreModule]) -> Result<(), BuildSocError> {
        if cores.is_empty() {
            return Err(BuildSocError::NoCores);
        }
        let mut names = std::collections::BTreeSet::new();
        for core in cores {
            if !names.insert(core.name().to_owned()) {
                return Err(BuildSocError::DuplicateCoreName {
                    name: core.name().to_owned(),
                });
            }
        }
        Ok(())
    }

    /// The SOC name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The embedded cores.
    #[must_use]
    pub fn cores(&self) -> &[CoreModule] {
        &self.cores
    }

    /// Finds a core index by name.
    #[must_use]
    pub fn core_index(&self, name: &str) -> Option<usize> {
        self.cores.iter().position(|c| c.name() == name)
    }

    /// The meta scan chains.
    #[must_use]
    pub fn chains(&self) -> &[Vec<CellRef>] {
        &self.chains
    }

    /// Number of meta scan chains (TAM width).
    #[must_use]
    pub fn num_chains(&self) -> usize {
        self.chains.len()
    }

    /// Length of the longest meta chain (shift cycles per pattern
    /// unload).
    #[must_use]
    pub fn max_chain_len(&self) -> usize {
        self.chains.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Total observation positions across all chains.
    #[must_use]
    pub fn total_positions(&self) -> usize {
        self.chains.iter().map(Vec::len).sum()
    }

    /// Maps every cell to its `(chain, position)` coordinate, indexed by
    /// a dense global cell id assigned chain-major (chain 0's cells
    /// first, in shift order).
    #[must_use]
    pub fn layout(&self) -> Vec<(CellRef, u32, u32)> {
        let mut layout = Vec::with_capacity(self.total_positions());
        for (c, chain) in self.chains.iter().enumerate() {
            for (p, &cell) in chain.iter().enumerate() {
                layout.push((cell, c as u32, p as u32));
            }
        }
        layout
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scan_netlist::bench;
    use scan_netlist::generate::{generate, profile};

    fn two_cores() -> Vec<CoreModule> {
        vec![
            CoreModule::new(bench::s27()),
            CoreModule::new(generate(profile("s298").unwrap(), 1)),
        ]
    }

    #[test]
    fn single_chain_concatenates_in_order() {
        let soc = Soc::single_chain("t", two_cores()).unwrap();
        let chain = &soc.chains()[0];
        assert_eq!(chain.len(), 4 + (14 + 6));
        assert!(chain[..4].iter().all(|c| c.core == 0));
        assert!(chain[4..].iter().all(|c| c.core == 1));
        // Local indices ascend within each core.
        assert_eq!(chain[0].local, 0);
        assert_eq!(chain[3].local, 3);
        assert_eq!(chain[4].local, 0);
    }

    #[test]
    fn balanced_chains_are_near_equal() {
        let soc = Soc::balanced("t", two_cores(), 4).unwrap();
        assert_eq!(soc.num_chains(), 4);
        let total: usize = soc.chains().iter().map(Vec::len).sum();
        assert_eq!(total, 24);
        let max = soc.max_chain_len();
        let min = soc.chains().iter().map(Vec::len).min().unwrap();
        assert!(max - min <= 2, "chains unbalanced: {max} vs {min}");
    }

    #[test]
    fn balanced_covers_every_cell_once() {
        let soc = Soc::balanced("t", two_cores(), 3).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for chain in soc.chains() {
            for cell in chain {
                assert!(seen.insert(*cell), "cell {cell:?} appears twice");
            }
        }
        assert_eq!(seen.len(), soc.total_positions());
    }

    #[test]
    fn layout_is_chain_major() {
        let soc = Soc::balanced("t", two_cores(), 2).unwrap();
        let layout = soc.layout();
        assert_eq!(layout.len(), 24);
        assert_eq!(layout[0].1, 0);
        assert_eq!(layout[0].2, 0);
        let first_len = soc.chains()[0].len();
        assert_eq!(layout[first_len].1, 1);
        assert_eq!(layout[first_len].2, 0);
    }

    #[test]
    fn errors_rejected() {
        assert!(Soc::single_chain("t", vec![]).is_err());
        let dup = vec![CoreModule::new(bench::s27()), CoreModule::new(bench::s27())];
        assert!(Soc::single_chain("t", dup).is_err());
        assert!(Soc::balanced("t", two_cores(), 0).is_err());
    }
}
