//! Chain layouts: where each diagnosed cell sits in the scan-out
//! geometry.

use scan_soc::Soc;

/// Maps every diagnosed cell to its `(chain, shift position)`
/// coordinate.
///
/// Cells are identified by dense *global* indices. For a single-chain
/// circuit the global index equals the shift position; for a multi-chain
/// SOC the indices are chain-major (all of chain 0 in shift order, then
/// chain 1, …), matching [`Soc::layout`].
///
/// Partitioning operates on *shift positions* (`0 ..
/// max_chain_len`): at shift cycle `p` the selection logic gates the
/// cells at position `p` of every chain simultaneously, so cells at the
/// same position in different chains always share a group.
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct ChainLayout {
    coords: Vec<(u32, u32)>,
    num_chains: usize,
    max_len: usize,
}

impl ChainLayout {
    /// A single chain of `len` cells: cell `i` at `(0, i)`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    #[must_use]
    pub fn single_chain(len: usize) -> Self {
        assert!(len > 0, "empty chain layout");
        ChainLayout {
            coords: (0..len as u32).map(|i| (0, i)).collect(),
            num_chains: 1,
            max_len: len,
        }
    }

    /// The layout of an SOC's meta scan chains (chain-major global
    /// indices, as in [`Soc::layout`]).
    ///
    /// # Panics
    ///
    /// Panics if the SOC has no cells.
    #[must_use]
    pub fn from_soc(soc: &Soc) -> Self {
        let coords: Vec<(u32, u32)> = soc
            .layout()
            .into_iter()
            .map(|(_, chain, pos)| (chain, pos))
            .collect();
        assert!(!coords.is_empty(), "SOC has no observation positions");
        ChainLayout {
            num_chains: soc.num_chains(),
            max_len: soc.max_chain_len(),
            coords,
        }
    }

    /// Builds a layout from explicit coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `coords` is empty.
    #[must_use]
    pub fn from_coords(coords: Vec<(u32, u32)>) -> Self {
        assert!(!coords.is_empty(), "empty chain layout");
        let num_chains = coords
            .iter()
            .map(|&(c, _)| c as usize + 1)
            .max()
            .unwrap_or(1);
        let max_len = coords
            .iter()
            .map(|&(_, p)| p as usize + 1)
            .max()
            .unwrap_or(1);
        ChainLayout {
            coords,
            num_chains,
            max_len,
        }
    }

    /// Number of diagnosed cells.
    #[must_use]
    pub fn num_cells(&self) -> usize {
        self.coords.len()
    }

    /// Number of parallel chains.
    #[must_use]
    pub fn num_chains(&self) -> usize {
        self.num_chains
    }

    /// Longest chain length (shift cycles per pattern unload, and the
    /// domain partitions are defined over).
    #[must_use]
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// The `(chain, shift position)` of a global cell index.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    #[must_use]
    pub fn coord(&self, cell: usize) -> (u32, u32) {
        self.coords[cell]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_chain_identity() {
        let l = ChainLayout::single_chain(5);
        assert_eq!(l.num_cells(), 5);
        assert_eq!(l.num_chains(), 1);
        assert_eq!(l.max_len(), 5);
        assert_eq!(l.coord(3), (0, 3));
    }

    #[test]
    fn from_coords_derives_dims() {
        let l = ChainLayout::from_coords(vec![(0, 0), (0, 1), (1, 0), (2, 5)]);
        assert_eq!(l.num_chains(), 3);
        assert_eq!(l.max_len(), 6);
    }

    #[test]
    #[should_panic(expected = "empty chain layout")]
    fn empty_rejected() {
        let _ = ChainLayout::single_chain(0);
    }
}
