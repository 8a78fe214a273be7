//! Error types for the scan-BIST building blocks.

use std::error::Error;
use std::fmt;

/// Error returned when constructing an LFSR or MISR.
///
/// Marked `#[non_exhaustive]`: downstream matches must keep a
/// wildcard arm so new failure modes can be added without a breaking
/// release.
#[derive(Clone, Copy, Eq, PartialEq, Debug)]
#[non_exhaustive]
pub enum BuildLfsrError {
    /// No primitive polynomial is tabulated for the requested degree.
    UnsupportedDegree {
        /// The requested degree.
        degree: u32,
    },
}

impl fmt::Display for BuildLfsrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildLfsrError::UnsupportedDegree { degree } => {
                write!(f, "no tabulated primitive polynomial of degree {degree}")
            }
        }
    }
}

impl Error for BuildLfsrError {}

/// Error returned when an interval-cover seed cannot be found.
#[derive(Clone, Copy, Eq, PartialEq, Debug)]
pub struct FindSeedError {
    /// Scan chain length the search was run for.
    pub chain_len: usize,
    /// Number of groups requested.
    pub groups: u16,
    /// Number of candidate seeds examined.
    pub examined: u64,
}

impl fmt::Display for FindSeedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no interval seed covers a chain of {} cells with {} groups after {} candidates",
            self.chain_len, self.groups, self.examined
        )
    }
}

impl Error for FindSeedError {}
