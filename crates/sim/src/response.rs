//! Observed responses (dense [`ResponseMap`]) and error maps (sparse
//! [`ErrorMap`]).

use scan_netlist::BitSet;

/// Bit-packed observed values: one row per observation position (scan
/// cell or primary output, in [`ScanView`](scan_netlist::ScanView)
/// order), 64 patterns per word.
///
/// Rows live in one flat row-major allocation. Golden responses are
/// dense, as is every faulty response of the reference oracle
/// ([`FaultSimulator`](crate::FaultSimulator)); what a fault *changed*
/// is kept sparsely, as an [`ErrorMap`].
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct ResponseMap {
    num_patterns: usize,
    num_positions: usize,
    data: Vec<u64>,
}

impl ResponseMap {
    /// Creates an all-zero response map.
    #[must_use]
    pub fn zeroed(positions: usize, num_patterns: usize) -> Self {
        ResponseMap {
            num_patterns,
            num_positions: positions,
            data: vec![0u64; positions * num_patterns.div_ceil(64)],
        }
    }

    /// Words per row.
    fn stride(&self) -> usize {
        self.num_patterns.div_ceil(64)
    }

    /// One position's packed words.
    fn row(&self, position: usize) -> &[u64] {
        let stride = self.stride();
        &self.data[position * stride..(position + 1) * stride]
    }

    /// Number of observation positions.
    #[must_use]
    pub fn num_positions(&self) -> usize {
        self.num_positions
    }

    /// Number of patterns.
    #[must_use]
    pub fn num_patterns(&self) -> usize {
        self.num_patterns
    }

    /// The packed word for one position.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    #[must_use]
    pub fn word(&self, position: usize, word: usize) -> u64 {
        self.row(position)[word]
    }

    /// Sets the packed word for one position.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn set_word(&mut self, position: usize, word: usize, value: u64) {
        let stride = self.stride();
        assert!(
            position < self.num_positions && word < stride,
            "index out of range"
        );
        self.data[position * stride + word] = value;
    }

    /// The observed bit at (position, pattern).
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    #[must_use]
    pub fn bit(&self, position: usize, pattern: usize) -> bool {
        assert!(pattern < self.num_patterns, "pattern out of range");
        self.row(position)[pattern / 64] >> (pattern % 64) & 1 != 0
    }

    /// XORs this map against a reference, yielding the error map
    /// (`self` is typically the faulty response, `golden` the
    /// fault-free one).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    #[must_use]
    pub fn xor(&self, golden: &ResponseMap) -> ErrorMap {
        assert_eq!(
            self.num_patterns, golden.num_patterns,
            "pattern counts differ"
        );
        assert_eq!(
            self.num_positions, golden.num_positions,
            "position counts differ"
        );
        let diff = self.data.iter().zip(&golden.data).map(|(x, y)| x ^ y);
        ErrorMap::from_dense(self.num_positions, self.num_patterns, diff)
    }
}

/// One nonzero packed error word: `(position, word index, bits)`.
/// 16 bytes, so an error map costs 16 bytes per nonzero word.
type ErrorWord = (u32, u32, u64);

/// The difference between a faulty and the fault-free response: bit
/// `(position, pattern)` is set iff the fault flipped that observed
/// value.
///
/// The map is *sparse*: it stores only its nonzero packed words, 16
/// bytes each, sorted by `(position, word)` with no duplicates. A fault
/// fails a small, clustered segment of the chain, so a detected fault
/// typically holds a handful of words where a dense map of a
/// thousand-cell chain would hold thousands; every accessor costs in
/// proportion to the errors, not the chain. The sorted, merged form is
/// canonical, so `==` compares error bits.
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct ErrorMap {
    num_positions: usize,
    num_patterns: usize,
    /// Nonzero words, sorted by `(position, word)`, one per key.
    words: Vec<ErrorWord>,
}

impl From<ResponseMap> for ErrorMap {
    /// Interprets an already-differenced bit map as error bits.
    fn from(dense: ResponseMap) -> Self {
        ErrorMap::from_dense(dense.num_positions, dense.num_patterns, dense.data)
    }
}

impl ErrorMap {
    /// An error map with no errors (used for fault-free references).
    #[must_use]
    pub fn empty(positions: usize, num_patterns: usize) -> Self {
        ErrorMap {
            num_positions: positions,
            num_patterns,
            words: Vec::new(),
        }
    }

    /// Keeps the nonzero words of a row-major dense word stream.
    fn from_dense<I: IntoIterator<Item = u64>>(
        positions: usize,
        num_patterns: usize,
        data: I,
    ) -> Self {
        let stride = num_patterns.div_ceil(64).max(1);
        let words = data
            .into_iter()
            .enumerate()
            .filter(|&(_, bits)| bits != 0)
            .map(|(i, bits)| ((i / stride) as u32, (i % stride) as u32, bits))
            .collect();
        ErrorMap {
            num_positions: positions,
            num_patterns,
            words,
        }
    }

    /// Builds an error map from packed `(position, word, bits)` words in
    /// any order: sorts them and OR-merges repeated keys. Words must be
    /// nonzero, lane-masked and in range.
    pub(crate) fn from_words(
        positions: usize,
        num_patterns: usize,
        mut words: Vec<ErrorWord>,
    ) -> Self {
        words.sort_unstable_by_key(|&(pos, word, _)| (pos, word));
        words.dedup_by(|next, kept| {
            let same = (next.0, next.1) == (kept.0, kept.1);
            if same {
                kept.2 |= next.2;
            }
            same
        });
        ErrorMap {
            num_positions: positions,
            num_patterns,
            words,
        }
    }

    /// Builds an error map from explicit error bits.
    ///
    /// # Panics
    ///
    /// Panics if any bit is out of range.
    #[must_use]
    pub fn from_bits<I>(positions: usize, num_patterns: usize, bits: I) -> Self
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let words = bits
            .into_iter()
            .map(|(pos, pat)| {
                assert!(pos < positions, "position out of range");
                assert!(pat < num_patterns, "pattern out of range");
                (pos as u32, (pat / 64) as u32, 1u64 << (pat % 64))
            })
            .collect();
        ErrorMap::from_words(positions, num_patterns, words)
    }

    /// Number of observation positions.
    #[must_use]
    pub fn num_positions(&self) -> usize {
        self.num_positions
    }

    /// Number of patterns.
    #[must_use]
    pub fn num_patterns(&self) -> usize {
        self.num_patterns
    }

    /// The stored words of one position (empty when it captured no
    /// error).
    fn row(&self, position: usize) -> &[ErrorWord] {
        assert!(position < self.num_positions, "position out of range");
        let start = self
            .words
            .partition_point(|&(pos, _, _)| (pos as usize) < position);
        let len = self.words[start..].partition_point(|&(pos, _, _)| pos as usize == position);
        &self.words[start..start + len]
    }

    /// Whether the error bit at (position, pattern) is set.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    #[must_use]
    pub fn bit(&self, position: usize, pattern: usize) -> bool {
        assert!(pattern < self.num_patterns, "pattern out of range");
        let word = (pattern / 64) as u32;
        self.row(position)
            .iter()
            .find(|&&(_, w, _)| w == word)
            .is_some_and(|&(_, _, bits)| bits >> (pattern % 64) & 1 != 0)
    }

    /// Returns `true` if the fault produced at least one error.
    #[must_use]
    pub fn is_detected(&self) -> bool {
        !self.words.is_empty()
    }

    /// Total number of error bits.
    #[must_use]
    pub fn num_error_bits(&self) -> usize {
        self.words
            .iter()
            .map(|&(_, _, bits)| bits.count_ones() as usize)
            .sum()
    }

    /// The failing positions: every observation point that captured at
    /// least one error.
    #[must_use]
    pub fn failing_positions(&self) -> BitSet {
        let mut set = BitSet::new(self.num_positions);
        for &(pos, _, _) in &self.words {
            set.insert(pos as usize);
        }
        set
    }

    /// Iterates over all error bits as `(position, pattern)` pairs, in
    /// position-major order.
    pub fn iter_bits(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.iter_words()
            .flat_map(|(pos, w, bits)| BitLanes(bits).map(move |lane| (pos, w * 64 + lane)))
    }

    /// Iterates over the nonzero packed error words as
    /// `(position, word_index, bits)` triples, sorted by position and
    /// then word: bit `l` of `bits` is the error bit of pattern
    /// `word_index * 64 + l`.
    ///
    /// This is the feed of MISR compaction
    /// (`DiagnosisPlan::analyze_packed` in `scan-diagnosis`), which
    /// consumes the stored words directly: no per-bit expansion, and
    /// one run of words per failing cell.
    pub fn iter_words(&self) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        self.words
            .iter()
            .map(|&(pos, w, bits)| (pos as usize, w as usize, bits))
    }

    /// Iterates over the error patterns of one position.
    ///
    /// # Panics
    ///
    /// Panics if `position` is out of range.
    pub fn errors_at(&self, position: usize) -> impl Iterator<Item = usize> + '_ {
        self.row(position)
            .iter()
            .flat_map(|&(_, w, bits)| BitLanes(bits).map(move |lane| w as usize * 64 + lane))
    }
}

struct BitLanes(u64);

impl Iterator for BitLanes {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            let lane = self.0.trailing_zeros() as usize;
            self.0 &= self.0 - 1;
            Some(lane)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor_produces_error_map() {
        let mut faulty = ResponseMap::zeroed(3, 70);
        let golden = ResponseMap::zeroed(3, 70);
        faulty.set_word(1, 0, 0b101);
        faulty.set_word(2, 1, 1 << 5);
        let err = faulty.xor(&golden);
        assert!(err.is_detected());
        assert_eq!(err.num_error_bits(), 3);
        assert_eq!(
            err.iter_bits().collect::<Vec<_>>(),
            vec![(1, 0), (1, 2), (2, 69)]
        );
        assert_eq!(
            err.failing_positions().iter().collect::<Vec<_>>(),
            vec![1, 2]
        );
    }

    #[test]
    fn from_bits_roundtrip() {
        let bits = vec![(0usize, 0usize), (4, 63), (4, 64), (7, 99)];
        let err = ErrorMap::from_bits(8, 100, bits.clone());
        assert_eq!(err.iter_bits().collect::<Vec<_>>(), bits);
        assert_eq!(err.errors_at(4).collect::<Vec<_>>(), vec![63, 64]);
        assert!(err.bit(7, 99));
        assert!(!err.bit(7, 98));
    }

    #[test]
    fn iter_words_skips_zero_words() {
        let err = ErrorMap::from_bits(3, 130, vec![(0, 0), (0, 65), (2, 129)]);
        assert_eq!(
            err.iter_words().collect::<Vec<_>>(),
            vec![(0, 0, 1), (0, 1, 2), (2, 2, 2)]
        );
        // Expanding lanes reproduces iter_bits exactly.
        let expanded: Vec<(usize, usize)> = err
            .iter_words()
            .flat_map(|(pos, w, word)| BitLanes(word).map(move |lane| (pos, w * 64 + lane)))
            .collect();
        assert_eq!(expanded, err.iter_bits().collect::<Vec<_>>());
    }

    #[test]
    fn empty_map_undetected() {
        let err = ErrorMap::empty(5, 10);
        assert!(!err.is_detected());
        assert_eq!(err.num_error_bits(), 0);
        assert!(err.failing_positions().is_empty());
    }

    #[test]
    #[should_panic(expected = "pattern counts differ")]
    fn shape_mismatch_panics() {
        let a = ResponseMap::zeroed(2, 10);
        let b = ResponseMap::zeroed(2, 20);
        let _ = a.xor(&b);
    }
}
