//! BIST session scheduling and signature analysis.
//!
//! A diagnosis run executes `partitions × groups` BIST sessions: session
//! `(p, g)` re-applies the whole pattern set with only the cells of
//! group `g` of partition `p` feeding the MISR. A group *fails* when its
//! signature differs from the fault-free signature.
//!
//! Because the MISR is linear, the signature difference (the *error
//! signature*) of a session equals the XOR of the contributions of the
//! error bits it compacts (see [`MisrModel`]); [`ResponseModel`]
//! precomputes the contribution tables and [`DiagnosisPlan`] computes
//! every session's pass/fail verdict directly from the sparse error map
//! — bit-exact with replaying the hardware, including signature
//! aliasing, at a small fraction of the cost.
//!
//! The contribution of bit (cell, pattern) factors as
//! `pat_pow[pattern] · cell_factor[cell]`, so a cell's whole error
//! stream compacts with XORs over its packed words' set lanes and one
//! multiplication: [`DiagnosisPlan::analyze_packed`] never expands a
//! word into bits and scatters each failing cell into the signatures
//! once per partition.

use std::sync::Arc;

use scan_bist::partition::{generate_partitions, PartitionConfig};
use scan_bist::{primitive_poly, MisrModel, Partition, Scheme};

use crate::error::BuildPlanError;
use crate::layout::ChainLayout;

/// Configuration of the diagnosis BIST setup.
#[derive(Clone, Copy, Debug)]
pub struct BistConfig {
    /// Groups per partition (`b`; one BIST session per group).
    pub groups: u16,
    /// Number of partitions.
    pub partitions: usize,
    /// Partitioning scheme.
    pub scheme: Scheme,
    /// MISR width (the error-signature register).
    pub misr_degree: u32,
    /// Degree of the partition-generating LFSR (the paper uses 16).
    pub partition_lfsr_degree: u32,
    /// IVR seed for partition generation.
    pub partition_seed: u64,
}

impl BistConfig {
    /// The paper's defaults: degree-16 partition LFSR, 16-bit MISR,
    /// seed 1.
    #[must_use]
    pub fn new(groups: u16, partitions: usize, scheme: Scheme) -> Self {
        BistConfig {
            groups,
            partitions,
            scheme,
            misr_degree: 16,
            partition_lfsr_degree: 16,
            partition_seed: 1,
        }
    }
}

/// Pass/fail outcome of every session of a diagnosis run.
///
/// The error signatures of all sessions live in one flat buffer, row
/// `p` holding partition `p`'s groups; a group fails iff its signature
/// is nonzero. The row offsets are shared, not copied, with every
/// [`ObservedOutcome`](crate::noise::ObservedOutcome) grid drawn from
/// this outcome and every outcome such a grid collapses back into.
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct SessionOutcome {
    /// Row `p` is `signatures[offsets[p]..offsets[p + 1]]`.
    offsets: Arc<[usize]>,
    /// Per-session error signatures (zero for passing groups).
    signatures: Vec<u64>,
}

impl SessionOutcome {
    /// Builds an outcome from raw per-session error signatures
    /// (`signatures[partition][group]`; a group fails iff its signature
    /// is nonzero). Rows may be owned or borrowed.
    #[must_use]
    pub fn from_signatures<R>(signatures: R) -> Self
    where
        R: IntoIterator,
        R::Item: AsRef<[u64]>,
    {
        SessionOutcome::collect_rows(signatures, |flat, row| flat.extend_from_slice(row.as_ref()))
    }

    /// An outcome of `partitions` rows of `groups` sessions each, from
    /// their flat row-major signatures.
    fn from_rows(partitions: usize, groups: usize, signatures: Vec<u64>) -> Self {
        SessionOutcome {
            offsets: (0..=partitions).map(|p| p * groups).collect(),
            signatures,
        }
    }

    /// An outcome over existing row offsets, from its flat row-major
    /// signatures.
    pub(crate) fn from_flat(offsets: Arc<[usize]>, signatures: Vec<u64>) -> Self {
        SessionOutcome {
            offsets,
            signatures,
        }
    }

    /// Flattens `rows` into one signature buffer, appending each row
    /// with `push` and recording where it ends.
    fn collect_rows<R: IntoIterator>(
        rows: R,
        mut push: impl FnMut(&mut Vec<u64>, R::Item),
    ) -> Self {
        let rows = rows.into_iter();
        let mut offsets = Vec::with_capacity(rows.size_hint().0 + 1);
        offsets.push(0);
        let mut signatures = Vec::new();
        for row in rows {
            push(&mut signatures, row);
            offsets.push(signatures.len());
        }
        SessionOutcome {
            offsets: offsets.into(),
            signatures,
        }
    }

    /// Builds an outcome from bare per-session pass/fail verdicts
    /// (`fails[partition][group]`), e.g. verdicts perturbed by the
    /// [`noise`](crate::noise) layer where true signatures no longer
    /// exist. Error signatures are synthesized as `1` for failing
    /// sessions; callers that need real signatures must use
    /// [`SessionOutcome::from_signatures`].
    #[must_use]
    pub fn from_verdicts(fails: Vec<Vec<bool>>) -> Self {
        SessionOutcome::collect_rows(fails, |flat, row| {
            flat.extend(row.into_iter().map(u64::from));
        })
    }

    /// The row offsets: row `p` spans sessions
    /// `offsets[p]..offsets[p + 1]` of [`signatures`](Self::signatures).
    pub(crate) fn offsets(&self) -> &Arc<[usize]> {
        &self.offsets
    }

    /// Every session's error signature, row-major.
    pub(crate) fn signatures(&self) -> &[u64] {
        &self.signatures
    }

    /// One partition's session signatures, indexed by group: group `g`
    /// failed iff entry `g` is nonzero.
    pub(crate) fn row(&self, partition: usize) -> &[u64] {
        &self.signatures[self.offsets[partition]..self.offsets[partition + 1]]
    }

    /// Whether group `g` of partition `p` failed.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    #[must_use]
    pub fn failed(&self, partition: usize, group: u16) -> bool {
        self.error_signature(partition, group) != 0
    }

    /// The error signature of a session.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    #[must_use]
    pub fn error_signature(&self, partition: usize, group: u16) -> u64 {
        self.row(partition)[usize::from(group)]
    }

    /// Number of partitions.
    #[must_use]
    pub fn num_partitions(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of session groups recorded for one partition.
    ///
    /// # Panics
    ///
    /// Panics if `partition` is out of range.
    #[must_use]
    pub fn num_groups(&self, partition: usize) -> usize {
        self.row(partition).len()
    }

    /// Failing groups of one partition.
    pub fn failing_groups(&self, partition: usize) -> impl Iterator<Item = u16> + '_ {
        self.row(partition)
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s != 0)
            .map(|(g, _)| g as u16)
    }

    /// Returns `true` if no session failed (the fault aliased away or
    /// was undetected).
    #[must_use]
    pub fn all_passed(&self) -> bool {
        self.signatures.iter().all(|&s| s == 0)
    }
}

/// The linear response-compaction model of one BIST setup: chain
/// layout, pattern count, MISR, and the precomputed contribution tables
/// that make error-signature computation linear in the number of error
/// bits.
///
/// Shared by partition-based diagnosis ([`DiagnosisPlan`]), failing-
/// vector diagnosis ([`vector_diag`](crate::vector_diag)), and the
/// adaptive binary-search baseline
/// ([`adaptive`](crate::adaptive)).
#[derive(Clone, Debug)]
pub struct ResponseModel {
    layout: ChainLayout,
    num_patterns: usize,
    misr: MisrModel,
    /// `x^(max_len − 1 − pos) mod p` per shift position.
    pos_pow: Vec<u64>,
    /// `x^((num_patterns − 1 − t) · max_len) mod p` per pattern `t`.
    pat_pow: Vec<u64>,
    /// `x^stage mod p` per chain index.
    stage_pow: Vec<u64>,
    /// `pos_pow[pos] · stage_pow[chain]` per cell: the contribution of
    /// bit (cell, t) is `pat_pow[t] · cell_factor[cell]`.
    cell_factor: Vec<u64>,
}

impl ResponseModel {
    /// Builds the model and its contribution tables.
    ///
    /// # Errors
    ///
    /// Returns [`BuildPlanError`] if the layout is empty, the MISR is
    /// narrower than the number of chains, or the degree is
    /// unsupported.
    pub fn new(
        layout: ChainLayout,
        num_patterns: usize,
        misr_degree: u32,
    ) -> Result<Self, BuildPlanError> {
        if layout.num_cells() == 0 {
            return Err(BuildPlanError::EmptyLayout);
        }
        if num_patterns == 0 {
            return Err(BuildPlanError::DegenerateConfig);
        }
        if layout.num_chains() > misr_degree as usize {
            return Err(BuildPlanError::MisrTooNarrow {
                misr_degree,
                chains: layout.num_chains(),
            });
        }
        let misr = MisrModel::new(misr_degree).map_err(|_| BuildPlanError::UnsupportedDegree {
            degree: misr_degree,
        })?;

        // Contribution of an error bit at (chain, pos, pattern t):
        //   x^(stage + T − 1 − clock),  clock = t·L + pos,  T = P·L
        // = x^stage · x^((P−1−t)·L) · x^(L−1−pos)   (mod p)
        let len = layout.max_len();
        let mut pos_pow = vec![0u64; len];
        let mut acc = 1u64;
        for pos in (0..len).rev() {
            pos_pow[pos] = acc;
            acc = misr.mul_mod(acc, 2); // ·x
        }
        let x_pow_len = misr.x_pow_mod(len as u64);
        let mut pat_pow = vec![0u64; num_patterns];
        let mut acc = 1u64;
        for t in (0..num_patterns).rev() {
            pat_pow[t] = acc;
            acc = misr.mul_mod(acc, x_pow_len);
        }
        let stage_pow: Vec<u64> = (0..layout.num_chains() as u64)
            .map(|s| misr.x_pow_mod(s))
            .collect();
        let cell_factor = (0..layout.num_cells())
            .map(|cell| {
                let (chain, pos) = layout.coord(cell);
                misr.mul_mod(pos_pow[pos as usize], stage_pow[chain as usize])
            })
            .collect();
        Ok(ResponseModel {
            layout,
            num_patterns,
            misr,
            pos_pow,
            pat_pow,
            stage_pow,
            cell_factor,
        })
    }

    /// The chain layout.
    #[must_use]
    pub fn layout(&self) -> &ChainLayout {
        &self.layout
    }

    /// Pattern count per session.
    #[must_use]
    pub fn num_patterns(&self) -> usize {
        self.num_patterns
    }

    /// The MISR model.
    #[must_use]
    pub fn misr(&self) -> MisrModel {
        self.misr
    }

    /// Total MISR clocks per session.
    #[must_use]
    pub fn total_clocks(&self) -> u64 {
        (self.num_patterns * self.layout.max_len()) as u64
    }

    /// The contribution of one error bit (`cell`, `pattern`) to its
    /// session signature, via the precomputed tables.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    #[must_use]
    pub fn contribution(&self, cell: usize, pattern: usize) -> u64 {
        let (chain, pos) = self.layout.coord(cell);
        let a = self
            .misr
            .mul_mod(self.pat_pow[pattern], self.pos_pow[pos as usize]);
        self.misr.mul_mod(a, self.stage_pow[chain as usize])
    }

    /// Compacts packed error words — `(cell, word_index, bits)`, bit `l`
    /// of `bits` standing for pattern `word_index * 64 + l` — into
    /// per-cell signatures, calling `sink(cell, signature)` for each
    /// run of consecutive words of one cell whose signature is nonzero.
    ///
    /// A word costs one XOR of `pat_pow` per set lane; a run costs one
    /// multiplication by the cell's factor. Input sorted by cell (as
    /// `ErrorMap::iter_words` yields it) makes one run per cell; any
    /// order is correct, because signatures add by XOR.
    ///
    /// # Panics
    ///
    /// Panics if a cell or an encoded pattern is out of range.
    pub(crate) fn compact_cells<I, F>(&self, error_words: I, mut sink: F)
    where
        I: IntoIterator<Item = (usize, usize, u64)>,
        F: FnMut(usize, u64),
    {
        let mut flush = |cell: usize, image: u64| {
            let factor = self.cell_factor[cell];
            if image != 0 {
                sink(cell, self.misr.mul_mod(image, factor));
            }
        };
        let mut run: Option<(usize, u64)> = None;
        for (cell, word, bits) in error_words {
            let mut image = 0u64;
            let mut rest = bits;
            while rest != 0 {
                image ^= self.pat_pow[word * 64 + rest.trailing_zeros() as usize];
                rest &= rest - 1;
            }
            match &mut run {
                Some((current, acc)) if *current == cell => *acc ^= image,
                _ => {
                    if let Some((current, acc)) = run.replace((cell, image)) {
                        flush(current, acc);
                    }
                }
            }
        }
        if let Some((cell, acc)) = run {
            flush(cell, acc);
        }
    }

    /// The error signature of one session that compacts exactly the
    /// error bits accepted by `selected`.
    #[must_use]
    pub fn masked_signature<I, F>(&self, error_bits: I, mut selected: F) -> u64
    where
        I: IntoIterator<Item = (usize, usize)>,
        F: FnMut(usize, usize) -> bool,
    {
        let mut signature = 0u64;
        for (cell, pattern) in error_bits {
            if selected(cell, pattern) {
                signature ^= self.contribution(cell, pattern);
            }
        }
        signature
    }
}

/// A fully elaborated diagnosis setup: the response model plus the
/// scheme's partitions over shift positions.
///
/// Beyond the partitions, a plan keeps the model's per-cell factors,
/// the cells of each group of the first partition, and one cell→group
/// row per partition ([`cell_groups`](Self::cell_groups)): entry `c`
/// of row `p` is the group of cell `c` in partition `p`. When cell `c`
/// sits at shift position `c` (every one-chain layout), row `p` *is*
/// partition `p`'s assignment and nothing more is stored; any other
/// (multi-chain) layout adds a partition-major table of partitions ×
/// cells half-words. A plan is O(partitions × (positions + cells) +
/// patterns) words in all, and O(partitions × positions + cells +
/// patterns) for one chain. Intersection, pruning, ranking and voting
/// read one group row and one outcome row per partition; per-fault
/// analysis, intersection and pruning cost in proportion to the
/// failing cells, not the chain.
#[derive(Clone, Debug)]
pub struct DiagnosisPlan {
    model: ResponseModel,
    partitions: Vec<Partition>,
    /// Sessions per partition row of a [`SessionOutcome`]: the largest
    /// group count of any partition.
    max_groups: usize,
    /// Empty when cell `c` sits at shift position `c`; otherwise row
    /// `p`, `cell_groups[p * cells..(p + 1) * cells]`, holds every
    /// cell's group in partition `p`.
    cell_groups: Vec<u16>,
    /// Cells of group `g` of the first partition:
    /// `first_cells[first_offsets[g]..first_offsets[g + 1]]`.
    first_offsets: Vec<u32>,
    first_cells: Vec<u32>,
}

impl DiagnosisPlan {
    /// Builds the plan: generates the scheme's partitions over the
    /// layout's shift positions and precomputes contribution tables.
    ///
    /// # Errors
    ///
    /// Returns [`BuildPlanError`] if the configuration is degenerate,
    /// asks for more groups than shift positions, the MISR cannot host
    /// one stage per chain, or the MISR or partition-LFSR degree is
    /// unsupported.
    pub fn new(
        layout: ChainLayout,
        num_patterns: usize,
        config: &BistConfig,
    ) -> Result<Self, BuildPlanError> {
        if config.partitions == 0 || config.groups == 0 {
            return Err(BuildPlanError::DegenerateConfig);
        }
        let model = ResponseModel::new(layout, num_patterns, config.misr_degree)?;
        if primitive_poly(config.partition_lfsr_degree).is_err() {
            return Err(BuildPlanError::UnsupportedDegree {
                degree: config.partition_lfsr_degree,
            });
        }
        let positions = model.layout().max_len();
        if usize::from(config.groups) > positions {
            return Err(BuildPlanError::TooManyGroups {
                groups: config.groups,
                positions,
            });
        }
        let mut partition_config = PartitionConfig::new(positions, config.groups);
        partition_config.lfsr_degree = config.partition_lfsr_degree;
        partition_config.seed = config.partition_seed;
        let partitions = generate_partitions(&partition_config, config.scheme, config.partitions);
        let max_groups = partitions
            .iter()
            .map(|p| usize::from(p.num_groups()))
            .max()
            .unwrap_or(0);

        let layout = model.layout();
        // Cell c at shift position c (every one-chain layout): each
        // partition's assignment already is its cell→group row.
        let position_indexed = layout.num_cells() == positions
            && (0..positions).all(|cell| layout.coord(cell).1 as usize == cell);
        let cell_groups = if position_indexed {
            Vec::new()
        } else {
            partitions
                .iter()
                .flat_map(|partition| {
                    (0..layout.num_cells())
                        .map(|cell| partition.group_of(layout.coord(cell).1 as usize))
                })
                .collect()
        };
        let mut plan = DiagnosisPlan {
            model,
            partitions,
            max_groups,
            cell_groups,
            first_offsets: Vec::new(),
            first_cells: Vec::new(),
        };

        // The cells grouped by first-partition group; the sort is
        // stable, so each group's cells stay in ascending order.
        let first = plan.cell_groups(0);
        let group_of = |cell: u32| first[cell as usize];
        let mut first_cells: Vec<u32> = (0..first.len() as u32).collect();
        first_cells.sort_by_key(|&cell| group_of(cell));
        plan.first_offsets = (0..=plan.partitions[0].num_groups())
            .map(|g| first_cells.partition_point(|&cell| group_of(cell) < g) as u32)
            .collect();
        plan.first_cells = first_cells;
        Ok(plan)
    }

    /// The underlying response model.
    #[must_use]
    pub fn model(&self) -> &ResponseModel {
        &self.model
    }

    /// The chain layout diagnosed by this plan.
    #[must_use]
    pub fn layout(&self) -> &ChainLayout {
        self.model.layout()
    }

    /// The generated partitions.
    #[must_use]
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// Pattern count per session.
    #[must_use]
    pub fn num_patterns(&self) -> usize {
        self.model.num_patterns()
    }

    /// The MISR model.
    #[must_use]
    pub fn misr(&self) -> MisrModel {
        self.model.misr()
    }

    /// Total MISR clocks per session.
    #[must_use]
    pub fn total_clocks(&self) -> u64 {
        self.model.total_clocks()
    }

    /// The largest group count of any partition: the number of
    /// sessions per partition row of every [`SessionOutcome`] this
    /// plan produces.
    #[must_use]
    pub(crate) fn max_groups(&self) -> usize {
        self.max_groups
    }

    /// The cells of group `group` of the first partition, in ascending
    /// order (empty past the partition's group count).
    #[must_use]
    pub(crate) fn first_partition_cells(&self, group: u16) -> &[u32] {
        let g = usize::from(group);
        if g + 1 >= self.first_offsets.len() {
            return &[];
        }
        &self.first_cells[self.first_offsets[g] as usize..self.first_offsets[g + 1] as usize]
    }

    /// Every cell's group in partition `partition`, indexed by cell:
    /// the partition's own assignment when cell `c` sits at shift
    /// position `c` (every one-chain layout), a row of the plan's
    /// cell→group table otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `partition` is out of range.
    #[must_use]
    pub fn cell_groups(&self, partition: usize) -> &[u16] {
        if self.cell_groups.is_empty() {
            self.partitions[partition].assignment()
        } else {
            let cells = self.layout().num_cells();
            &self.cell_groups[partition * cells..(partition + 1) * cells]
        }
    }

    /// The contribution of one error bit (`cell`, `pattern`) to its
    /// session signature, via the precomputed tables.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    #[must_use]
    pub fn contribution(&self, cell: usize, pattern: usize) -> u64 {
        self.model.contribution(cell, pattern)
    }

    /// Per-bit reference analysis: runs every session over error bits
    /// given one by one as `(global cell, pattern)` and returns the
    /// pass/fail verdicts.
    ///
    /// This is the test oracle of [`DiagnosisPlan::analyze_packed`],
    /// the production path: it costs two bit-serial multiplications
    /// and one scatter per partition for every error bit.
    ///
    /// # Panics
    ///
    /// Panics if any error bit is out of range.
    #[must_use]
    pub fn analyze<I>(&self, error_bits: I) -> SessionOutcome
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let groups = self.max_groups;
        let mut signatures = vec![0u64; groups * self.partitions.len()];
        for (cell, pattern) in error_bits {
            let (_, pos) = self.model.layout().coord(cell);
            let contribution = self.model.contribution(cell, pattern);
            for (p, partition) in self.partitions.iter().enumerate() {
                let g = usize::from(partition.group_of(pos as usize));
                signatures[p * groups + g] ^= contribution;
            }
        }
        SessionOutcome::from_rows(self.partitions.len(), groups, signatures)
    }

    /// Runs every session over *packed* error words —
    /// `(global cell, word_index, bits)` triples where bit `l` of
    /// `bits` is the error bit of pattern `word_index * 64 + l` — as
    /// produced by `ErrorMap::iter_words` or streamed straight from
    /// the PPSFP simulator's word sweep, and returns the pass/fail
    /// verdicts.
    ///
    /// Words are never expanded into bits: each word XORs `pat_pow`
    /// over its set lanes, each cell's words compact into one signature
    /// with a single multiplication by the cell's `pos_pow · stage_pow`
    /// factor, and that signature is scattered into its group of every
    /// partition. The triples may
    /// come in any order; sorted by cell they cost one multiplication
    /// and one scatter per failing cell. Bit-identical to
    /// [`DiagnosisPlan::analyze`] over the expanded bits.
    ///
    /// # Panics
    ///
    /// Panics if a cell or an encoded pattern is out of range.
    #[must_use]
    pub fn analyze_packed<I>(&self, error_words: I) -> SessionOutcome
    where
        I: IntoIterator<Item = (usize, usize, u64)>,
    {
        let groups = self.max_groups;
        let mut signatures = vec![0u64; groups * self.partitions.len()];
        self.model.compact_cells(error_words, |cell, signature| {
            let (_, pos) = self.model.layout().coord(cell);
            for (row, partition) in signatures.chunks_exact_mut(groups).zip(&self.partitions) {
                row[usize::from(partition.group_of(pos as usize))] ^= signature;
            }
        });
        SessionOutcome::from_rows(self.partitions.len(), groups, signatures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scan_bist::Misr;

    fn plan(chain_len: usize, patterns: usize, groups: u16, parts: usize) -> DiagnosisPlan {
        DiagnosisPlan::new(
            ChainLayout::single_chain(chain_len),
            patterns,
            &BistConfig::new(groups, parts, Scheme::RandomSelection),
        )
        .unwrap()
    }

    #[test]
    fn contribution_matches_model_directly() {
        let p = plan(37, 10, 4, 2);
        let total = p.total_clocks();
        for (cell, pattern) in [(0usize, 0usize), (36, 9), (17, 5), (0, 9), (36, 0)] {
            let clock = (pattern * 37 + cell) as u64;
            assert_eq!(
                p.contribution(cell, pattern),
                p.misr().contribution(total, clock, 0),
                "cell {cell} pattern {pattern}"
            );
        }
    }

    #[test]
    fn analyze_matches_bit_true_misr_emulation() {
        // Emulate the full hardware per session: shift every cell of
        // every pattern through a real MISR, masking unselected cells,
        // for both the golden and the faulty stream; compare verdicts.
        let chain_len = 23;
        let patterns = 7;
        let p = plan(chain_len, patterns, 4, 3);
        let error_bits = [(3usize, 0usize), (3, 4), (9, 2), (22, 6), (10, 2)];
        let outcome = p.analyze(error_bits.iter().copied());

        for (pi, part) in p.partitions().iter().enumerate() {
            for g in 0..part.num_groups() {
                let mut golden = Misr::from_model(p.misr());
                let mut faulty = Misr::from_model(p.misr());
                for t in 0..patterns {
                    for pos in 0..chain_len {
                        let selected = part.group_of(pos) == g;
                        // Arbitrary golden bit; the error flips it.
                        let gbit = (pos * 7 + t) % 3 == 0;
                        let ebit = error_bits.contains(&(pos, t));
                        golden.clock(u64::from(gbit && selected));
                        faulty.clock(u64::from((gbit ^ ebit) && selected));
                    }
                }
                let failed = golden.signature() != faulty.signature();
                assert_eq!(outcome.failed(pi, g), failed, "partition {pi} group {g}");
            }
        }
    }

    #[test]
    fn analyze_packed_matches_analyze() {
        // 100 patterns spans a full word plus a ragged tail; the packed
        // path must reproduce the per-bit path exactly, signatures
        // included.
        let p = plan(23, 100, 4, 3);
        let bits = [
            (3usize, 0usize),
            (3, 63),
            (3, 64),
            (9, 99),
            (22, 70),
            (10, 2),
        ];
        let mut words: Vec<(usize, usize, u64)> = Vec::new();
        for &(cell, pattern) in &bits {
            let (w, lane) = (pattern / 64, pattern % 64);
            if let Some(entry) = words.iter_mut().find(|(c, ww, _)| *c == cell && *ww == w) {
                entry.2 |= 1 << lane;
            } else {
                words.push((cell, w, 1 << lane));
            }
        }
        assert_eq!(
            p.analyze_packed(words.iter().copied()),
            p.analyze(bits.iter().copied())
        );
        assert_eq!(
            p.analyze_packed(std::iter::empty()),
            p.analyze(std::iter::empty())
        );
    }

    #[test]
    fn empty_error_map_passes_everything() {
        let p = plan(50, 8, 4, 4);
        let outcome = p.analyze(std::iter::empty());
        assert!(outcome.all_passed());
    }

    #[test]
    fn single_error_bit_fails_exactly_one_group_per_partition() {
        let p = plan(64, 4, 8, 5);
        let outcome = p.analyze([(13usize, 2usize)]);
        for pi in 0..outcome.num_partitions() {
            let failing: Vec<u16> = outcome.failing_groups(pi).collect();
            assert_eq!(failing.len(), 1);
            assert_eq!(failing[0], p.partitions()[pi].group_of(13));
        }
    }

    #[test]
    fn cancelling_bits_alias() {
        // Two identical (cell, pattern) bits XOR to nothing.
        let p = plan(10, 2, 2, 1);
        let outcome = p.analyze([(4usize, 1usize), (4, 1)]);
        assert!(outcome.all_passed());
    }

    #[test]
    fn more_groups_than_positions_is_a_typed_error() {
        // Two chains of at most 3 shift positions: 4 groups cannot fit.
        let layout = ChainLayout::from_coords(vec![(0, 0), (0, 1), (0, 2), (1, 0)]);
        let err = DiagnosisPlan::new(layout, 8, &BistConfig::new(4, 2, Scheme::TWO_STEP_DEFAULT));
        assert_eq!(
            err.err(),
            Some(BuildPlanError::TooManyGroups {
                groups: 4,
                positions: 3
            })
        );
    }

    #[test]
    fn misr_too_narrow_rejected() {
        let layout = ChainLayout::from_coords((0..40).map(|i| (i, 0)).collect());
        let err = DiagnosisPlan::new(layout, 4, &BistConfig::new(2, 1, Scheme::RandomSelection));
        assert!(matches!(err, Err(BuildPlanError::MisrTooNarrow { .. })));
    }

    #[test]
    fn degenerate_configs_rejected() {
        let layout = ChainLayout::single_chain(10);
        assert!(DiagnosisPlan::new(
            layout.clone(),
            0,
            &BistConfig::new(2, 1, Scheme::RandomSelection)
        )
        .is_err());
        assert!(
            DiagnosisPlan::new(layout, 4, &BistConfig::new(2, 0, Scheme::RandomSelection)).is_err()
        );
    }

    #[test]
    fn unsupported_partition_degree_is_a_typed_error() {
        for scheme in [
            Scheme::RandomSelection,
            Scheme::IntervalBased,
            Scheme::TWO_STEP_DEFAULT,
            Scheme::FixedInterval,
        ] {
            for degree in [0, 1, 33, 40] {
                let mut config = BistConfig::new(4, 3, scheme);
                config.partition_lfsr_degree = degree;
                let err = DiagnosisPlan::new(ChainLayout::single_chain(52), 8, &config);
                assert_eq!(
                    err.err(),
                    Some(BuildPlanError::UnsupportedDegree { degree }),
                    "{} at degree {degree}",
                    scheme.name()
                );
            }
        }
    }

    #[test]
    fn multi_chain_contributions_use_stages() {
        let layout = ChainLayout::from_coords(vec![(0, 0), (1, 0), (0, 1), (1, 1)]);
        let plan =
            DiagnosisPlan::new(layout, 3, &BistConfig::new(2, 1, Scheme::RandomSelection)).unwrap();
        // Same (pos, pattern), different chains → different stages →
        // different contributions.
        assert_ne!(plan.contribution(0, 1), plan.contribution(1, 1));
        // Direct model cross-check for chain 1.
        let total = plan.total_clocks();
        assert_eq!(
            plan.contribution(1, 2),
            plan.misr().contribution(total, 2 * 2, 1)
        );
    }

    #[test]
    fn masked_signature_matches_analyze() {
        let p = plan(32, 6, 4, 2);
        let bits = [(5usize, 1usize), (6, 2), (20, 3)];
        let outcome = p.analyze(bits.iter().copied());
        for (pi, part) in p.partitions().iter().enumerate() {
            for g in 0..part.num_groups() {
                let sig = p
                    .model()
                    .masked_signature(bits.iter().copied(), |cell, _| part.group_of(cell) == g);
                assert_eq!(sig, outcome.error_signature(pi, g));
            }
        }
    }
}
