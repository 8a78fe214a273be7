//! Pinned regression tests for the interval-seed search and the
//! partition generators.
//!
//! `find_interval_seed` is run over a grid of chain lengths (the paper
//! circuits' position counts: 52, 228, 250, 790, 1742), group counts
//! 2..=32, LFSR degrees 8/16/24/32 and salts 0..16. Every result —
//! the covering seed, its length-bit count and its lengths, or the
//! number of candidates an exhausted search examined — is folded into
//! one FNV-1a digest per (chain length, degree) cell of the grid, and
//! the digests are pinned, so a faster search that examines seeds in a
//! different order, or picks a different best cover, fails here.
//!
//! `generate_partitions` is pinned the same way for every scheme, as a
//! digest of the group assignments it returns.

use scan_bist::partition::{generate_partitions, PartitionConfig};
use scan_bist::seed::find_interval_seed;
use scan_bist::Scheme;

const CHAIN_LENS: [usize; 5] = [52, 228, 250, 790, 1742];
const DEGREES: [u32; 4] = [8, 16, 24, 32];
const GROUPS: std::ops::RangeInclusive<u16> = 2..=32;
const SALTS: std::ops::Range<u64> = 0..16;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Digest of every search in one (chain length, degree) cell of the
/// grid.
fn seed_grid_digest(chain_len: usize, degree: u32) -> u64 {
    let mut h = Fnv::new();
    for groups in GROUPS {
        for salt in SALTS {
            h.word(u64::from(groups));
            h.word(salt);
            match find_interval_seed(chain_len, groups, degree, salt) {
                Ok(found) => {
                    h.word(1);
                    h.word(found.seed);
                    h.word(u64::from(found.k_bits));
                    h.word(found.lengths.len() as u64);
                    for len in found.lengths {
                        h.word(len as u64);
                    }
                }
                Err(err) => {
                    h.word(0);
                    h.word(err.examined);
                }
            }
        }
    }
    h.0
}

/// The schemes `generate_partitions` dispatches on.
const SCHEMES: [Scheme; 5] = [
    Scheme::RandomSelection,
    Scheme::IntervalBased,
    Scheme::TwoStep {
        interval_partitions: 1,
    },
    Scheme::TwoStep {
        interval_partitions: 3,
    },
    Scheme::FixedInterval,
];

/// Digest of one scheme's partitions over every chain length at 4, 8,
/// 16 and 32 groups, 8 partitions each.
fn partitions_digest(scheme: Scheme) -> u64 {
    let mut h = Fnv::new();
    for chain_len in CHAIN_LENS {
        for groups in [4u16, 8, 16, 32] {
            let config = PartitionConfig::new(chain_len, groups);
            for part in generate_partitions(&config, scheme, 8) {
                h.word(u64::from(part.num_groups()));
                for &g in part.assignment() {
                    h.word(u64::from(g));
                }
            }
        }
    }
    h.0
}

/// Checks every pinned grid cell of one LFSR degree.
fn check_degree(degree: u32) {
    let pins: Vec<_> = SEED_PINS.iter().filter(|pin| pin.1 == degree).collect();
    assert_eq!(pins.len(), CHAIN_LENS.len(), "one pin per chain length");
    for (&&(chain_len, _, expected), want_len) in pins.iter().zip(CHAIN_LENS) {
        assert_eq!(chain_len, want_len, "pin table out of order");
        assert_eq!(
            seed_grid_digest(chain_len, degree),
            expected,
            "seed search moved at chain length {chain_len}, degree {degree}"
        );
    }
}

#[test]
fn interval_seed_search_is_pinned_at_degree_8() {
    check_degree(8);
}

#[test]
fn interval_seed_search_is_pinned_at_degree_16() {
    check_degree(16);
}

#[test]
fn interval_seed_search_is_pinned_at_degree_24() {
    check_degree(24);
}

#[test]
fn interval_seed_search_is_pinned_at_degree_32() {
    check_degree(32);
}

#[test]
fn pin_table_covers_the_grid() {
    let cells: Vec<(usize, u32)> = CHAIN_LENS
        .iter()
        .flat_map(|&len| DEGREES.iter().map(move |&deg| (len, deg)))
        .collect();
    let pinned: Vec<(usize, u32)> = SEED_PINS.iter().map(|&(len, deg, _)| (len, deg)).collect();
    assert_eq!(pinned, cells);
}

#[test]
fn paper_sized_cover_is_pinned_literally() {
    // s953's 52 observation positions in 4 groups, degree-16 LFSR.
    let found = find_interval_seed(52, 4, 16, 0).expect("cover exists");
    assert_eq!(
        (found.seed, found.k_bits, found.lengths.as_slice()),
        PAPER_COVER
    );
}

#[test]
fn generated_partitions_are_pinned() {
    for (scheme, expected) in SCHEMES.iter().zip(PARTITION_PINS) {
        assert_eq!(
            partitions_digest(*scheme),
            expected,
            "{} partitions moved",
            scheme.name()
        );
    }
}

#[test]
#[ignore = "pin generator: run with --ignored --nocapture to regenerate the tables"]
fn print_pins() {
    eprintln!("const SEED_PINS: [(usize, u32, u64); 20] = [");
    for chain_len in CHAIN_LENS {
        for degree in DEGREES {
            let digest = seed_grid_digest(chain_len, degree);
            eprintln!("    ({chain_len}, {degree}, {digest:#018X}),");
        }
    }
    eprintln!("];");
    let found = find_interval_seed(52, 4, 16, 0).expect("cover exists");
    eprintln!("PAPER_COVER: {found:?}");
    eprintln!("const PARTITION_PINS: [u64; 5] = [");
    for scheme in SCHEMES {
        eprintln!("    {:#018X},", partitions_digest(scheme));
    }
    eprintln!("];");
}

const SEED_PINS: [(usize, u32, u64); 20] = [
    (52, 8, 0x3D66_F1D4_4B94_DB07),
    (52, 16, 0xB1C3_2F6C_6854_C556),
    (52, 24, 0xFBF8_4AAE_A1E3_01F0),
    (52, 32, 0x9F60_2440_FD57_A1ED),
    (228, 8, 0x22B0_80B3_DD8A_7E8C),
    (228, 16, 0xAC89_40CF_66F1_099E),
    (228, 24, 0x1F18_233F_1226_3DC0),
    (228, 32, 0x152F_75B2_1E18_9F30),
    (250, 8, 0x999D_4764_7779_7DBB),
    (250, 16, 0x154F_3620_F115_BF82),
    (250, 24, 0x641D_FF31_BCEC_9A08),
    (250, 32, 0x4779_7033_E457_A573),
    (790, 8, 0xB266_66A8_B464_15CA),
    (790, 16, 0xC74C_C101_8EA3_46E4),
    (790, 24, 0x6D61_F1CD_4456_21B8),
    (790, 32, 0x03E0_CE58_42DE_4AB8),
    (1742, 8, 0x56ED_CC08_61C2_0CA4),
    (1742, 16, 0xD353_6370_6850_4DE8),
    (1742, 24, 0x3C6C_78FF_2019_A931),
    (1742, 32, 0xF500_A510_920B_B7D5),
];

const PAPER_COVER: (u64, u32, &[usize]) = (35467, 5, &[11, 17, 11, 19]);

const PARTITION_PINS: [u64; 5] = [
    0x3BC3_C87A_89CE_99F5,
    0x6E20_82CE_4837_1737,
    0xEDFE_5ABD_459E_AB27,
    0x33CB_DFEB_DC9A_E4CD,
    0xC70C_7A22_BB3F_9325,
];
