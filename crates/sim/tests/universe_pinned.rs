//! Pinned-output regression tests for campaign preparation.
//!
//! A campaign samples its faults from `FaultUniverse::collapsed` in
//! universe order and simulates them under the LFSR PRPG pattern set.
//! The `engine_diff` harness cannot notice a change in either: its
//! oracle samples from the same candidate sequence and simulates the
//! same patterns. These tests pin the FNV-1a digest of
//! `FaultUniverse::all`, `FaultUniverse::collapsed`, every net's
//! `fanout_count` and the PRPG pattern words on one real netlist (s27)
//! and five generated ones, from small (s298) to the largest sequential
//! one (s38417) and the combinational multiplier (c6288), so a change
//! to any of them (its order included) fails here first.

use scan_bist::Prpg;
use scan_netlist::{bench, generate, Netlist};
use scan_sim::{Fault, FaultUniverse, PatternSet};

/// Patterns per pinned pattern set (more than three words, the last
/// one partial).
const PATTERNS: usize = 200;

/// PRPG seeds of the pinned pattern sets: the campaign default and one
/// more.
const PRPG_SEEDS: [u64; 2] = [0xACE1, 7];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }
}

fn circuit(name: &str) -> Netlist {
    if name == "s27" {
        bench::s27()
    } else {
        generate::benchmark(name)
    }
}

fn faults_digest(faults: &[Fault]) -> u64 {
    let mut h = Fnv::new();
    for fault in faults {
        h.bytes(fault.to_string().as_bytes());
        h.bytes(b"\n");
    }
    h.0
}

fn fanout_digest(netlist: &Netlist) -> u64 {
    let mut h = Fnv::new();
    for net in netlist.net_ids() {
        h.word(netlist.fanout_count(net) as u64);
    }
    h.0
}

/// The campaign pattern set: the PRPG stream in scan-application order.
fn lfsr_patterns(netlist: &Netlist, seed: u64) -> PatternSet {
    let mut prpg = Prpg::new(seed).unwrap();
    PatternSet::from_bit_stream(netlist.num_inputs(), netlist.num_dffs(), PATTERNS, || {
        prpg.next_bit()
    })
}

fn patterns_digest(patterns: &PatternSet) -> u64 {
    let mut h = Fnv::new();
    for w in 0..patterns.num_words() {
        for ff in 0..patterns.num_ffs() {
            h.word(patterns.state_word(ff, w));
        }
        for pi in 0..patterns.num_pis() {
            h.word(patterns.pi_word(pi, w));
        }
    }
    h.0
}

/// `(circuit, all, collapsed, fanout counts, [patterns per PRPG seed])`.
type Pin = (&'static str, u64, u64, u64, [u64; 2]);

#[test]
fn universes_fanouts_and_patterns_are_pinned() {
    for &(name, all, collapsed, fanouts, patterns) in PINS {
        let netlist = circuit(name);
        assert_eq!(
            faults_digest(FaultUniverse::all(&netlist).faults()),
            all,
            "{name}: FaultUniverse::all moved"
        );
        assert_eq!(
            faults_digest(FaultUniverse::collapsed(&netlist).faults()),
            collapsed,
            "{name}: FaultUniverse::collapsed moved"
        );
        assert_eq!(
            fanout_digest(&netlist),
            fanouts,
            "{name}: fanout_count moved"
        );
        for (seed, expected) in PRPG_SEEDS.into_iter().zip(patterns) {
            assert_eq!(
                patterns_digest(&lfsr_patterns(&netlist, seed)),
                expected,
                "{name}: PRPG patterns moved at seed {seed:#x}"
            );
        }
    }
}

const PINS: &[Pin] = &[
    (
        "s27",
        0x3b8e_f9d8_e8ef_5572,
        0x6f43_9a33_8136_f46e,
        0x90e8_c7b6_ef47_c5e5,
        [0x57b6_5573_03cf_1d87, 0xe5ca_fc26_1f8d_1bbb],
    ),
    (
        "s298",
        0x91fd_00eb_8347_d25f,
        0x1102_299b_452a_761d,
        0x22e3_18a5_32f4_dec7,
        [0x3217_af1f_3384_3881, 0x2277_81af_a652_a5cc],
    ),
    (
        "s953",
        0x082b_4dca_ce8b_7dac,
        0x13c5_6104_1d50_ed32,
        0x112e_f77f_1201_a5a2,
        [0x0eb4_8aa1_838d_6441, 0xd3f4_17a5_a9cc_ec4b],
    ),
    (
        "s5378",
        0xa7d6_9162_ca20_d413,
        0x095f_f13b_feca_560d,
        0x7fd0_3534_645c_f5d4,
        [0x1f55_c9de_837a_fa50, 0x5e90_101b_2abf_9712],
    ),
    (
        "s38417",
        0xdd33_021b_33ba_681f,
        0x6a74_bf38_a8f8_2bdd,
        0xfc1e_fa27_7bfa_ca81,
        [0xa83e_99a3_3635_023f, 0x83d4_984c_2f09_d0e8],
    ),
    (
        "c6288",
        0xb57e_76f4_c6e7_33b1,
        0x231d_995f_40fc_d829,
        0xda26_90f9_50b8_2217,
        [0xc2cb_699d_b830_9c5a, 0x2710_e0e9_1520_6912],
    ),
];
