//! Pinned-output regression tests for the PPSFP engine.
//!
//! `engine_diff.rs` checks the engine against the full-resimulation
//! oracle on the faults both draw; these tests pin what the engine
//! returns outright, so a change to its storage or sweep order that
//! moved both engines alike, or moved the sampled faults, fails here.
//! They pin the FNV-1a digest of `sample_detected_with_maps`, of
//! `sample_detected_multiplets_with_maps` and of the `detects` verdict
//! of every collapsed fault, at 128, 200 (a ragged last word) and 256
//! LFSR patterns, on `s27` and two generated circuits.

use scan_bist::Prpg;
use scan_netlist::{bench, generate, Netlist, ScanView};
use scan_sim::{ErrorMap, Fault, FaultUniverse, PatternSet, PpsfpSimulator};

/// Pattern counts of the pinned runs: two, four (the last one partial)
/// and four full words.
const PATTERNS: [usize; 3] = [128, 200, 256];

/// Detected faults drawn per single-fault sample.
const SAMPLE: usize = 30;

/// Detected multiplets, of [`MULTIPLET`] faults each, per sample.
const MULTIPLETS: usize = 10;
const MULTIPLET: usize = 3;

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

    fn faults(&mut self, faults: &[Fault]) {
        for fault in faults {
            self.bytes(fault.to_string().as_bytes());
            self.bytes(b";");
        }
    }

    fn map(&mut self, map: &ErrorMap) {
        for (pos, word, diff) in map.iter_words() {
            self.word(pos as u64);
            self.word(word as u64);
            self.word(diff);
        }
        self.bytes(b"\n");
    }
}

fn circuit(name: &str) -> Netlist {
    if name == "s27" {
        bench::s27()
    } else {
        generate::benchmark(name)
    }
}

/// The campaign pattern set: the PRPG stream in scan-application order.
fn lfsr_patterns(netlist: &Netlist, patterns: usize) -> PatternSet {
    let mut prpg = Prpg::new(0xACE1).unwrap();
    PatternSet::from_bit_stream(netlist.num_inputs(), netlist.num_dffs(), patterns, || {
        prpg.next_bit()
    })
}

/// `[single-fault sample, multiplet sample, detects verdicts]`.
type Digests = [u64; 3];

fn digests(netlist: &Netlist, patterns: usize) -> Digests {
    let view = ScanView::natural(netlist, true);
    let patterns = lfsr_patterns(netlist, patterns);
    let mut psim = PpsfpSimulator::new(netlist, &view, &patterns).expect("shapes match");

    let mut single = Fnv::new();
    for (fault, map) in psim.sample_detected_with_maps(SAMPLE, 1) {
        single.faults(&[fault]);
        single.map(&map);
    }
    let mut multi = Fnv::new();
    for (faults, map) in psim.sample_detected_multiplets_with_maps(MULTIPLETS, MULTIPLET, 2) {
        multi.faults(&faults);
        multi.map(&map);
    }
    let mut verdicts = Fnv::new();
    for fault in FaultUniverse::collapsed(netlist).faults() {
        verdicts.bytes(&[u8::from(psim.detects(fault))]);
    }
    [single.0, multi.0, verdicts.0]
}

#[test]
fn ppsfp_outputs_are_pinned() {
    let mut got = Vec::new();
    for name in ["s27", "s953", "s5378"] {
        let netlist = circuit(name);
        for patterns in PATTERNS {
            got.push((format!("{name}@{patterns}"), digests(&netlist, patterns)));
        }
    }
    let want: Vec<(String, Digests)> = PINS.iter().map(|(n, d)| ((*n).to_owned(), *d)).collect();
    if got != want {
        let table: String = got
            .iter()
            .map(|(n, d)| {
                format!(
                    "    (\"{n}\", [{:#018x}, {:#018x}, {:#018x}]),\n",
                    d[0], d[1], d[2]
                )
            })
            .collect();
        panic!("PPSFP outputs moved; the current table is:\n{table}");
    }
}

/// `("circuit@patterns", [sample_detected_with_maps,
/// sample_detected_multiplets_with_maps, detects verdicts])`.
#[rustfmt::skip]
const PINS: &[(&str, Digests)] = &[
    ("s27@128", [0x965ee520951f460d, 0xdd6e819d03f080ae, 0x8f91fe46735ed5de]),
    ("s27@200", [0x766bf6746c065ac3, 0xdbe14fb6b227cabb, 0x8f91fe46735ed5de]),
    ("s27@256", [0xa7495e3deefdd88c, 0x0395bc53307e2693, 0x8f91fe46735ed5de]),
    ("s953@128", [0xb08818b4e14a0613, 0x6883ac1185fd13f8, 0x4c8df947e775bf68]),
    ("s953@200", [0xa901faef3bcd0eb3, 0xa592edc25278341c, 0xbfc67aa97b0fb811]),
    ("s953@256", [0xe4e3a028ad9d2b9f, 0xa8e6d4b486d1ea5d, 0xa3b4c36b4597699c]),
    ("s5378@128", [0x27df23362ff9148e, 0x9959128548a4d5e0, 0x4151a767ccf6b421]),
    ("s5378@200", [0x09e64338304c3be5, 0x70feeae4dc2d452d, 0x0080b8675afff906]),
    ("s5378@256", [0x34ce82c87b163c82, 0x664dc118d6021c7e, 0x0ee90179bee2800b]),
];
