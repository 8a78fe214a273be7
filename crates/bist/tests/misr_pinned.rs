//! Pinned-stream regression tests for the bit-serial MISR.
//!
//! The canonical PRPG stream (seed `0xACE1`, the workspace's default)
//! is clocked through [`Misr`] at stream lengths that exercise single
//! bits, word boundaries, ragged tails and multi-word runs, and the
//! literal signatures are pinned so any drift in the polynomial tables
//! or the injection order fails loudly.

use scan_bist::{Misr, Prpg};

const STREAM_SEED: u64 = 0xACE1;

const LENGTHS: [usize; 7] = [1, 63, 64, 65, 100, 129, 1000];

fn bit_serial_signature(degree: u32, len: usize) -> u64 {
    let mut misr = Misr::new(degree).expect("degree supported");
    let mut prpg = Prpg::new(STREAM_SEED).expect("PRPG seed accepted");
    for _ in 0..len {
        misr.clock(u64::from(prpg.next_bit()));
    }
    misr.signature()
}

#[test]
fn degree16_signatures_are_pinned() {
    for (len, expected) in LENGTHS.iter().copied().zip(PINS_D16) {
        assert_eq!(
            bit_serial_signature(16, len),
            expected,
            "signature moved at {len} bits"
        );
    }
}

#[test]
fn degree32_signatures_are_pinned() {
    for (len, expected) in LENGTHS.iter().copied().zip(PINS_D32) {
        assert_eq!(
            bit_serial_signature(32, len),
            expected,
            "signature moved at {len} bits"
        );
    }
}

const PINS_D16: [u64; 7] = [0x0000, 0xB621, 0xCC52, 0x38B4, 0xF7D8, 0x4E15, 0xD21F];
const PINS_D32: [u64; 7] = [
    0x0000_0000,
    0x8546_5197,
    0x0ACC_A328,
    0x1599_4651,
    0x1025_FE27,
    0x59D4_74BE,
    0x6CE2_DD16,
];

#[test]
#[ignore = "pin generator: run with --ignored --nocapture to regenerate the tables"]
fn print_pins() {
    for degree in [16u32, 32] {
        let sigs: Vec<String> = LENGTHS
            .iter()
            .map(|&len| format!("0x{:04X}", bit_serial_signature(degree, len)))
            .collect();
        // lint:allow(L006): the regenerated pin table is this helper's payload
        println!("const PINS_D{degree}: [u64; 7] = [{}];", sigs.join(", "));
    }
}
