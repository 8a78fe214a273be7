//! Ablation: response compactor choice vs aliasing.
//!
//! Diagnosis needs one pass/fail verdict per BIST session; the paper
//! (like \[5\]) uses a MISR, whose aliasing probability is ~2^−16 and
//! error-pattern independent. Counting compactors are cheaper but alias
//! systematically on the *clustered, polarity-balanced* error patterns
//! real faults produce. This experiment replays the masked session
//! streams of real faults through all three compactors and counts
//! sessions whose failure goes unnoticed.

use scan_bench::{render_table, ObsSession};
use scan_bist::compactor::{OnesCounter, ResponseCompactor, TransitionCounter};
use scan_bist::{Misr, Scheme};
use scan_diagnosis::{lfsr_patterns, BistConfig, ChainLayout, DiagnosisPlan};
use scan_netlist::{generate, ScanView};
use scan_sim::FaultSimulator;

fn main() {
    let (obs, _rest) = ObsSession::start("compactors");
    let circuit = generate::benchmark("s953");
    let view = ScanView::natural(&circuit, true);
    let num_patterns = 128usize;
    let patterns = lfsr_patterns(&circuit, num_patterns, 0xACE1);
    // Reference oracle: the compactors replay whole faulty responses, which only it returns.
    let fsim = FaultSimulator::new(&circuit, &view, &patterns).expect("shapes match");
    let faults = fsim.sample_detected_faults(200, 2003);
    let plan = DiagnosisPlan::new(
        ChainLayout::single_chain(view.len()),
        num_patterns,
        &BistConfig::new(4, 2, Scheme::TWO_STEP_DEFAULT),
    )
    .expect("plan builds");

    println!(
        "Compactor aliasing — s953, {} faults, {} sessions each (2 partitions × 4 groups)",
        faults.len(),
        plan.partitions().len() * 4
    );
    println!();

    let mut failing_sessions = 0usize;
    let mut missed = [0usize; 3]; // misr, ones, transitions
    for fault in &faults {
        let golden = fsim.golden();
        let faulty = fsim.response(fault);
        for partition in plan.partitions() {
            for g in 0..partition.num_groups() {
                // Reference truth: does the masked stream differ at all?
                let mut differs = false;
                let mut misr_g = Misr::new(16).expect("degree supported");
                let mut misr_f = Misr::new(16).expect("degree supported");
                let mut ones_g = OnesCounter::new();
                let mut ones_f = OnesCounter::new();
                let mut tr_g = TransitionCounter::new();
                let mut tr_f = TransitionCounter::new();
                for t in 0..num_patterns {
                    for pos in 0..view.len() {
                        if partition.group_of(pos) != g {
                            continue;
                        }
                        let gb = golden.bit(pos, t);
                        let fb = faulty.bit(pos, t);
                        differs |= gb != fb;
                        misr_g.clock(u64::from(gb));
                        misr_f.clock(u64::from(fb));
                        ones_g.clock(u64::from(gb));
                        ones_f.clock(u64::from(fb));
                        tr_g.clock(u64::from(gb));
                        tr_f.clock(u64::from(fb));
                    }
                }
                if differs {
                    failing_sessions += 1;
                    if ResponseCompactor::signature(&misr_g)
                        == ResponseCompactor::signature(&misr_f)
                    {
                        missed[0] += 1;
                    }
                    if ones_g.signature() == ones_f.signature() {
                        missed[1] += 1;
                    }
                    if tr_g.signature() == tr_f.signature() {
                        missed[2] += 1;
                    }
                }
            }
        }
    }

    let rows: Vec<Vec<String>> = [
        ("MISR (16-bit)", missed[0]),
        ("ones counter", missed[1]),
        ("transition counter", missed[2]),
    ]
    .iter()
    .map(|(name, m)| {
        vec![
            (*name).to_owned(),
            m.to_string(),
            format!("{:.3}%", 100.0 * *m as f64 / failing_sessions.max(1) as f64),
        ]
    })
    .collect();
    println!("{failing_sessions} truly failing sessions observed");
    println!();
    println!(
        "{}",
        render_table(&["compactor", "aliased sessions", "aliasing rate"], &rows)
    );
    obs.finish();
}
