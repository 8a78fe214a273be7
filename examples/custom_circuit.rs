//! Bring your own circuit: define a netlist in ISCAS-89 `.bench` text
//! (or with [`NetlistBuilder`]), pick your own BIST configuration, and
//! diagnose an injected defect — everything a downstream user needs to
//! apply the library outside the benchmark suite.
//!
//! ```sh
//! cargo run --release --example custom_circuit
//! ```

use scan_bist_suite::prelude::*;

/// A small synchronous accumulator-and-flags design, written directly
/// in `.bench` syntax.
const MY_DESIGN: &str = "
# acc4: 4-bit accumulator with zero flag
INPUT(in0)
INPUT(in1)
INPUT(en)
OUTPUT(zero)

r0 = DFF(n0)
r1 = DFF(n1)
r2 = DFF(n2)
r3 = DFF(n3)

s0  = XOR(r0, in0)
c0  = AND(r0, in0)
s1  = XOR(r1, in1, c0)
t1  = AND(r1, in1)
t2  = AND(r1, c0)
t3  = AND(in1, c0)
c1a = OR(t1, t2)
c1  = OR(c1a, t3)
s2  = XOR(r2, c1)
c2  = AND(r2, c1)
s3  = XOR(r3, c2)

n0 = AND(s0, en)
n1 = AND(s1, en)
n2 = AND(s2, en)
n3 = AND(s3, en)

nz0 = NOR(r0, r1)
nz1 = NOR(r2, r3)
zero = AND(nz0, nz1)
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = Netlist::from_bench("acc4", MY_DESIGN)?;
    println!(
        "parsed `{}`: {} gates, {} flip-flops, depth {}",
        circuit.name(),
        circuit.num_gates(),
        circuit.num_dffs(),
        circuit.depth()
    );

    // Custom BIST setup: 32 patterns, 2 groups, 4 partitions, and a
    // wider 24-bit MISR.
    let view = ScanView::natural(&circuit, true);
    let patterns = scan_bist_suite::diagnosis::lfsr_patterns(&circuit, 32, 7);
    let mut psim = PpsfpSimulator::new(&circuit, &view, &patterns)?;

    let mut config = BistConfig::new(2, 4, Scheme::TWO_STEP_DEFAULT);
    config.misr_degree = 24;
    let plan = DiagnosisPlan::new(ChainLayout::single_chain(view.len()), 32, &config)?;

    // Diagnose every detected collapsed fault and report resolution.
    let mut acc = DrAccumulator::new();
    for fault in FaultUniverse::collapsed(&circuit).faults() {
        let errors = psim.error_map(fault);
        if !errors.is_detected() {
            continue;
        }
        let outcome = plan.analyze(errors.iter_bits());
        let diag = diagnose_checked(&plan, &outcome)?;
        acc.add(diag.num_candidates(), errors.failing_positions().len());
    }
    println!("diagnosed {} detected faults: {acc}", acc.num_faults());
    Ok(())
}
