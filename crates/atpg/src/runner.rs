//! Whole-fault-list ATPG with fault-simulation-based pattern dropping.

use scan_netlist::{Netlist, ScanView};
use scan_sim::{Fault, FaultUniverse, PatternSet, PpsfpSimulator};

use crate::pattern::TestPattern;
use crate::podem::{Podem, PodemLimits, PodemResult};

/// Aggregate results of an ATPG run over a fault list.
#[derive(Clone, Debug)]
pub struct AtpgResult {
    /// The generated test cubes, in generation order.
    pub patterns: Vec<TestPattern>,
    /// Faults detected (by a generated pattern, including fortuitous
    /// detection through fault dropping).
    pub detected: usize,
    /// Faults proven redundant.
    pub redundant: usize,
    /// Faults aborted at the backtrack limit.
    pub aborted: usize,
    /// Total faults targeted.
    pub total: usize,
}

impl AtpgResult {
    /// Stuck-at fault coverage: detected / total.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.detected as f64 / self.total as f64
        }
    }

    /// Test efficiency: (detected + redundant) / total — the fraction
    /// of faults with a definite resolution.
    #[must_use]
    pub fn efficiency(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            (self.detected + self.redundant) as f64 / self.total as f64
        }
    }
}

/// Runs PODEM over the collapsed fault universe with fault dropping:
/// every generated cube is X-filled and fault-simulated against the
/// remaining undetected faults, so fortuitously covered faults are
/// never targeted.
///
/// `x_fill_seed` controls the don't-care fill (and therefore the
/// fortuitous coverage); the run is fully deterministic.
///
/// # Panics
///
/// Panics only on internal invariant violations (e.g. a generated cube
/// failing to detect its own target fault).
#[must_use]
pub fn run_atpg(netlist: &Netlist, limits: &PodemLimits, x_fill_seed: u64) -> AtpgResult {
    let universe = FaultUniverse::collapsed(netlist);
    let faults: Vec<Fault> = universe.faults().to_vec();
    let view = ScanView::natural(netlist, true);
    let mut alive: Vec<bool> = faults
        .iter()
        .map(|f| scan_sim::site_has_fanout(netlist, f))
        .collect();
    // Faults with no fanout are structurally undetectable; count them
    // as redundant up front.
    let mut redundant = alive.iter().filter(|&&a| !a).count();
    let mut detected = 0usize;
    let mut aborted = 0usize;
    let mut patterns: Vec<TestPattern> = Vec::new();
    let mut podem = Podem::new(netlist);

    for i in 0..faults.len() {
        if !alive[i] {
            continue;
        }
        match podem.generate(&faults[i], limits) {
            PodemResult::Test(cube) => {
                // Fault-drop: simulate the concrete pattern against all
                // still-alive faults.
                let (pi, state) = cube.x_fill(x_fill_seed.wrapping_add(patterns.len() as u64));
                let pattern_set = single_pattern_set(netlist, &pi, &state);
                let mut psim = PpsfpSimulator::new(netlist, &view, &pattern_set)
                    .expect("pattern set shaped for the netlist");
                for (j, fault) in faults.iter().enumerate() {
                    if alive[j] && psim.detects(fault) {
                        alive[j] = false;
                        detected += 1;
                    }
                }
                // The target fault must be among them (the cube is a
                // test for it by construction).
                debug_assert!(!alive[i], "generated cube missed its target");
                // Extremely defensively: if X-fill masked the target
                // (cannot happen for a correct cube), drop it anyway to
                // guarantee progress.
                if alive[i] {
                    alive[i] = false;
                    detected += 1;
                }
                patterns.push(cube);
            }
            PodemResult::Untestable => {
                alive[i] = false;
                redundant += 1;
            }
            PodemResult::Aborted => {
                alive[i] = false;
                aborted += 1;
            }
        }
    }

    AtpgResult {
        patterns,
        detected,
        redundant,
        aborted,
        total: faults.len(),
    }
}

/// Builds a one-pattern [`PatternSet`] from concrete PI/state vectors.
///
/// # Panics
///
/// Panics if `pi`/`state` are shorter than the circuit's interface.
#[must_use]
pub fn single_pattern_set(netlist: &Netlist, pi: &[bool], state: &[bool]) -> PatternSet {
    let mut st_iter = state.iter();
    let mut pi_iter = pi.iter();
    PatternSet::from_bit_stream(netlist.num_inputs(), netlist.num_dffs(), 1, || {
        if let Some(&b) = st_iter.next() {
            b
        } else {
            *pi_iter.next().expect("enough pattern bits")
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use scan_netlist::bench;

    #[test]
    fn s27_reaches_full_efficiency() {
        let n = bench::s27();
        let result = run_atpg(&n, &PodemLimits::default(), 1);
        assert_eq!(result.aborted, 0);
        assert!(result.coverage() > 0.95, "coverage {}", result.coverage());
        assert!((result.efficiency() - 1.0).abs() < 1e-9);
        // Fault dropping keeps the pattern count well below the fault
        // count.
        assert!(result.patterns.len() < result.total / 2);
    }

    #[test]
    fn synthetic_s298_efficiency_high() {
        let n = scan_netlist::generate::benchmark("s298");
        let result = run_atpg(&n, &PodemLimits::default(), 1);
        assert!(
            result.efficiency() > 0.9,
            "efficiency {} (detected {}, redundant {}, aborted {} of {})",
            result.efficiency(),
            result.detected,
            result.redundant,
            result.aborted,
            result.total
        );
    }

    #[test]
    fn deterministic_runs() {
        let n = bench::s27();
        let a = run_atpg(&n, &PodemLimits::default(), 9);
        let b = run_atpg(&n, &PodemLimits::default(), 9);
        assert_eq!(a.patterns, b.patterns);
        assert_eq!(a.detected, b.detected);
    }
}
