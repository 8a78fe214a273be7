//! SOC-level diagnosis campaigns: one faulty core at a time.
//!
//! The paper's SOC experiments (Tables 3 and 4, Fig. 5) assume a spot
//! defect confined to a single embedded core: for each core in turn,
//! 500 stuck-at faults are injected into it and the failing scan cells
//! are located on the SOC's *meta* scan chains. This module drives
//! [`PreparedCampaign::from_soc`] across every core and scheme.

use scan_bist::Scheme;
use scan_soc::Soc;

use crate::experiment::{CampaignError, CampaignSpec, PreparedCampaign, SchemeReport};

/// Results for one failing core: one report per requested scheme.
#[derive(Clone, Debug)]
pub struct CoreRow {
    /// Name of the (assumed faulty) core.
    pub core: String,
    /// Reports in the order the schemes were given.
    pub reports: Vec<SchemeReport>,
}

/// Runs the SOC diagnosis campaign for every core and every scheme,
/// each core's per-fault diagnosis sharded across `threads` std threads
/// (`0` = one per available CPU) — the workspace's slowest path, and
/// bit-identical at any thread count (see [`crate::parallel`]).
///
/// The same prepared fault evidence is reused across schemes for each
/// core, matching the paper's controlled comparison.
///
/// # Errors
///
/// Returns the first [`CampaignError`] encountered.
pub fn diagnose_each_core(
    soc: &Soc,
    spec: &CampaignSpec,
    schemes: &[Scheme],
    threads: usize,
) -> Result<Vec<CoreRow>, CampaignError> {
    let num_cores = soc.cores().len();
    let mut rows = Vec::with_capacity(num_cores);
    for (index, core) in soc.cores().iter().enumerate() {
        {
            let _span = scan_obs::span!("core[{}]", core.name());
            let campaign = PreparedCampaign::from_soc(soc, index, spec)?;
            let reports = schemes
                .iter()
                .map(|&scheme| campaign.run_parallel(scheme, threads))
                .collect::<Result<_, _>>()?;
            rows.push(CoreRow {
                core: core.name().to_owned(),
                reports,
            });
        }
        // Fold this thread's shard at the core boundary so live
        // telemetry (sampler ticks, SLO evaluation, a mid-sweep
        // /metrics scrape) sees per-core progress rather than one
        // burst at process exit. The core span is closed above, so
        // nothing open is discarded.
        scan_obs::flush_thread();
        scan_obs::progress::tick("soc_cores", index + 1, num_cores);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scan_netlist::generate;
    use scan_soc::CoreModule;

    #[test]
    fn rows_cover_every_core_and_scheme() {
        let cores = vec![
            CoreModule::new(generate::benchmark("s298")),
            CoreModule::new(generate::benchmark("s344")),
        ];
        let soc = Soc::single_chain("duo", cores).unwrap();
        let mut spec = CampaignSpec::new(32, 4, 3);
        spec.num_faults = 15;
        let schemes = [Scheme::RandomSelection, Scheme::TWO_STEP_DEFAULT];
        let rows = diagnose_each_core(&soc, &spec, &schemes, 1).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].core, "s298");
        for row in &rows {
            assert_eq!(row.reports.len(), 2);
            assert_eq!(row.reports[0].scheme, Scheme::RandomSelection);
        }
    }

    #[test]
    #[allow(clippy::float_cmp)] // bit-identical results are the contract
    fn parallel_rows_are_bit_identical() {
        let cores = vec![
            CoreModule::new(generate::benchmark("s298")),
            CoreModule::new(generate::benchmark("s344")),
        ];
        let soc = Soc::single_chain("duo", cores).unwrap();
        let mut spec = CampaignSpec::new(32, 4, 3);
        spec.num_faults = 15;
        let schemes = [Scheme::RandomSelection, Scheme::TWO_STEP_DEFAULT];
        let serial = diagnose_each_core(&soc, &spec, &schemes, 1).unwrap();
        for threads in [2, 8] {
            let par = diagnose_each_core(&soc, &spec, &schemes, threads).unwrap();
            for (s, p) in serial.iter().zip(&par) {
                assert_eq!(s.core, p.core);
                for (sr, pr) in s.reports.iter().zip(&p.reports) {
                    assert_eq!(sr.dr, pr.dr);
                    assert_eq!(sr.dr_pruned, pr.dr_pruned);
                    assert_eq!(sr.dr_by_prefix, pr.dr_by_prefix);
                }
            }
        }
    }
}
