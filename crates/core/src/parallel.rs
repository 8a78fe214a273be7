//! Deterministic std-thread sharding of fault-injection campaigns.
//!
//! A prepared campaign diagnoses each injected fault independently:
//! [`PreparedCampaign`](crate::PreparedCampaign) holds no interior
//! mutability, so its per-case analysis is pure and can run on any
//! thread. Every campaign report — `run_parallel`,
//! `run_robust_parallel`, `run_localization_parallel`, and their
//! one-thread forms `run`, `run_robust`, `run_localization` — shards
//! the fault indices through this module's one loop: contiguous chunks
//! on [`std::thread::scope`] workers, with the per-case statistics
//! folded back **in fault-index order**.
//!
//! # Determinism guarantee
//!
//! Results are *bit-identical* at any thread count, by construction
//! rather than by tolerance:
//!
//! 1. every per-fault statistic is computed from shared immutable state
//!    (plan, mask, error maps) with no cross-case data flow;
//! 2. workers write each case's result into that case's own slot of a
//!    pre-sized buffer — completion order is irrelevant;
//! 3. aggregation (integer [`DrAccumulator`](crate::DrAccumulator)
//!    counts and the order-sensitive floating-point margin sums) happens
//!    serially over that buffer in fault-index order.
//!
//! Where a stream seed must vary per shard — e.g. the per-core PRPG
//! seeds of an SOC campaign — it is derived as
//! [`scan_rng::derive`]`(base, index)`, a `SplitMix64` mix of the base
//! seed with the shard index, never by handing one sequential RNG
//! stream to racing workers. The integration test
//! `tests/parallel_determinism.rs` checks the guarantee end-to-end at
//! 1, 2, and 8 threads.

use std::num::NonZeroUsize;

/// Number of worker threads the `threads = 0` ("auto") setting resolves
/// to: one per core the OS reports available, with a floor of 1.
#[must_use]
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Resolves a user thread request: `0` means auto, and there is never a
/// reason to spawn more workers than cases.
fn effective_threads(threads: usize, cases: usize) -> usize {
    let t = if threads == 0 {
        available_threads()
    } else {
        threads
    };
    t.clamp(1, cases.max(1))
}

/// Shards `0..cases` across `threads` workers in contiguous chunks,
/// filling `slot[i]` with `work(i)`, and returns the slots in index
/// order.
pub(crate) fn sharded_map<T, F>(cases: usize, threads: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = effective_threads(threads, cases);
    let mut slots: Vec<Option<T>> = (0..cases).map(|_| None).collect();
    if threads == 1 {
        for (i, slot) in slots.iter_mut().enumerate() {
            *slot = Some(work(i));
            scan_obs::progress::tick_worker(0, i + 1, cases);
        }
        scan_obs::metrics::add("parallel.worker0.cases", cases as u64);
    } else {
        let chunk = cases.div_ceil(threads);
        std::thread::scope(|scope| {
            for (w, shard) in slots.chunks_mut(chunk).enumerate() {
                let work = &work;
                scope.spawn(move || {
                    {
                        let _span = scan_obs::span!("worker");
                        let base = w * chunk;
                        let total = shard.len();
                        for (off, slot) in shard.iter_mut().enumerate() {
                            *slot = Some(work(base + off));
                            scan_obs::progress::tick_worker(w, off + 1, total);
                        }
                        scan_obs::metrics::add_fmt(
                            || format!("parallel.worker{w}.cases"),
                            total as u64,
                        );
                    }
                    // Fold this worker's shard before the scope join can
                    // observe thread termination: the automatic TLS-drop
                    // merge may run after the scope unblocks, racing a
                    // snapshot taken by the parent thread.
                    scan_obs::flush_thread();
                });
            }
        });
    }
    slots.into_iter().map(|s| s.expect("every case computed")).collect()
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // bit-identical results are the contract
mod tests {
    use super::*;
    use crate::experiment::{CampaignSpec, PreparedCampaign};
    use crate::robust::RobustPolicy;
    use scan_bist::Scheme;
    use scan_netlist::generate;

    #[test]
    fn effective_threads_clamps() {
        assert_eq!(effective_threads(4, 2), 2);
        assert_eq!(effective_threads(1, 100), 1);
        assert_eq!(effective_threads(8, 0), 1);
        assert!(effective_threads(0, 100) >= 1);
    }

    #[test]
    fn sharded_map_preserves_index_order() {
        for threads in [1, 2, 3, 8, 17] {
            let out = sharded_map(13, threads, |i| i * i);
            assert_eq!(out, (0..13).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn sharded_map_handles_empty_input() {
        let out: Vec<usize> = sharded_map(0, 4, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    #[allow(clippy::float_cmp)]
    fn parallel_robust_run_is_bit_identical_to_serial() {
        use crate::noise::{NoiseConfig, NoiseModel};
        let n = generate::benchmark("s386");
        let mut spec = CampaignSpec::new(64, 4, 4);
        spec.num_faults = 30;
        let campaign = PreparedCampaign::from_circuit(&n, &spec).unwrap();
        let mut cfg = NoiseConfig::noiseless(13);
        cfg.flip_rate = 0.03;
        cfg.dropout_rate = 0.01;
        let noise = NoiseModel::new(cfg).unwrap();
        let policy = RobustPolicy::default();
        let serial = campaign
            .run_robust(Scheme::TWO_STEP_DEFAULT, &noise, &policy)
            .unwrap();
        for threads in [1, 2, 8] {
            let par = campaign
                .run_robust_parallel(Scheme::TWO_STEP_DEFAULT, &noise, &policy, threads)
                .unwrap();
            assert_eq!(par.exact, serial.exact);
            assert_eq!(par.degraded, serial.degraded);
            assert_eq!(par.inconclusive, serial.inconclusive);
            assert_eq!(par.dr, serial.dr);
            assert_eq!(par.retry_rounds, serial.retry_rounds);
            assert_eq!(par.retried_sessions, serial.retried_sessions);
            assert_eq!(par.fallbacks, serial.fallbacks);
            assert_eq!(par.strict_failures, serial.strict_failures);
            assert_eq!(par.recovered, serial.recovered);
            assert_eq!(par.hits, serial.hits);
        }
    }

    #[test]
    fn parallel_run_is_bit_identical_to_serial() {
        let n = generate::benchmark("s386");
        let mut spec = CampaignSpec::new(64, 4, 4);
        spec.num_faults = 30;
        let campaign = PreparedCampaign::from_circuit(&n, &spec).unwrap();
        let serial = campaign.run(Scheme::TWO_STEP_DEFAULT).unwrap();
        for threads in [1, 2, 8] {
            let par = campaign.run_parallel(Scheme::TWO_STEP_DEFAULT, threads).unwrap();
            assert_eq!(par.dr, serial.dr);
            assert_eq!(par.dr_pruned, serial.dr_pruned);
            assert_eq!(par.dr_by_prefix, serial.dr_by_prefix);
            assert_eq!(par.mean_candidates, serial.mean_candidates);
            assert_eq!(par.lost_cells, serial.lost_cells);
        }
    }
}
