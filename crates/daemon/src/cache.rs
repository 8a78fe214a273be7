//! Per-circuit plan cache with single-flight deduplication.
//!
//! Building a [`DiagnosisPlan`] for a large circuit (netlist
//! generation + partition synthesis + MISR model) costs orders of
//! magnitude more than serving a diagnosis from it, so a cache-miss
//! stampede — a fleet of testers all asking about the same circuit the
//! moment the daemon starts — must collapse to **one** build: the
//! first requester builds, everyone else blocks on a condvar until the
//! slot flips to ready. Entries are bounded and evicted
//! least-recently-used; a failed build is not cached (waiters get the
//! error, the next request retries).

use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex};

use scan_diagnosis::DiagnosisPlan;

/// A cached, immutable plan plus the facts responses need.
#[derive(Debug)]
pub struct CachedPlan {
    /// The diagnosis plan (partitions + MISR model).
    pub plan: DiagnosisPlan,
    /// Scan cells in the chain (the candidate universe).
    pub cells: usize,
}

enum Slot {
    /// Some thread is building; wait on the condvar.
    Building,
    /// Ready to serve. `used` is the LRU clock.
    Ready { value: Arc<CachedPlan>, used: u64 },
}

struct State {
    slots: BTreeMap<String, Slot>,
    tick: u64,
}

/// The bounded single-flight cache.
pub struct PlanCache {
    state: Mutex<State>,
    changed: Condvar,
    capacity: usize,
}

impl PlanCache {
    /// A cache holding at most `capacity` ready plans (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            state: Mutex::new(State {
                slots: BTreeMap::new(),
                tick: 0,
            }),
            changed: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Number of ready entries (in-flight builds excluded).
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.lock().map_or(0, |s| {
            s.slots
                .values()
                .filter(|slot| matches!(slot, Slot::Ready { .. }))
                .count()
        })
    }

    /// Whether the cache holds no ready entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the cached plan for `key`, building it with `build` on
    /// a miss. Concurrent misses on the same key run `build` exactly
    /// once; the losers wait for the winner.
    ///
    /// # Errors
    ///
    /// Propagates the builder's error (to the builder *and* to every
    /// waiter of that flight). Failed builds are not cached.
    ///
    /// # Panics
    ///
    /// Panics only if the internal mutex was poisoned by a panicking
    /// builder thread — and builders run `build` outside the lock, so
    /// a panicking `build` cannot poison it.
    pub fn get_or_build<F, E>(&self, key: &str, build: F) -> Result<Arc<CachedPlan>, E>
    where
        F: FnOnce() -> Result<CachedPlan, E>,
    {
        let mut build = Some(build);
        let mut state = self.state.lock().expect("cache lock");
        loop {
            match state.slots.get(key) {
                Some(Slot::Ready { .. }) => {
                    state.tick += 1;
                    let tick = state.tick;
                    if let Some(Slot::Ready { value, used }) = state.slots.get_mut(key) {
                        *used = tick;
                        scan_obs::metrics::incr("daemon.cache.hits");
                        return Ok(Arc::clone(value));
                    }
                    unreachable!("slot vanished while locked");
                }
                Some(Slot::Building) => {
                    scan_obs::metrics::incr("daemon.cache.waits");
                    state = self.changed.wait(state).expect("cache lock");
                    // Loop: the flight finished (ready or removed).
                }
                None => {
                    let Some(build) = build.take() else {
                        unreachable!("builder path returns; cannot loop back here");
                    };
                    scan_obs::metrics::incr("daemon.cache.misses");
                    state.slots.insert(key.to_owned(), Slot::Building);
                    drop(state);
                    let built = build();
                    let mut state = self.state.lock().expect("cache lock");
                    match built {
                        Ok(value) => {
                            let value = Arc::new(value);
                            state.tick += 1;
                            let tick = state.tick;
                            state.slots.insert(
                                key.to_owned(),
                                Slot::Ready {
                                    value: Arc::clone(&value),
                                    used: tick,
                                },
                            );
                            self.evict_to_capacity(&mut state, key);
                            drop(state);
                            self.changed.notify_all();
                            return Ok(value);
                        }
                        Err(e) => {
                            state.slots.remove(key);
                            drop(state);
                            self.changed.notify_all();
                            return Err(e);
                        }
                    }
                }
            }
        }
    }

    /// Drops least-recently-used ready entries (never in-flight builds
    /// and never `keep`) until at most `capacity` ready entries remain.
    fn evict_to_capacity(&self, state: &mut State, keep: &str) {
        loop {
            let ready = state
                .slots
                .iter()
                .filter(|(_, slot)| matches!(slot, Slot::Ready { .. }))
                .count();
            if ready <= self.capacity {
                return;
            }
            let victim = state
                .slots
                .iter()
                .filter_map(|(k, slot)| match slot {
                    Slot::Ready { used, .. } if k != keep => Some((*used, k.clone())),
                    _ => None,
                })
                .min();
            match victim {
                Some((_, key)) => {
                    scan_obs::metrics::incr("daemon.cache.evictions");
                    state.slots.remove(&key);
                }
                None => return,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn plan(cells: usize) -> CachedPlan {
        let plan = DiagnosisPlan::new(
            scan_diagnosis::ChainLayout::single_chain(cells),
            8,
            &scan_diagnosis::BistConfig::new(4, 4, scan_bist::Scheme::RandomSelection),
        )
        .expect("small plan builds");
        CachedPlan { plan, cells }
    }

    #[test]
    fn hit_after_miss_builds_once() {
        let cache = PlanCache::new(4);
        let builds = AtomicUsize::new(0);
        for _ in 0..3 {
            let built = cache
                .get_or_build::<_, String>("s27/4/4/8", || {
                    builds.fetch_add(1, Ordering::SeqCst);
                    Ok(plan(32))
                })
                .expect("build ok");
            assert_eq!(built.cells, 32);
        }
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn failed_builds_are_not_cached() {
        let cache = PlanCache::new(4);
        let err = cache
            .get_or_build("bad", || Err("nope".to_owned()))
            .expect_err("propagates");
        assert_eq!(err, "nope");
        // Next attempt retries (and can succeed).
        let ok = cache
            .get_or_build::<_, String>("bad", || Ok(plan(16)))
            .expect("retried");
        assert_eq!(ok.cells, 16);
    }

    #[test]
    fn concurrent_misses_single_flight() {
        let cache = Arc::new(PlanCache::new(4));
        let builds = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let builds = Arc::clone(&builds);
                scope.spawn(move || {
                    let built = cache
                        .get_or_build::<_, String>("shared", move || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window so waiters really wait.
                            std::thread::sleep(std::time::Duration::from_millis(30));
                            Ok(plan(64))
                        })
                        .expect("build ok");
                    assert_eq!(built.cells, 64);
                });
            }
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1, "stampede must collapse");
    }

    #[test]
    fn lru_eviction_keeps_the_bound_and_the_newest() {
        let cache = PlanCache::new(2);
        cache
            .get_or_build::<_, String>("a", || Ok(plan(16)))
            .unwrap();
        cache
            .get_or_build::<_, String>("b", || Ok(plan(24)))
            .unwrap();
        // Touch `a` so `b` is the LRU victim.
        cache
            .get_or_build::<_, String>("a", || unreachable!("hit"))
            .unwrap();
        cache
            .get_or_build::<_, String>("c", || Ok(plan(40)))
            .unwrap();
        assert_eq!(cache.len(), 2);
        // `b` was evicted: rebuilding it calls the builder again.
        let rebuilt = AtomicUsize::new(0);
        cache
            .get_or_build::<_, String>("b", || {
                rebuilt.fetch_add(1, Ordering::SeqCst);
                Ok(plan(24))
            })
            .unwrap();
        assert_eq!(rebuilt.load(Ordering::SeqCst), 1);
    }
}
