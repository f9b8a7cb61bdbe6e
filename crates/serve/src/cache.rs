//! The daemon's regression cache: each served regression is computed once.
//!
//! In the paper, the "Before CDG" repository is the project's existing
//! regression data, which CDG mines but never recomputes. A served
//! request's regression is a deterministic function of its
//! [`RegressionKey`], so the daemon keeps every repository it computed as
//! a [`RepoSnapshot`] and restores later requests with the same key from
//! it ([`CoverageRepository::from_snapshot`](ascdg_coverage::CoverageRepository::from_snapshot)
//! is byte-identical, as restart recovery already relies on).
//!
//! * Lookups are single-flight: a request whose key is being computed
//!   waits for that computation instead of starting its own.
//! * Errors are not cached: a failed computation leaves no entry, and the
//!   next lookup computes again.
//! * Entries are evicted least-recently-used once their summed size
//!   exceeds the cache's byte budget.
//!
//! The cache starts empty with its daemon and is filled only by that
//! daemon's own requests; one-shot runs and campaigns never see it.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use ascdg_core::{FlowError, Telemetry};
use ascdg_coverage::RepoSnapshot;

/// Byte budget of a serving daemon's regression cache. Snapshots of the
/// built-in units measure a few KB to a few tens of KB, so this holds
/// thousands of distinct keys.
pub(crate) const REGRESSION_CACHE_BYTES: usize = 64 << 20;

/// Everything a served regression repository is a deterministic function
/// of. The unit's name stands for its stock library too: a daemon's units
/// are the built-in environments, whose libraries never change while it
/// runs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct RegressionKey {
    /// The unit's canonical name.
    pub(crate) unit: String,
    /// Simulations per stock template.
    pub(crate) sims_per_template: u64,
    /// The regression's own seed (a request derives it from its seed).
    pub(crate) seed: u64,
}

/// One cache slot.
enum Slot {
    /// One lookup is computing this key; the others wait for it.
    InFlight,
    /// A computed repository.
    Ready {
        snapshot: Arc<RepoSnapshot>,
        bytes: usize,
        last_used: u64,
    },
}

#[derive(Default)]
struct CacheState {
    slots: HashMap<RegressionKey, Slot>,
    /// Logical clock stamping each use, for LRU order.
    clock: u64,
    /// Summed size of the ready entries.
    bytes: usize,
    /// Number of ready entries.
    entries: usize,
}

/// A single-flight, byte-budgeted LRU cache of regression snapshots.
///
/// Its readings go to the telemetry handle it was built with: counters
/// `serve.regression_cache.{hits,misses,evictions}` and gauges
/// `serve.regression_cache.{entries,bytes}`.
pub(crate) struct RegressionCache {
    budget: usize,
    telemetry: Telemetry,
    state: Mutex<CacheState>,
    settled: Condvar,
}

impl RegressionCache {
    /// An empty cache holding at most `budget` bytes of snapshots.
    #[must_use]
    pub(crate) fn new(budget: usize, telemetry: Telemetry) -> Self {
        RegressionCache {
            budget,
            telemetry,
            state: Mutex::new(CacheState::default()),
            settled: Condvar::new(),
        }
    }

    /// The snapshot for `key`: the cached one, the one another lookup is
    /// computing right now (waited for), or else `compute`'s result, which
    /// is then cached.
    ///
    /// # Errors
    ///
    /// `compute`'s error, uncached.
    pub(crate) fn get_or_compute(
        &self,
        key: &RegressionKey,
        compute: impl FnOnce() -> Result<RepoSnapshot, FlowError>,
    ) -> Result<Arc<RepoSnapshot>, FlowError> {
        let mut state = self.lock();
        loop {
            state.clock += 1;
            let now = state.clock;
            match state.slots.get_mut(key) {
                Some(Slot::Ready {
                    snapshot,
                    last_used,
                    ..
                }) => {
                    *last_used = now;
                    let snapshot = Arc::clone(snapshot);
                    drop(state);
                    self.count("serve.regression_cache.hits", 1);
                    return Ok(snapshot);
                }
                Some(Slot::InFlight) => {
                    state = self
                        .settled
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                None => break,
            }
        }
        state.slots.insert(key.clone(), Slot::InFlight);
        drop(state);
        self.count("serve.regression_cache.misses", 1);
        // Settles the slot however `compute` ends, a panic included, so
        // waiters never block on a computation that is gone.
        let _flight = Flight { cache: self, key };
        let snapshot = Arc::new(compute()?);
        self.insert(key, Arc::clone(&snapshot));
        Ok(snapshot)
    }

    /// Fills `key`'s in-flight slot, then evicts least-recently-used
    /// entries until the cache fits its budget again.
    fn insert(&self, key: &RegressionKey, snapshot: Arc<RepoSnapshot>) {
        let bytes = snapshot_bytes(&snapshot);
        let mut state = self.lock();
        state.clock += 1;
        let last_used = state.clock;
        state.slots.insert(
            key.clone(),
            Slot::Ready {
                snapshot,
                bytes,
                last_used,
            },
        );
        state.bytes += bytes;
        state.entries += 1;
        let mut evicted = 0;
        while state.bytes > self.budget {
            let lru = state
                .slots
                .iter()
                .filter_map(|(k, slot)| match slot {
                    Slot::Ready {
                        bytes, last_used, ..
                    } => Some((*last_used, *bytes, k)),
                    Slot::InFlight => None,
                })
                .min_by_key(|&(last_used, _, _)| last_used)
                .map(|(_, bytes, k)| (k.clone(), bytes));
            let Some((lru, bytes)) = lru else { break };
            state.slots.remove(&lru);
            state.bytes -= bytes;
            state.entries -= 1;
            evicted += 1;
        }
        let (entries, bytes) = (state.entries, state.bytes);
        drop(state);
        self.count("serve.regression_cache.evictions", evicted);
        if let Some(m) = self.telemetry.metrics() {
            m.gauge("serve.regression_cache.entries")
                .set(entries as f64);
            m.gauge("serve.regression_cache.bytes").set(bytes as f64);
        }
    }

    fn count(&self, name: &str, n: u64) {
        if let Some(m) = self.telemetry.metrics() {
            m.counter(name).add(n);
        }
    }

    fn lock(&self) -> MutexGuard<'_, CacheState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The computing lookup's claim on an in-flight slot.
struct Flight<'a> {
    cache: &'a RegressionCache,
    key: &'a RegressionKey,
}

impl Drop for Flight<'_> {
    fn drop(&mut self) {
        let mut state = self.cache.lock();
        if matches!(state.slots.get(self.key), Some(Slot::InFlight)) {
            state.slots.remove(self.key);
        }
        drop(state);
        self.cache.settled.notify_all();
    }
}

/// The heap size of a snapshot's names and counters.
fn snapshot_bytes(snapshot: &RepoSnapshot) -> usize {
    let names: usize = snapshot.events.iter().map(String::len).sum();
    let words = snapshot.global_hits.len()
        + snapshot
            .per_template
            .iter()
            .map(|(_, _, hits)| hits.len() + 2)
            .sum::<usize>();
    snapshot.unit.len() + names + 8 * words
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;
    use std::time::Duration;

    use ascdg_core::{CdgFlow, FlowConfig};
    use ascdg_duv::io_unit::IoEnv;
    use ascdg_duv::VerifEnv;

    use super::*;

    fn test_threads() -> usize {
        std::env::var("ASCDG_TEST_THREADS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(2)
    }

    fn io_flow() -> CdgFlow<IoEnv> {
        let mut config = FlowConfig::quick().scaled(0.2);
        config.threads = test_threads();
        CdgFlow::new(IoEnv::new(), config)
    }

    fn key_of(flow: &CdgFlow<IoEnv>, seed: u64) -> RegressionKey {
        RegressionKey {
            unit: flow.env().unit_name().to_owned(),
            sims_per_template: flow.config().regression_sims_per_template,
            seed,
        }
    }

    /// At a budget of two snapshots the cache evicts the least recently
    /// used one, an evicted key recomputes to the same bytes, and a failed
    /// computation is not cached.
    #[test]
    fn evicts_least_recently_used_and_recomputes_identically() {
        let flow = io_flow();
        let key = |seed: u64| key_of(&flow, seed);
        let regress = |seed: u64| flow.run_regression(seed).map(|repo| repo.snapshot());
        let cached = |_: u64| -> Result<_, FlowError> { panic!("the key is cached") };

        // Every snapshot of one unit and budget has the same size; measure it.
        let size = snapshot_bytes(&regress(1).unwrap());
        assert!(size > 0);

        let telemetry = Telemetry::enabled();
        let metrics = telemetry.metrics().unwrap();
        let cache = RegressionCache::new(2 * size, telemetry.clone());
        let a = cache.get_or_compute(&key(1), || regress(1)).unwrap();
        let b = cache.get_or_compute(&key(2), || regress(2)).unwrap();
        // Touch 1, so 2 is the least recently used when 3 arrives.
        cache.get_or_compute(&key(1), || cached(1)).unwrap();
        cache.get_or_compute(&key(3), || regress(3)).unwrap();
        assert_eq!(
            metrics.counter("serve.regression_cache.evictions").value(),
            1
        );
        assert_eq!(cache.get_or_compute(&key(1), || cached(1)).unwrap(), a);
        // 2 was evicted: it recomputes, to the same bytes.
        let b_again = cache.get_or_compute(&key(2), || regress(2)).unwrap();
        assert_eq!(*b_again, *b);
        assert_eq!(metrics.counter("serve.regression_cache.misses").value(), 4);
        assert_eq!(metrics.counter("serve.regression_cache.hits").value(), 2);
        assert_eq!(
            metrics.counter("serve.regression_cache.evictions").value(),
            2
        );
        assert_eq!(metrics.gauge("serve.regression_cache.entries").value(), 2.0);
        assert_eq!(
            metrics.gauge("serve.regression_cache.bytes").value(),
            2.0 * size as f64
        );

        // Errors are not cached: the next lookup computes again.
        let failing = || Err(FlowError::EmptyLibrary);
        assert!(cache.get_or_compute(&key(9), failing).is_err());
        assert!(cache.get_or_compute(&key(9), failing).is_err());
        assert_eq!(metrics.counter("serve.regression_cache.misses").value(), 6);
        assert_eq!(metrics.gauge("serve.regression_cache.entries").value(), 2.0);
    }

    /// A lookup that arrives while its key is being computed waits for
    /// that computation and shares its result instead of computing again.
    #[test]
    fn lookups_are_single_flight() {
        let flow = io_flow();
        let key = key_of(&flow, 4);
        let telemetry = Telemetry::enabled();
        let cache = RegressionCache::new(usize::MAX, telemetry.clone());
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (cache, flow, key) = (&cache, &flow, &key);
        let (leader, follower) = std::thread::scope(|scope| {
            let leader = scope.spawn(move || {
                cache
                    .get_or_compute(key, || {
                        started_tx.send(()).unwrap();
                        release_rx.recv().unwrap();
                        flow.run_regression(key.seed).map(|repo| repo.snapshot())
                    })
                    .unwrap()
            });
            started_rx.recv().unwrap();
            // The key is in flight until the release below. The pause makes
            // the follower look it up before the release, so it waits; if it
            // looks it up after, it finds the entry. Either way it must not
            // compute, and it gets the leader's snapshot.
            let follower = scope.spawn(move || {
                cache
                    .get_or_compute(key, || panic!("an in-flight key is computed once"))
                    .unwrap()
            });
            std::thread::sleep(Duration::from_millis(50));
            release_tx.send(()).unwrap();
            (leader.join().unwrap(), follower.join().unwrap())
        });
        assert!(Arc::ptr_eq(&leader, &follower));
        let metrics = telemetry.metrics().unwrap();
        assert_eq!(metrics.counter("serve.regression_cache.misses").value(), 1);
        assert_eq!(metrics.counter("serve.regression_cache.hits").value(), 1);
    }
}
