//! A forwarding [`VerifEnv`] that times every simulation call.
//!
//! The traced run wraps each unit's environment in a [`TimedEnv`]: every
//! trait method forwards to the wrapped environment, and each
//! `simulate_*` call adds its wall time, its lane count and one call to
//! the wrapper's counters. The wrapper changes no result, so a traced
//! outcome must stay byte-identical to an untraced one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use ascdg_coverage::{CoverageModel, CoverageVector};
use ascdg_duv::{EnvError, FusedSegment, SimScratch, VerifEnv};
use ascdg_template::{ParamRegistry, ResolvedParams, TemplateLibrary, TestTemplate};

/// Counters of one wrapped environment. Relaxed atomics: they publish no
/// other data and are read only after the pool that bumps them has
/// joined.
#[derive(Debug, Default)]
pub struct SimCounters {
    calls: AtomicU64,
    lanes: AtomicU64,
    busy_ns: AtomicU64,
    fused_calls: AtomicU64,
}

/// A point-in-time copy of [`SimCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimTotals {
    /// `simulate_*` calls of any kind.
    pub calls: u64,
    /// Simulations (plane lanes or coverage vectors) those calls produced.
    pub lanes: u64,
    /// Wall time spent inside the calls, summed over threads.
    pub busy_ns: u64,
    /// `simulate_fused_plane` calls (a subset of `calls`).
    pub fused_calls: u64,
}

impl SimTotals {
    /// Field-wise sum.
    #[must_use]
    pub fn plus(self, o: SimTotals) -> SimTotals {
        SimTotals {
            calls: self.calls + o.calls,
            lanes: self.lanes + o.lanes,
            busy_ns: self.busy_ns + o.busy_ns,
            fused_calls: self.fused_calls + o.fused_calls,
        }
    }
}

/// The forwarding wrapper.
#[derive(Debug)]
pub struct TimedEnv<E> {
    inner: E,
    counters: SimCounters,
}

impl<E: VerifEnv> TimedEnv<E> {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: E) -> Self {
        TimedEnv {
            inner,
            counters: SimCounters::default(),
        }
    }

    /// The counters so far.
    pub fn totals(&self) -> SimTotals {
        let c = &self.counters;
        SimTotals {
            calls: c.calls.load(Ordering::Relaxed),
            lanes: c.lanes.load(Ordering::Relaxed),
            busy_ns: c.busy_ns.load(Ordering::Relaxed),
            fused_calls: c.fused_calls.load(Ordering::Relaxed),
        }
    }

    fn timed<R>(&self, lanes: usize, fused: bool, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        let c = &self.counters;
        c.calls.fetch_add(1, Ordering::Relaxed);
        c.lanes.fetch_add(lanes as u64, Ordering::Relaxed);
        c.busy_ns.fetch_add(ns, Ordering::Relaxed);
        if fused {
            c.fused_calls.fetch_add(1, Ordering::Relaxed);
        }
        out
    }
}

impl<E: VerifEnv> VerifEnv for TimedEnv<E> {
    fn unit_name(&self) -> &str {
        self.inner.unit_name()
    }

    fn registry(&self) -> &ParamRegistry {
        self.inner.registry()
    }

    fn coverage_model(&self) -> &CoverageModel {
        self.inner.coverage_model()
    }

    fn stock_library(&self) -> &TemplateLibrary {
        self.inner.stock_library()
    }

    fn simulate_seeded(
        &self,
        resolved: &ResolvedParams,
        sampler_seed: u64,
    ) -> Result<CoverageVector, EnvError> {
        self.timed(1, false, || {
            self.inner.simulate_seeded(resolved, sampler_seed)
        })
    }

    fn simulate_batch(
        &self,
        resolved: &ResolvedParams,
        seeds: &[u64],
        scratch: &mut SimScratch,
    ) -> Result<Vec<CoverageVector>, EnvError> {
        self.timed(seeds.len(), false, || {
            self.inner.simulate_batch(resolved, seeds, scratch)
        })
    }

    fn simulate_batch_plane(
        &self,
        resolved: &ResolvedParams,
        seeds: &[u64],
        scratch: &mut SimScratch,
    ) -> Result<(), EnvError> {
        self.timed(seeds.len(), false, || {
            self.inner.simulate_batch_plane(resolved, seeds, scratch)
        })
    }

    fn simulate_fused_plane(
        &self,
        segments: &[FusedSegment<'_>],
        scratch: &mut SimScratch,
    ) -> Result<(), EnvError> {
        let lanes = segments.iter().map(|s| s.seeds.len()).sum();
        self.timed(lanes, true, || {
            self.inner.simulate_fused_plane(segments, scratch)
        })
    }

    fn simulate_resolved(
        &self,
        resolved: &ResolvedParams,
        template_name: &str,
        seed: u64,
    ) -> Result<CoverageVector, EnvError> {
        self.timed(1, false, || {
            self.inner.simulate_resolved(resolved, template_name, seed)
        })
    }

    fn simulate(&self, template: &TestTemplate, seed: u64) -> Result<CoverageVector, EnvError> {
        self.timed(1, false, || self.inner.simulate(template, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascdg_duv::ifu::IfuEnv;
    use ascdg_duv::io_unit::IoEnv;
    use ascdg_duv::l3cache::L3Env;

    fn seeds(base: u64, n: usize) -> Vec<u64> {
        (0..n as u64)
            .map(|i| ascdg_stimgen::mix_seed(base, i))
            .collect()
    }

    fn plane_bits(scratch: &SimScratch, events: usize, lanes: usize) -> Vec<bool> {
        let plane = scratch.plane();
        assert_eq!((plane.events(), plane.lanes()), (events, lanes));
        let mut bits = Vec::new();
        for lane in 0..lanes {
            for e in 0..events as u32 {
                bits.push(plane.get(lane, ascdg_coverage::EventId(e)));
            }
        }
        bits
    }

    /// Every trait method of the wrapper returns what the bare
    /// environment returns, on a small batch of each unit, and every
    /// simulation call is counted with its lanes.
    fn forwards_identically(bare: &dyn VerifEnv) {
        let timed = TimedEnv::new(bare);
        assert_eq!(timed.unit_name(), bare.unit_name());
        assert!(std::ptr::eq(timed.registry(), bare.registry()));
        assert!(std::ptr::eq(timed.coverage_model(), bare.coverage_model()));
        assert!(std::ptr::eq(timed.stock_library(), bare.stock_library()));

        let events = bare.coverage_model().len();
        let (_, template) = bare.stock_library().iter().next().expect("stock template");
        let other = bare
            .stock_library()
            .iter()
            .nth(1)
            .map_or(template, |(_, t)| t);
        let resolved = bare.registry().resolve(template).expect("resolves");
        let resolved2 = bare.registry().resolve(other).expect("resolves");
        let batch = seeds(7, 5);
        let tail = seeds(9, 3);

        assert_eq!(
            timed.simulate_seeded(&resolved, batch[0]).unwrap(),
            bare.simulate_seeded(&resolved, batch[0]).unwrap()
        );
        let (mut s1, mut s2) = (SimScratch::new(), SimScratch::new());
        assert_eq!(
            timed.simulate_batch(&resolved, &batch, &mut s1).unwrap(),
            bare.simulate_batch(&resolved, &batch, &mut s2).unwrap()
        );
        timed
            .simulate_batch_plane(&resolved, &batch, &mut s1)
            .unwrap();
        bare.simulate_batch_plane(&resolved, &batch, &mut s2)
            .unwrap();
        assert_eq!(plane_bits(&s1, events, 5), plane_bits(&s2, events, 5));
        let segments = [
            FusedSegment {
                params: &resolved,
                seeds: &batch,
            },
            FusedSegment {
                params: &resolved2,
                seeds: &tail,
            },
        ];
        timed.simulate_fused_plane(&segments, &mut s1).unwrap();
        bare.simulate_fused_plane(&segments, &mut s2).unwrap();
        assert_eq!(plane_bits(&s1, events, 8), plane_bits(&s2, events, 8));
        assert_eq!(
            timed
                .simulate_resolved(&resolved, template.name(), 3)
                .unwrap(),
            bare.simulate_resolved(&resolved, template.name(), 3)
                .unwrap()
        );
        assert_eq!(
            timed.simulate(template, 4).unwrap(),
            bare.simulate(template, 4).unwrap()
        );

        let t = timed.totals();
        assert_eq!(t.calls, 6);
        assert_eq!(t.lanes, 1 + 5 + 5 + 8 + 1 + 1);
        assert_eq!(t.fused_calls, 1);
        assert!(t.busy_ns > 0);
    }

    #[test]
    fn forwards_every_method_for_io() {
        forwards_identically(&IoEnv::new());
    }

    #[test]
    fn forwards_every_method_for_l3() {
        forwards_identically(&L3Env::new());
    }

    #[test]
    fn forwards_every_method_for_ifu() {
        forwards_identically(&IfuEnv::new());
    }
}
