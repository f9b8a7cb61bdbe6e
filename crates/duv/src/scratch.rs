//! Per-worker scratch state for batched simulation.

use ascdg_coverage::{CoveragePlane, CoverageVector};
use ascdg_stimgen::{FetchOp, IoCommand, MemRequest};

use crate::kernel::DelayLine;

/// Arena-reused buffers for a worker's batched simulations.
///
/// One `SimScratch` belongs to one worker thread and is threaded through
/// every call of the lane kernel,
/// [`VerifEnv::simulate_fused_plane`](crate::VerifEnv::simulate_fused_plane).
/// Each unit's kernel reuses the buffers it needs — stimulus program
/// storage, cycle-model state (cache sets, delay lines) — and records the
/// block into the scratch's coverage bit-plane ([`SimScratch::plane`]).
/// A pool of recycled [`CoverageVector`]s serves
/// [`VerifEnv::simulate_batch`](crate::VerifEnv::simulate_batch), which
/// extracts plane lanes into per-sim vectors. The scratch never
/// influences results: every buffer is cleared (not trusted) before a
/// simulation uses it, so a fresh scratch and a heavily reused one
/// produce byte-identical coverage.
///
/// # Examples
///
/// ```
/// use ascdg_duv::{io_unit::IoEnv, SimScratch, VerifEnv};
///
/// let env = IoEnv::new();
/// let t = env.stock_library().get(0).unwrap().clone();
/// let resolved = env.registry().resolve(&t).unwrap();
/// let mut scratch = SimScratch::new();
/// let covs = env.simulate_batch(&resolved, &[1, 2, 3], &mut scratch).unwrap();
/// assert_eq!(covs.len(), 3);
/// ```
#[derive(Debug, Default)]
pub struct SimScratch {
    /// IFU fetch programs of the whole block, laid out back to back.
    pub(crate) fetch_ops: Vec<FetchOp>,
    /// Prefix bounds into `fetch_ops`: program `i` is `bounds[i]..bounds[i+1]`.
    pub(crate) fetch_bounds: Vec<usize>,
    /// L3 stimulus program of the current simulation.
    pub(crate) mem_ops: Vec<MemRequest>,
    /// I/O-unit stimulus program of the current simulation.
    pub(crate) io_cmds: Vec<IoCommand>,
    /// L3 per-set LRU stacks (resized to `SETS` on first use).
    pub(crate) l3_sets: Vec<Vec<u64>>,
    /// L3 in-flight fill responses.
    pub(crate) l3_inflight: DelayLine<u64>,
    /// I/O-unit outstanding completion responses.
    pub(crate) io_responses: DelayLine<()>,
    /// Synthetic-unit knob coordinates.
    pub(crate) knob_xs: Vec<f64>,
    /// The recycled coverage bit-plane the lane kernel records the current
    /// block into.
    pub(crate) plane: CoveragePlane,
    /// Recycled coverage vectors, ready for [`SimScratch::take_cov`].
    free: Vec<CoverageVector>,
    reused: u64,
    allocated: u64,
}

impl SimScratch {
    /// Creates an empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        SimScratch::default()
    }

    /// Takes a zeroed coverage vector of `len` events, recycling one from
    /// the pool when the width matches (vectors recycled under a different
    /// coverage model are dropped).
    #[must_use]
    pub fn take_cov(&mut self, len: usize) -> CoverageVector {
        while let Some(mut cov) = self.free.pop() {
            if cov.len() == len {
                cov.reset();
                self.reused += 1;
                return cov;
            }
        }
        self.allocated += 1;
        CoverageVector::empty(len)
    }

    /// Returns a finished coverage vector to the pool for reuse.
    pub fn recycle(&mut self, cov: CoverageVector) {
        self.free.push(cov);
    }

    /// Coverage vectors served from the pool since construction.
    #[must_use]
    pub fn cov_reused(&self) -> u64 {
        self.reused
    }

    /// Coverage vectors freshly allocated since construction.
    #[must_use]
    pub fn cov_allocated(&self) -> u64 {
        self.allocated
    }

    /// The bit-plane the last lane-kernel call
    /// ([`VerifEnv::simulate_fused_plane`](crate::VerifEnv::simulate_fused_plane))
    /// recorded into — callers fold or extract lanes from it.
    #[must_use]
    pub fn plane(&self) -> &CoveragePlane {
        &self.plane
    }

    /// Mutable access to the recycled bit-plane (kernels `begin` a block
    /// on it before recording).
    #[must_use]
    pub fn plane_mut(&mut self) -> &mut CoveragePlane {
        &mut self.plane
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascdg_coverage::EventId;

    #[test]
    fn take_recycle_take_reuses() {
        let mut s = SimScratch::new();
        let mut cov = s.take_cov(10);
        cov.set(EventId(3));
        s.recycle(cov);
        let cov = s.take_cov(10);
        assert_eq!(cov, CoverageVector::empty(10), "recycled vector not reset");
        assert_eq!((s.cov_allocated(), s.cov_reused()), (1, 1));
    }

    #[test]
    fn width_mismatch_allocates_fresh() {
        let mut s = SimScratch::new();
        let cov = s.take_cov(10);
        s.recycle(cov);
        let cov = s.take_cov(20);
        assert_eq!(cov.len(), 20);
        assert_eq!((s.cov_allocated(), s.cov_reused()), (2, 0));
    }
}
