//! The verification-environment abstraction the AS-CDG flow runs against.

use ascdg_coverage::{CoverageModel, CoverageVector, PLANE_LANES};
use ascdg_stimgen::instance_seed;
use ascdg_template::{ParamRegistry, ResolvedParams, TemplateLibrary, TestTemplate};

use crate::{EnvError, SimScratch};

/// One segment of a plane block: a run of instances of one resolved
/// template, packed lane-adjacent with the block's other segments into a
/// single [`VerifEnv::simulate_fused_plane`] invocation.
///
/// A single template's block is a one-segment block; several segments
/// let one kernel call mix templates (or ragged tails of them) in one
/// block.
#[derive(Debug, Clone, Copy)]
pub struct FusedSegment<'a> {
    /// The segment's resolved template parameters.
    pub params: &'a ResolvedParams,
    /// The segment's pre-derived sampler seeds, one lane per seed.
    pub seeds: &'a [u64],
}

/// The number of lanes a block of `segments` fills.
pub(crate) fn block_len(segments: &[FusedSegment<'_>]) -> usize {
    segments.iter().map(|s| s.seeds.len()).sum()
}

/// Every lane of a block in lane order: its segment's parameters and its
/// sampler seed.
pub(crate) fn block_lanes<'a>(
    segments: &'a [FusedSegment<'a>],
) -> impl Iterator<Item = (&'a ResolvedParams, u64)> + 'a {
    segments
        .iter()
        .flat_map(|s| s.seeds.iter().map(move |&seed| (s.params, seed)))
}

/// A black-box verification environment: a simulated unit plus everything
/// the verification team built around it.
///
/// This is the entire surface the AS-CDG flow sees — matching the paper's
/// claim that the flow "operates outside the existing design and
/// verification environment". An environment bundles:
///
/// * the **parameter registry**: every generator parameter with its default
///   bias;
/// * the **stock template library**: the regression templates accumulated
///   during the project, which the coarse-grained search mines;
/// * the **coverage model**: the unit's declared events;
/// * the **simulator**: template + seed → coverage vector.
///
/// The simulator has one reference and one kernel.
/// [`VerifEnv::simulate_seeded`] simulates one instance into a fresh
/// [`CoverageVector`]; it is the only required simulate method.
/// [`VerifEnv::simulate_fused_plane`] simulates a block of up to
/// [`PLANE_LANES`] instances into the scratch's coverage bit-plane; the
/// built-in units override it with their lane kernel, and its default
/// calls the reference once per lane. Every other simulate method is a
/// provided shape over those two, and each lane is byte-identical to the
/// reference.
///
/// Implementations must be `Send + Sync`; the batch environment simulates
/// from many worker threads.
pub trait VerifEnv: Send + Sync {
    /// The unit's name (used in reports).
    fn unit_name(&self) -> &str;

    /// The parameter registry with environment defaults.
    fn registry(&self) -> &ParamRegistry;

    /// The unit's coverage model.
    fn coverage_model(&self) -> &CoverageModel;

    /// The existing test-template library.
    fn stock_library(&self) -> &TemplateLibrary;

    /// Simulates one test-instance generated from pre-resolved parameters
    /// with a fully-derived generator seed — the reference every other
    /// simulate method must match lane for lane.
    ///
    /// `sampler_seed` is the final seed the environment hands its
    /// [`ParamSampler`](ascdg_stimgen::ParamSampler) — all derivation
    /// (base seed, template-name hash, instance index) has already
    /// happened in the caller: runners hash the template name once per
    /// point ([`SeedStream`](ascdg_stimgen::SeedStream)) and derive each
    /// instance's seed with pure integer mixing, so the per-simulation
    /// cost carries no string hashing.
    ///
    /// # Errors
    ///
    /// Returns [`EnvError::StimGen`] if generation draws an incompatible
    /// value (cannot happen for parameters validated by the registry).
    fn simulate_seeded(
        &self,
        resolved: &ResolvedParams,
        sampler_seed: u64,
    ) -> Result<CoverageVector, EnvError>;

    /// The lane kernel: simulates a block of lane-adjacent segments — each
    /// a seed run of its own resolved template — into `scratch.plane()`.
    /// Segment 0 owns lanes `0..seg0.seeds.len()`, segment 1 the next
    /// run, and so on.
    ///
    /// Every lane is **byte-identical** to [`VerifEnv::simulate_seeded`]
    /// on that lane's parameters and seed. The built-in units override
    /// this with kernels that reuse the scratch arena and record straight
    /// into the lane (`word(event) |= 1 << lane`). The default calls
    /// `simulate_seeded` per lane and records each vector into its lane,
    /// so an environment that implements only the reference still works.
    ///
    /// # Errors
    ///
    /// Any [`VerifEnv::simulate_seeded`] error; the plane contents are
    /// unspecified after an error.
    ///
    /// # Panics
    ///
    /// Panics when the segments' total seed count exceeds one plane
    /// block ([`PLANE_LANES`] = 64 lanes).
    fn simulate_fused_plane(
        &self,
        segments: &[FusedSegment<'_>],
        scratch: &mut SimScratch,
    ) -> Result<(), EnvError> {
        let plane = scratch.plane_mut();
        plane.begin(self.coverage_model().len(), block_len(segments));
        for (lane, (params, seed)) in block_lanes(segments).enumerate() {
            plane.record_vector(lane, &self.simulate_seeded(params, seed)?);
        }
        Ok(())
    }

    /// Simulates one template's block of up to [`PLANE_LANES`] instances
    /// into `scratch.plane()` (seed `i` owns lane `i`): a one-segment
    /// [`VerifEnv::simulate_fused_plane`] call.
    ///
    /// # Errors
    ///
    /// Any [`VerifEnv::simulate_fused_plane`] error.
    ///
    /// # Panics
    ///
    /// Panics when `seeds` exceeds one plane block
    /// ([`PLANE_LANES`] = 64 seeds).
    fn simulate_batch_plane(
        &self,
        resolved: &ResolvedParams,
        seeds: &[u64],
        scratch: &mut SimScratch,
    ) -> Result<(), EnvError> {
        let segment = FusedSegment {
            params: resolved,
            seeds,
        };
        self.simulate_fused_plane(&[segment], scratch)
    }

    /// Simulates any number of instances of one template into per-sim
    /// coverage vectors, one per seed, in order: the kernel runs per
    /// block of at most [`PLANE_LANES`] seeds, and each lane is extracted
    /// into a vector drawn from the scratch's recycling pool
    /// ([`SimScratch::take_cov`]).
    ///
    /// # Errors
    ///
    /// Any [`VerifEnv::simulate_batch_plane`] error; partial results are
    /// discarded.
    fn simulate_batch(
        &self,
        resolved: &ResolvedParams,
        seeds: &[u64],
        scratch: &mut SimScratch,
    ) -> Result<Vec<CoverageVector>, EnvError> {
        let events = self.coverage_model().len();
        let mut out = Vec::with_capacity(seeds.len());
        for block in seeds.chunks(PLANE_LANES) {
            self.simulate_batch_plane(resolved, block, scratch)?;
            for lane in 0..block.len() {
                let mut cov = scratch.take_cov(events);
                scratch.plane().extract_into(lane, &mut cov);
                out.push(cov);
            }
        }
        Ok(out)
    }

    /// Simulates one test-instance generated from pre-resolved parameters,
    /// deriving the generator seed from the template name.
    ///
    /// `template_name` and `seed` identify the instance: the generator seed
    /// is derived from them (`instance_seed(seed, template_name, 0)`), so a
    /// (name, seed) pair is fully reproducible. Hot loops should hash the
    /// name once and call [`VerifEnv::simulate_seeded`] instead — the
    /// stream is byte-identical.
    ///
    /// # Errors
    ///
    /// Any [`VerifEnv::simulate_seeded`] error.
    fn simulate_resolved(
        &self,
        resolved: &ResolvedParams,
        template_name: &str,
        seed: u64,
    ) -> Result<CoverageVector, EnvError> {
        self.simulate_seeded(resolved, instance_seed(seed, template_name, 0))
    }

    /// Validates, resolves and simulates a template in one call.
    ///
    /// Batch runners should resolve once via [`ParamRegistry::resolve`] and
    /// call [`VerifEnv::simulate_seeded`] per instance instead.
    ///
    /// # Errors
    ///
    /// Returns [`EnvError::Template`] when the template does not validate
    /// against the registry, or any [`VerifEnv::simulate_seeded`] error.
    fn simulate(&self, template: &TestTemplate, seed: u64) -> Result<CoverageVector, EnvError> {
        let resolved = self.registry().resolve(template)?;
        self.simulate_resolved(&resolved, template.name(), seed)
    }
}

impl<T: VerifEnv + ?Sized> VerifEnv for &T {
    fn unit_name(&self) -> &str {
        (**self).unit_name()
    }

    fn registry(&self) -> &ParamRegistry {
        (**self).registry()
    }

    fn coverage_model(&self) -> &CoverageModel {
        (**self).coverage_model()
    }

    fn stock_library(&self) -> &TemplateLibrary {
        (**self).stock_library()
    }

    fn simulate_seeded(
        &self,
        resolved: &ResolvedParams,
        sampler_seed: u64,
    ) -> Result<CoverageVector, EnvError> {
        (**self).simulate_seeded(resolved, sampler_seed)
    }

    fn simulate_batch(
        &self,
        resolved: &ResolvedParams,
        seeds: &[u64],
        scratch: &mut SimScratch,
    ) -> Result<Vec<CoverageVector>, EnvError> {
        (**self).simulate_batch(resolved, seeds, scratch)
    }

    fn simulate_batch_plane(
        &self,
        resolved: &ResolvedParams,
        seeds: &[u64],
        scratch: &mut SimScratch,
    ) -> Result<(), EnvError> {
        (**self).simulate_batch_plane(resolved, seeds, scratch)
    }

    fn simulate_fused_plane(
        &self,
        segments: &[FusedSegment<'_>],
        scratch: &mut SimScratch,
    ) -> Result<(), EnvError> {
        (**self).simulate_fused_plane(segments, scratch)
    }

    fn simulate_resolved(
        &self,
        resolved: &ResolvedParams,
        template_name: &str,
        seed: u64,
    ) -> Result<CoverageVector, EnvError> {
        (**self).simulate_resolved(resolved, template_name, seed)
    }
}

impl<T: VerifEnv + ?Sized> VerifEnv for std::sync::Arc<T> {
    fn unit_name(&self) -> &str {
        (**self).unit_name()
    }

    fn registry(&self) -> &ParamRegistry {
        (**self).registry()
    }

    fn coverage_model(&self) -> &CoverageModel {
        (**self).coverage_model()
    }

    fn stock_library(&self) -> &TemplateLibrary {
        (**self).stock_library()
    }

    fn simulate_seeded(
        &self,
        resolved: &ResolvedParams,
        sampler_seed: u64,
    ) -> Result<CoverageVector, EnvError> {
        (**self).simulate_seeded(resolved, sampler_seed)
    }

    fn simulate_batch(
        &self,
        resolved: &ResolvedParams,
        seeds: &[u64],
        scratch: &mut SimScratch,
    ) -> Result<Vec<CoverageVector>, EnvError> {
        (**self).simulate_batch(resolved, seeds, scratch)
    }

    fn simulate_batch_plane(
        &self,
        resolved: &ResolvedParams,
        seeds: &[u64],
        scratch: &mut SimScratch,
    ) -> Result<(), EnvError> {
        (**self).simulate_batch_plane(resolved, seeds, scratch)
    }

    fn simulate_fused_plane(
        &self,
        segments: &[FusedSegment<'_>],
        scratch: &mut SimScratch,
    ) -> Result<(), EnvError> {
        (**self).simulate_fused_plane(segments, scratch)
    }

    fn simulate_resolved(
        &self,
        resolved: &ResolvedParams,
        template_name: &str,
        seed: u64,
    ) -> Result<CoverageVector, EnvError> {
        (**self).simulate_resolved(resolved, template_name, seed)
    }
}
