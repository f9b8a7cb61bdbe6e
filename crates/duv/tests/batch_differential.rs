//! Differential tests pinning the one lane kernel to the one reference.
//!
//! Every built-in unit implements exactly two simulate methods:
//! [`VerifEnv::simulate_seeded`], the one-instance reference, and
//! [`VerifEnv::simulate_fused_plane`], the lane kernel that simulates a
//! block of (params, seeds) segments into a reused scratch arena and
//! records straight into a transposed coverage bit-plane.
//! [`VerifEnv::simulate_batch_plane`] (a one-segment block) and
//! [`VerifEnv::simulate_batch`] (per-sim vectors extracted from the plane)
//! are trait defaults over that kernel. These tests are the contract that
//! the kernel is *purely* a throughput change: for every unit, every
//! chunking (1, 2, 63, 64, 65, 127, ragged tails), every mix of templates
//! within one block and every seed stream, each lane equals the
//! one-at-a-time reference, including when the scratch arena is warm from
//! unrelated prior blocks and when several worker threads batch the same
//! work concurrently (`ASCDG_TEST_THREADS` sizes the matrix). An
//! environment that implements only the reference pins the defaults the
//! same way.

use ascdg_coverage::{CoverageVector, PLANE_LANES};
use ascdg_duv::ifu::IfuEnv;
use ascdg_duv::io_unit::IoEnv;
use ascdg_duv::l3cache::L3Env;
use ascdg_duv::synthetic::SyntheticEnv;
use ascdg_duv::{EnvError, FusedSegment, SimScratch, VerifEnv};
use ascdg_template::{ParamRegistry, ResolvedParams, TemplateLibrary};
use proptest::prelude::*;

/// Worker-thread matrix width (`ASCDG_TEST_THREADS`, default 4).
fn test_threads() -> usize {
    std::env::var("ASCDG_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(4)
}

/// Runs `f` against one of the four built-in environments.
fn with_env<R>(which: usize, f: impl FnOnce(&dyn VerifEnv) -> R) -> R {
    match which % 4 {
        0 => f(&IfuEnv::new()),
        1 => f(&L3Env::new()),
        2 => f(&IoEnv::new()),
        _ => f(&SyntheticEnv::default()),
    }
}

/// SplitMix64-style per-instance seeds — same shape the batch runners
/// derive from a [`ascdg_stimgen::SeedStream`], without depending on it.
fn seed_vec(base: u64, n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| {
            let mut z = base ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
        .collect()
}

/// The sequential reference: one `simulate_seeded` per seed, in order.
fn sequential(
    env: &dyn VerifEnv,
    resolved: &ascdg_template::ResolvedParams,
    seeds: &[u64],
) -> Vec<CoverageVector> {
    seeds
        .iter()
        .map(|&s| env.simulate_seeded(resolved, s).expect("simulate_seeded"))
        .collect()
}

/// The batched run: `simulate_batch` over `chunk`-sized slices, reusing
/// one scratch arena across all chunks so later chunks hit warm buffers.
fn batched(
    env: &dyn VerifEnv,
    resolved: &ascdg_template::ResolvedParams,
    seeds: &[u64],
    chunk: usize,
) -> Vec<CoverageVector> {
    let mut scratch = SimScratch::new();
    let mut out = Vec::with_capacity(seeds.len());
    for block in seeds.chunks(chunk.max(1)) {
        out.extend(
            env.simulate_batch(resolved, block, &mut scratch)
                .expect("simulate_batch"),
        );
    }
    out
}

/// The bit-plane run: `simulate_batch_plane` over `chunk`-sized slices
/// split into kernel rounds of at most [`PLANE_LANES`] seeds — exactly
/// the shape the batch runner dispatches — reusing one scratch arena,
/// then extracting every lane back to row-major form for comparison.
fn planed(
    env: &dyn VerifEnv,
    resolved: &ascdg_template::ResolvedParams,
    seeds: &[u64],
    chunk: usize,
) -> Vec<CoverageVector> {
    let events = env.coverage_model().len();
    let mut scratch = SimScratch::new();
    let mut out = Vec::with_capacity(seeds.len());
    for block in seeds.chunks(chunk.max(1)) {
        for round in block.chunks(PLANE_LANES) {
            env.simulate_batch_plane(resolved, round, &mut scratch)
                .expect("simulate_batch_plane");
            for lane in 0..round.len() {
                let mut v = CoverageVector::empty(events);
                scratch.plane().extract_into(lane, &mut v);
                out.push(v);
            }
        }
    }
    out
}

/// One differential check: resolve a stock template, run all three paths
/// over the same seeds, demand equality — on this thread and on every
/// thread of the `ASCDG_TEST_THREADS` matrix with its own scratch arena.
fn check(which: usize, tmpl_idx: usize, base_seed: u64, sims: usize, chunk: usize) {
    with_env(which, |env| {
        let library = env.stock_library();
        let template = library
            .get(tmpl_idx % library.len())
            .expect("stock template");
        let resolved = env.registry().resolve(template).expect("resolve");
        let seeds = seed_vec(base_seed, sims);
        let reference = sequential(env, &resolved, &seeds);
        assert_eq!(
            batched(env, &resolved, &seeds, chunk),
            reference,
            "{} batch (chunk {chunk}) diverged from sequential",
            env.unit_name()
        );
        assert_eq!(
            planed(env, &resolved, &seeds, chunk),
            reference,
            "{} plane (chunk {chunk}) diverged from sequential",
            env.unit_name()
        );
        std::thread::scope(|scope| {
            for _ in 0..test_threads() {
                scope.spawn(|| {
                    assert_eq!(
                        batched(env, &resolved, &seeds, chunk),
                        reference,
                        "{} concurrent batch (chunk {chunk}) diverged",
                        env.unit_name()
                    );
                    assert_eq!(
                        planed(env, &resolved, &seeds, chunk),
                        reference,
                        "{} concurrent plane (chunk {chunk}) diverged",
                        env.unit_name()
                    );
                });
            }
        });
    });
}

/// The chunkings the batch runner actually produces around its 64-wide
/// kernel block: single, tiny, one-under, exact, one-over, two-minus-one
/// — each leaving a different ragged tail of 130 sims.
#[test]
fn kernel_block_edges_are_identical_for_every_unit() {
    for which in 0..4 {
        for chunk in [1usize, 2, 63, 64, 65, 127] {
            check(which, 0, 0xB47C_0000 + chunk as u64, 130, chunk);
        }
    }
}

/// A warm arena carried across *templates* must not leak state: interleave
/// two templates through one scratch and compare each against its own
/// fresh-scratch reference.
#[test]
fn warm_scratch_does_not_leak_across_templates() {
    for which in 0..4 {
        with_env(which, |env| {
            let library = env.stock_library();
            let a = library.get(0).expect("template 0");
            let b = library.get(1 % library.len()).expect("template 1");
            let ra = env.registry().resolve(a).expect("resolve a");
            let rb = env.registry().resolve(b).expect("resolve b");
            let seeds = seed_vec(0x5EED, 97);
            let ref_a = sequential(env, &ra, &seeds);
            let ref_b = sequential(env, &rb, &seeds);
            let events = env.coverage_model().len();
            let mut scratch = SimScratch::new();
            for round in 0..2 {
                for (resolved, reference) in [(&ra, &ref_a), (&rb, &ref_b)] {
                    let mut out = Vec::new();
                    for block in seeds.chunks(64) {
                        out.extend(
                            env.simulate_batch(resolved, block, &mut scratch)
                                .expect("batch"),
                        );
                    }
                    assert_eq!(
                        &out,
                        reference,
                        "{} round {round}: warm-scratch batch diverged",
                        env.unit_name()
                    );
                    // Same arena, other entry point: the plane kernel must
                    // be unaffected by the per-sim batch that just warmed
                    // the buffers (and vice versa on the next iteration).
                    let mut lanes = Vec::new();
                    for block in seeds.chunks(PLANE_LANES) {
                        env.simulate_batch_plane(resolved, block, &mut scratch)
                            .expect("plane");
                        for lane in 0..block.len() {
                            let mut v = CoverageVector::empty(events);
                            scratch.plane().extract_into(lane, &mut v);
                            lanes.push(v);
                        }
                    }
                    assert_eq!(
                        &lanes,
                        reference,
                        "{} round {round}: warm-scratch plane diverged",
                        env.unit_name()
                    );
                }
            }
        });
    }
}

/// Ragged segment splits of one plane block, each summing to at most
/// [`PLANE_LANES`] lanes.
const SPLITS: [&[usize]; 5] = [&[1, 63], &[32, 32], &[7, 20, 30], &[64], &[5, 1, 2]];

/// Multi-segment blocks mixing different stock templates: every lane of
/// a `simulate_fused_plane` call equals `simulate_seeded` on its own
/// segment's parameters and seed, for every unit and split, with the
/// scratch arena warm from the previous block.
#[test]
fn multi_segment_blocks_match_the_reference_for_every_unit() {
    for which in 0..4 {
        with_env(which, |env| {
            let library = env.stock_library();
            let resolved: Vec<_> = library
                .iter()
                .map(|(_, t)| env.registry().resolve(t).expect("resolve"))
                .collect();
            let events = env.coverage_model().len();
            let mut scratch = SimScratch::new();
            // Warm the arena with an unrelated full block first.
            env.simulate_batch_plane(&resolved[0], &seed_vec(0xA11, PLANE_LANES), &mut scratch)
                .expect("warm-up block");
            for (k, split) in SPLITS.iter().enumerate() {
                let seeds: Vec<Vec<u64>> = split
                    .iter()
                    .enumerate()
                    .map(|(i, &n)| seed_vec(0xF05E + (k * 8 + i) as u64, n))
                    .collect();
                let segments: Vec<FusedSegment<'_>> = seeds
                    .iter()
                    .enumerate()
                    .map(|(i, s)| FusedSegment {
                        params: &resolved[(k + i) % resolved.len()],
                        seeds: s,
                    })
                    .collect();
                env.simulate_fused_plane(&segments, &mut scratch)
                    .expect("fused block");
                let plane = scratch.plane();
                assert_eq!(plane.lanes(), split.iter().sum::<usize>());
                let mut lane = 0;
                for seg in &segments {
                    for &seed in seg.seeds {
                        let mut got = CoverageVector::empty(events);
                        plane.extract_into(lane, &mut got);
                        assert_eq!(
                            got,
                            env.simulate_seeded(seg.params, seed).expect("reference"),
                            "{} split {split:?} lane {lane} diverged",
                            env.unit_name()
                        );
                        lane += 1;
                    }
                }
            }
        });
    }
}

/// An environment that implements only the reference: every other
/// simulate method falls back to the trait defaults.
struct SeededOnly(IoEnv);

impl VerifEnv for SeededOnly {
    fn unit_name(&self) -> &str {
        "seeded_only"
    }

    fn registry(&self) -> &ParamRegistry {
        self.0.registry()
    }

    fn coverage_model(&self) -> &ascdg_coverage::CoverageModel {
        self.0.coverage_model()
    }

    fn stock_library(&self) -> &TemplateLibrary {
        self.0.stock_library()
    }

    fn simulate_seeded(
        &self,
        resolved: &ResolvedParams,
        sampler_seed: u64,
    ) -> Result<CoverageVector, EnvError> {
        self.0.simulate_seeded(resolved, sampler_seed)
    }
}

/// The three default simulate methods of a reference-only environment
/// match its reference, and match the built-in io kernel lane for lane.
#[test]
fn trait_defaults_match_the_reference() {
    let env = SeededOnly(IoEnv::new());
    let library = env.stock_library();
    let ra = env.registry().resolve(library.get(0).unwrap()).unwrap();
    let rb = env.registry().resolve(library.get(3).unwrap()).unwrap();
    let seeds = seed_vec(0xDEF, 130);
    let reference = sequential(&env, &ra, &seeds);
    assert_eq!(
        batched(&env, &ra, &seeds, 130),
        reference,
        "default simulate_batch"
    );
    assert_eq!(
        planed(&env, &ra, &seeds, 70),
        reference,
        "default simulate_batch_plane"
    );
    let (left, right) = seeds.split_at(20);
    let right = &right[..30];
    let segments = [
        FusedSegment {
            params: &ra,
            seeds: left,
        },
        FusedSegment {
            params: &rb,
            seeds: right,
        },
    ];
    let events = env.coverage_model().len();
    let (mut fallback, mut kernel) = (SimScratch::new(), SimScratch::new());
    env.simulate_fused_plane(&segments, &mut fallback)
        .expect("default fused block");
    env.0
        .simulate_fused_plane(&segments, &mut kernel)
        .expect("io kernel block");
    assert_eq!(fallback.plane(), kernel.plane(), "default vs kernel plane");
    for (lane, (params, seed)) in segments
        .iter()
        .flat_map(|s| s.seeds.iter().map(move |&seed| (s.params, seed)))
        .enumerate()
    {
        let mut got = CoverageVector::empty(events);
        fallback.plane().extract_into(lane, &mut got);
        assert_eq!(
            got,
            env.simulate_seeded(params, seed).unwrap(),
            "lane {lane}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary unit, template, seed stream, sim count and chunking:
    /// batched simulation is byte-identical to the sequential loop.
    #[test]
    fn batch_matches_sequential(
        which in 0usize..4,
        tmpl_idx in 0usize..8,
        base_seed in any::<u64>(),
        sims in 1usize..140,
        chunk in prop_oneof![Just(1usize), Just(2), Just(63), Just(64), Just(65), 1usize..130],
    ) {
        check(which, tmpl_idx, base_seed, sims, chunk);
    }
}
