//! Golden simulation digests, pinned across commits.
//!
//! Every other identity suite compares two paths inside one build, so a
//! kernel rewrite that shifts all paths together would pass them all.
//! This test folds the per-event hit counts of `BatchRunner::run` over
//! every stock template of each built-in unit — 130 simulations each, two
//! full kernel blocks plus a tail — into one `u64` and compares it with a
//! digest committed alongside the test. A mismatch means simulation
//! output changed: if that is intended, say so and re-pin the digest.
//!
//! The regression digests pin the "Before CDG" repository the same way:
//! `CdgFlow::run_regression(..).snapshot()` per unit, at a fixed seed and
//! budget, at the worker count `ASCDG_TEST_THREADS` names (default 2).
//! They hold at every worker count and dispatch chunk size.

use ascdg::core::{BatchRunner, CdgFlow, FlowConfig};
use ascdg::coverage::RepoSnapshot;
use ascdg::duv::ifu::IfuEnv;
use ascdg::duv::io_unit::IoEnv;
use ascdg::duv::l3cache::L3Env;
use ascdg::duv::synthetic::SyntheticEnv;
use ascdg::duv::VerifEnv;

/// Simulations per stock template: two 64-lane blocks plus a 2-lane tail.
const SIMS: u64 = 130;
/// Base seed of every run.
const SEED: u64 = 0x5EED_0C0D;

/// FNV-1a-style fold of every template's `sims` and per-event hits, in
/// library order.
fn digest<E: VerifEnv>(env: &E) -> u64 {
    let runner = BatchRunner::new(2);
    let mut d: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |v: u64| d = (d ^ v).wrapping_mul(0x0100_0000_01b3);
    for (_, template) in env.stock_library().iter() {
        let stats = runner
            .run(env, template, SIMS, SEED)
            .expect("stock template runs");
        fold(stats.sims);
        for &h in &stats.hits {
            fold(h);
        }
    }
    d
}

/// Worker count of the regression runs; the CI matrix re-runs this file
/// at 1, 2 and 8 through this variable.
fn test_threads() -> usize {
    std::env::var("ASCDG_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2)
}

/// The same fold over a regression snapshot: global row, then every
/// template row in id order.
fn fold_snapshot(snap: &RepoSnapshot) -> u64 {
    let mut d: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |v: u64| d = (d ^ v).wrapping_mul(0x0100_0000_01b3);
    fold(snap.global_sims);
    for &h in &snap.global_hits {
        fold(h);
    }
    for (template, sims, hits) in &snap.per_template {
        fold(u64::from(template.0));
        fold(*sims);
        for &h in hits {
            fold(h);
        }
    }
    d
}

/// Digest of a unit's whole-library regression: `SIMS` per template.
fn regression_digest<E: VerifEnv>(env: E) -> u64 {
    let config = FlowConfig {
        regression_sims_per_template: SIMS,
        threads: test_threads(),
        ..FlowConfig::quick()
    };
    let repo = CdgFlow::new(env, config)
        .run_regression(SEED)
        .expect("stock library regresses");
    fold_snapshot(&repo.snapshot())
}

#[test]
fn io_regression_digest_is_pinned() {
    assert_eq!(
        regression_digest(IoEnv::new()),
        10_103_550_385_180_571_165,
        "io regression digest"
    );
}

#[test]
fn l3_regression_digest_is_pinned() {
    assert_eq!(
        regression_digest(L3Env::new()),
        498_667_201_788_027_584,
        "l3 regression digest"
    );
}

#[test]
fn ifu_regression_digest_is_pinned() {
    assert_eq!(
        regression_digest(IfuEnv::new()),
        252_470_743_455_070_397,
        "ifu regression digest"
    );
}

#[test]
fn synthetic_regression_digest_is_pinned() {
    assert_eq!(
        regression_digest(SyntheticEnv::default()),
        12_526_869_012_972_687_344,
        "synthetic regression digest"
    );
}

#[test]
fn io_digest_is_pinned() {
    assert_eq!(
        digest(&IoEnv::new()),
        16_415_011_176_698_432_001,
        "io digest"
    );
}

#[test]
fn l3_digest_is_pinned() {
    assert_eq!(
        digest(&L3Env::new()),
        4_337_617_578_630_326_241,
        "l3 digest"
    );
}

#[test]
fn ifu_digest_is_pinned() {
    assert_eq!(
        digest(&IfuEnv::new()),
        3_766_568_734_949_770_653,
        "ifu digest"
    );
}

#[test]
fn synthetic_digest_is_pinned() {
    assert_eq!(
        digest(&SyntheticEnv::default()),
        6_869_151_861_342_711_489,
        "synthetic digest"
    );
}
