//! Golden simulation digests, pinned across commits.
//!
//! Every other identity suite compares two paths inside one build, so a
//! kernel rewrite that shifts all paths together would pass them all.
//! This test folds the per-event hit counts of `BatchRunner::run` over
//! every stock template of each built-in unit — 130 simulations each, two
//! full kernel blocks plus a tail — into one `u64` and compares it with a
//! digest committed alongside the test. A mismatch means simulation
//! output changed: if that is intended, say so and re-pin the digest.

use ascdg::core::BatchRunner;
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
