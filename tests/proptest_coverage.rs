//! Property-based tests for the coverage substrate: the bitset vector
//! against a reference set model, cross-product encode/decode, repository
//! accumulation and status monotonicity.

use proptest::prelude::*;
use std::collections::BTreeSet;

use ascdg::coverage::{
    CoverageModel, CoverageRepository, CoverageVector, CrossProduct, EventId, EventStatus, Feature,
    HitStats, StatusPolicy, TemplateId,
};

#[derive(Debug, Clone)]
enum VecOp {
    Set(usize),
    Clear(usize),
}

fn vec_ops(len: usize) -> impl Strategy<Value = Vec<VecOp>> {
    proptest::collection::vec(
        prop_oneof![
            (0..len).prop_map(VecOp::Set),
            (0..len).prop_map(VecOp::Clear),
        ],
        0..60,
    )
}

proptest! {
    /// The bitset behaves exactly like a set of indices.
    #[test]
    fn vector_matches_reference_set(len in 1usize..300, ops in vec_ops(300)) {
        let mut v = CoverageVector::empty(len);
        let mut model = BTreeSet::new();
        for op in ops {
            match op {
                VecOp::Set(i) if i < len => {
                    v.set(EventId(i as u32));
                    model.insert(i);
                }
                VecOp::Clear(i) if i < len => {
                    v.clear(EventId(i as u32));
                    model.remove(&i);
                }
                _ => {}
            }
        }
        prop_assert_eq!(v.count_hits(), model.len());
        let hits: Vec<usize> = v.iter_hits().map(|e| e.index()).collect();
        let expected: Vec<usize> = model.iter().copied().collect();
        prop_assert_eq!(hits, expected);
    }

    /// Union is set union.
    #[test]
    fn union_is_set_union(
        len in 1usize..200,
        a in proptest::collection::btree_set(0usize..200, 0..40),
        b in proptest::collection::btree_set(0usize..200, 0..40),
    ) {
        let fill = |ids: &BTreeSet<usize>| {
            let mut v = CoverageVector::empty(len);
            for &i in ids.iter().filter(|&&i| i < len) {
                v.set(EventId(i as u32));
            }
            v
        };
        let mut va = fill(&a);
        let vb = fill(&b);
        va.union_with(&vb);
        let expected: BTreeSet<usize> =
            a.union(&b).copied().filter(|&i| i < len).collect();
        prop_assert_eq!(va.count_hits(), expected.len());
    }

    /// Cross-product event ids decode back to their coordinates, ids are
    /// dense and names are unique.
    #[test]
    fn cross_product_roundtrip(dims in proptest::collection::vec(1usize..5, 1..4)) {
        let cp = CrossProduct::new(
            dims.iter()
                .enumerate()
                .map(|(i, &c)| Feature::numeric(format!("f{i}"), c)),
        )
        .expect("non-empty features");
        let expected_len: usize = dims.iter().product();
        prop_assert_eq!(cp.len(), expected_len);
        let mut names = BTreeSet::new();
        for i in 0..cp.len() {
            let e = EventId(i as u32);
            let coords = cp.coords(e);
            prop_assert_eq!(cp.event_id(&coords).expect("valid coords"), e);
            prop_assert!(names.insert(cp.event_name(e)), "duplicate name");
        }
    }

    /// Hamming neighbor counts follow the combinatorial formula for
    /// distance 1: sum over features of (cardinality - 1).
    #[test]
    fn hamming_neighbor_count(dims in proptest::collection::vec(1usize..5, 1..4)) {
        let cp = CrossProduct::new(
            dims.iter()
                .enumerate()
                .map(|(i, &c)| Feature::numeric(format!("f{i}"), c)),
        )
        .expect("non-empty");
        let expected: usize = dims.iter().map(|&c| c - 1).sum();
        prop_assert_eq!(cp.hamming_neighbors(EventId(0), 1).len(), expected);
    }

    /// The repository's global row is always the sum of the per-template
    /// rows, regardless of recording order.
    #[test]
    fn repository_global_is_sum_of_templates(
        events in 1usize..20,
        records in proptest::collection::vec(
            (0u32..5, proptest::collection::btree_set(0usize..20, 0..10)),
            0..50,
        ),
    ) {
        let model = CoverageModel::from_names(
            "u",
            (0..events).map(|i| format!("e{i}")),
        ).expect("unique");
        let mut repo = CoverageRepository::new(model.clone());
        for (t, hits) in &records {
            let mut v = CoverageVector::empty(events);
            for &h in hits.iter().filter(|&&h| h < events) {
                v.set(EventId(h as u32));
            }
            repo.record(TemplateId(*t), &v);
        }
        prop_assert_eq!(repo.total_simulations(), records.len() as u64);
        for e in model.event_ids() {
            let per_template_sum: u64 = repo
                .templates()
                .into_iter()
                .map(|t| repo.template_stats(t, e).hits)
                .sum();
            prop_assert_eq!(repo.global_stats(e).hits, per_template_sum);
        }
        // Snapshot agrees with the live counters.
        let snap = repo.snapshot();
        prop_assert_eq!(snap.global_sims, repo.total_simulations());
        for e in model.event_ids() {
            prop_assert_eq!(snap.global_hits[e.index()], repo.global_stats(e).hits);
        }
    }

    /// More hits at equal sims never lowers an event's status.
    #[test]
    fn status_is_monotone_in_hits(sims in 1u64..100_000, h1 in 0u64..100_000, h2 in 0u64..100_000) {
        let policy = StatusPolicy::default();
        let (lo, hi) = (h1.min(h2).min(sims), h1.max(h2).min(sims));
        let s_lo = policy.classify(HitStats { hits: lo, sims });
        let s_hi = policy.classify(HitStats { hits: hi, sims });
        prop_assert!(s_lo <= s_hi, "{lo}/{sims} -> {s_lo}, {hi}/{sims} -> {s_hi}");
    }

    /// Status counts always partition the event set.
    #[test]
    fn status_counts_partition(stats in proptest::collection::vec((0u64..1000, 0u64..1000), 0..50)) {
        let policy = StatusPolicy::default();
        let counts = policy.count(
            stats.iter().map(|&(h, extra)| HitStats { hits: h, sims: h + extra }),
        );
        prop_assert_eq!(counts.total(), stats.len());
    }

    /// Never-hit is exactly `hits == 0`.
    #[test]
    fn never_hit_iff_zero(hits in 0u64..1000, sims in 1u64..1000) {
        let policy = StatusPolicy::default();
        let status = policy.classify(HitStats { hits: hits.min(sims), sims });
        prop_assert_eq!(status == EventStatus::NeverHit, hits.min(sims) == 0);
    }
}
