//! Template-Aware Coverage (TAC).
//!
//! TAC ([Gal et al., DAC 2017]) maintains first-order statistics on the
//! coverage each *test-template* achieves: for every (template, event) pair,
//! the probability that a test-instance generated from the template hits the
//! event. AS-CDG's coarse-grained search is a TAC query: *given the
//! (approximated) target events, find the `n` templates that best hit them*
//! — the parameters of those templates are the relevant ones for the
//! fine-grained search.
//!
//! This crate implements the query layer over the
//! [`CoverageRepository`], which already
//! accumulates exactly the statistics TAC needs.
//!
//! # Examples
//!
//! ```
//! use ascdg_coverage::{CoverageModel, CoverageRepository, CoverageVector, TemplateId};
//! use ascdg_tac::TacQuery;
//!
//! let model = CoverageModel::from_names("u", ["a", "b"]).unwrap();
//! let mut repo = CoverageRepository::new(model.clone());
//! let mut v = CoverageVector::empty(2);
//! v.set(model.id("a").unwrap());
//! repo.record(TemplateId(0), &v);
//! repo.record(TemplateId(1), &CoverageVector::empty(2));
//!
//! let ranking = TacQuery::new([(model.id("a").unwrap(), 1.0)]).run(&repo);
//! assert_eq!(ranking[0].template, TemplateId(0));
//! assert!(ranking[0].score > ranking[1].score);
//! ```
//!
//! [Gal et al., DAC 2017]: https://doi.org/10.1145/3061639.3062282

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};

use ascdg_coverage::{CoverageRepository, EventId, HitStats, TemplateId};
use ascdg_template::TemplateLibrary;

/// One row of a TAC ranking: a template and its weighted hit-rate score
/// against the queried events.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TacRanking {
    /// The ranked template.
    pub template: TemplateId,
    /// Weighted sum of per-event hit rates.
    pub score: f64,
    /// Per queried event: this template's accumulated stats.
    pub per_event: Vec<(EventId, HitStats)>,
    /// Number of simulations recorded for the template.
    pub sims: u64,
}

/// A TAC query: weighted target events plus ranking options.
///
/// The score of a template is `sum_e w_e * rate_e(template)` — the same
/// weighted form the approximated target uses, so the coarse and fine
/// searches optimize consistent objectives.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TacQuery {
    events: Vec<(EventId, f64)>,
    min_sims: u64,
}

impl TacQuery {
    /// Creates a query over weighted events.
    pub fn new(events: impl IntoIterator<Item = (EventId, f64)>) -> Self {
        TacQuery {
            events: events.into_iter().collect(),
            min_sims: 1,
        }
    }

    /// Ignores templates with fewer than `min_sims` recorded simulations
    /// (low-sample rates are noise).
    #[must_use]
    pub fn with_min_sims(mut self, min_sims: u64) -> Self {
        self.min_sims = min_sims.max(1);
        self
    }

    /// The queried events and weights.
    #[must_use]
    pub fn events(&self) -> &[(EventId, f64)] {
        &self.events
    }

    /// Ranks every template in the repository, best first.
    ///
    /// Templates below the simulation floor are omitted. Ties break toward
    /// the lower template id so results are deterministic.
    #[must_use]
    pub fn run(&self, repo: &CoverageRepository) -> Vec<TacRanking> {
        let mut rows: Vec<TacRanking> = repo
            .templates()
            .into_iter()
            .filter(|&t| repo.template_simulations(t) >= self.min_sims)
            .map(|t| {
                let per_event: Vec<(EventId, HitStats)> = self
                    .events
                    .iter()
                    .map(|&(e, _)| (e, repo.template_stats(t, e)))
                    .collect();
                let score = per_event
                    .iter()
                    .zip(&self.events)
                    .map(|((_, s), &(_, w))| w * s.rate())
                    .sum();
                TacRanking {
                    template: t,
                    score,
                    per_event,
                    sims: repo.template_simulations(t),
                }
            })
            .collect();
        rows.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .expect("scores are finite")
                .then(a.template.cmp(&b.template))
        });
        rows
    }

    /// Runs the query and returns the top `n` templates.
    #[must_use]
    pub fn top_n(&self, repo: &CoverageRepository, n: usize) -> Vec<TacRanking> {
        let mut rows = self.run(repo);
        rows.truncate(n);
        rows
    }
}

/// Extracts the union of parameter names overridden by the given ranked
/// templates, in ranking order — the "relevant parameters" the paper's
/// coarse-grained search outputs.
///
/// # Examples
///
/// ```
/// use ascdg_coverage::{HitStats, TemplateId};
/// use ascdg_tac::{relevant_params, TacRanking};
/// use ascdg_template::{TemplateLibrary, TestTemplate};
///
/// let lib: TemplateLibrary = [
///     TestTemplate::builder("a").range("P", 0, 4).unwrap().build(),
///     TestTemplate::builder("b").range("Q", 0, 4).unwrap().range("P", 0, 2).unwrap().build(),
/// ].into_iter().collect();
/// let rank = |t| TacRanking { template: TemplateId(t), score: 0.0, per_event: vec![], sims: 1 };
/// let params = relevant_params(&lib, &[rank(1), rank(0)]);
/// assert_eq!(params, vec!["Q".to_string(), "P".to_string()]);
/// ```
#[must_use]
pub fn relevant_params(library: &TemplateLibrary, ranking: &[TacRanking]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for row in ranking {
        if let Some(t) = library.get(row.template.index()) {
            for p in t.params() {
                if !out.iter().any(|q| q == p.name()) {
                    out.push(p.name().to_owned());
                }
            }
        }
    }
    out
}

/// Events that only `template` has ever hit — removing it from the
/// regression would lose them (the TAC paper's "unique coverage" query).
///
/// # Examples
///
/// ```
/// use ascdg_coverage::{CoverageModel, CoverageRepository, CoverageVector, TemplateId};
/// use ascdg_tac::unique_coverage;
///
/// let model = CoverageModel::from_names("u", ["a", "b"]).unwrap();
/// let mut repo = CoverageRepository::new(model.clone());
/// let mut only_a = CoverageVector::empty(2);
/// only_a.set(model.id("a").unwrap());
/// repo.record(TemplateId(0), &only_a);
/// let mut both = CoverageVector::empty(2);
/// both.set(model.id("a").unwrap());
/// both.set(model.id("b").unwrap());
/// repo.record(TemplateId(1), &both);
///
/// // Only template 1 reaches `b`.
/// assert_eq!(unique_coverage(&repo, TemplateId(1)), vec![model.id("b").unwrap()]);
/// assert!(unique_coverage(&repo, TemplateId(0)).is_empty());
/// ```
#[must_use]
pub fn unique_coverage(repo: &CoverageRepository, template: TemplateId) -> Vec<EventId> {
    let others: Vec<TemplateId> = repo
        .templates()
        .into_iter()
        .filter(|&t| t != template)
        .collect();
    repo.model()
        .event_ids()
        .filter(|&e| {
            repo.template_stats(template, e).hits > 0
                && others.iter().all(|&t| repo.template_stats(t, e).hits == 0)
        })
        .collect()
}

/// Greedily selects a minimal set of templates that together preserve every
/// event the full regression covers — the TAC paper's regression-policy
/// suggestion (Yang et al.'s "remove templates that do not contribute").
///
/// Classic greedy set cover: repeatedly pick the template covering the most
/// still-uncovered events; ties break toward the lower template id.
///
/// # Examples
///
/// ```
/// use ascdg_coverage::{CoverageModel, CoverageRepository, CoverageVector, TemplateId};
/// use ascdg_tac::minimal_regression;
///
/// let model = CoverageModel::from_names("u", ["a", "b", "c"]).unwrap();
/// let mut repo = CoverageRepository::new(model.clone());
/// let mut record = |t: u32, names: &[&str]| {
///     let mut v = CoverageVector::empty(3);
///     for n in names { v.set(model.id(n).unwrap()); }
///     repo.record(TemplateId(t), &v);
/// };
/// record(0, &["a"]);
/// record(1, &["a", "b", "c"]); // covers everything by itself
/// record(2, &["b"]);
///
/// assert_eq!(minimal_regression(&repo), vec![TemplateId(1)]);
/// ```
#[must_use]
pub fn minimal_regression(repo: &CoverageRepository) -> Vec<TemplateId> {
    let templates = repo.templates();
    let events: Vec<EventId> = repo
        .model()
        .event_ids()
        .filter(|&e| repo.global_stats(e).hits > 0)
        .collect();
    let mut uncovered: std::collections::BTreeSet<EventId> = events.into_iter().collect();
    let mut picked = Vec::new();
    while !uncovered.is_empty() {
        let Some((best, gain)) = templates
            .iter()
            .filter(|t| !picked.contains(*t))
            .map(|&t| {
                let gain = uncovered
                    .iter()
                    .filter(|&&e| repo.template_stats(t, e).hits > 0)
                    .count();
                (t, gain)
            })
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
        else {
            break;
        };
        if gain == 0 {
            break;
        }
        for e in uncovered
            .iter()
            .copied()
            .filter(|&e| repo.template_stats(best, e).hits > 0)
            .collect::<Vec<_>>()
        {
            uncovered.remove(&e);
        }
        picked.push(best);
    }
    picked
}

/// Events whose accumulated status is below well-hit — the coverage holes
/// a regression policy should focus on (the TAC paper's "events hardly
/// hit").
///
/// Returns `(event, stats)` pairs sorted by ascending hit count, so the
/// hardest holes come first.
#[must_use]
pub fn coverage_holes(
    repo: &CoverageRepository,
    policy: ascdg_coverage::StatusPolicy,
) -> Vec<(EventId, HitStats)> {
    use ascdg_coverage::EventStatus;
    let mut holes: Vec<(EventId, HitStats)> = repo
        .model()
        .event_ids()
        .map(|e| (e, repo.global_stats(e)))
        .filter(|&(_, s)| policy.classify(s) != EventStatus::WellHit)
        .collect();
    holes.sort_by_key(|&(e, s)| (s.hits, e));
    holes
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascdg_coverage::{CoverageModel, CoverageVector};
    use ascdg_template::TestTemplate;

    fn setup() -> (CoverageModel, CoverageRepository) {
        let model = CoverageModel::from_names("u", ["e0", "e1", "e2"]).unwrap();
        let repo = CoverageRepository::new(model.clone());
        (model, repo)
    }

    fn record(repo: &mut CoverageRepository, t: u32, hits: &[u32], sims: usize) {
        for _ in 0..sims {
            let mut v = CoverageVector::empty(3);
            for &h in hits {
                v.set(EventId(h));
            }
            repo.record(TemplateId(t), &v);
        }
    }

    #[test]
    fn ranking_orders_by_weighted_rate() {
        let (model, mut repo) = setup();
        // t0 hits e1 always; t1 hits e1 half the time; t2 never.
        record(&mut repo, 0, &[1], 10);
        record(&mut repo, 1, &[1], 5);
        record(&mut repo, 1, &[], 5);
        record(&mut repo, 2, &[0], 10);
        let q = TacQuery::new([(model.id("e1").unwrap(), 1.0)]);
        let rows = q.run(&repo);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].template, TemplateId(0));
        assert!((rows[0].score - 1.0).abs() < 1e-12);
        assert_eq!(rows[1].template, TemplateId(1));
        assert!((rows[1].score - 0.5).abs() < 1e-12);
        assert_eq!(rows[2].score, 0.0);
    }

    #[test]
    fn weights_change_the_winner() {
        let (model, mut repo) = setup();
        record(&mut repo, 0, &[0], 10); // e0 specialist
        record(&mut repo, 1, &[1], 10); // e1 specialist
        let q = TacQuery::new([
            (model.id("e0").unwrap(), 0.1),
            (model.id("e1").unwrap(), 1.0),
        ]);
        assert_eq!(q.run(&repo)[0].template, TemplateId(1));
        let q = TacQuery::new([
            (model.id("e0").unwrap(), 1.0),
            (model.id("e1").unwrap(), 0.1),
        ]);
        assert_eq!(q.run(&repo)[0].template, TemplateId(0));
    }

    #[test]
    fn min_sims_filters_noise() {
        let (model, mut repo) = setup();
        record(&mut repo, 0, &[1], 1); // one lucky sim
        record(&mut repo, 1, &[1], 50);
        record(&mut repo, 1, &[], 50);
        let q = TacQuery::new([(model.id("e1").unwrap(), 1.0)]).with_min_sims(10);
        let rows = q.run(&repo);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].template, TemplateId(1));
    }

    #[test]
    fn top_n_truncates() {
        let (model, mut repo) = setup();
        for t in 0..5 {
            record(&mut repo, t, &[0], 4);
        }
        let q = TacQuery::new([(model.id("e0").unwrap(), 1.0)]);
        assert_eq!(q.top_n(&repo, 2).len(), 2);
    }

    #[test]
    fn ties_break_deterministically() {
        let (model, mut repo) = setup();
        record(&mut repo, 3, &[2], 10);
        record(&mut repo, 1, &[2], 10);
        let q = TacQuery::new([(model.id("e2").unwrap(), 1.0)]);
        let rows = q.run(&repo);
        assert_eq!(rows[0].template, TemplateId(1));
        assert_eq!(rows[1].template, TemplateId(3));
    }

    #[test]
    fn relevant_params_unions_in_rank_order() {
        let lib: TemplateLibrary = [
            TestTemplate::builder("t0")
                .range("A", 0, 2)
                .unwrap()
                .build(),
            TestTemplate::builder("t1")
                .range("B", 0, 2)
                .unwrap()
                .range("A", 0, 2)
                .unwrap()
                .build(),
        ]
        .into_iter()
        .collect();
        let row = |t| TacRanking {
            template: TemplateId(t),
            score: 1.0,
            per_event: vec![],
            sims: 10,
        };
        assert_eq!(relevant_params(&lib, &[row(0), row(1)]), vec!["A", "B"]);
        // Unknown template ids are skipped gracefully.
        assert_eq!(relevant_params(&lib, &[row(7)]), Vec::<String>::new());
    }

    #[test]
    fn unique_coverage_finds_sole_providers() {
        let (model, mut repo) = setup();
        record(&mut repo, 0, &[0, 1], 5);
        record(&mut repo, 1, &[1, 2], 5);
        assert_eq!(
            unique_coverage(&repo, TemplateId(0)),
            vec![model.id("e0").unwrap()]
        );
        assert_eq!(
            unique_coverage(&repo, TemplateId(1)),
            vec![model.id("e2").unwrap()]
        );
    }

    #[test]
    fn minimal_regression_is_a_cover() {
        let (_, mut repo) = setup();
        record(&mut repo, 0, &[0], 3);
        record(&mut repo, 1, &[1], 3);
        record(&mut repo, 2, &[2], 3);
        record(&mut repo, 3, &[0, 1], 3);
        let picked = minimal_regression(&repo);
        // Every covered event must be covered by the picked set.
        for e in repo.model().event_ids() {
            if repo.global_stats(e).hits > 0 {
                assert!(
                    picked.iter().any(|&t| repo.template_stats(t, e).hits > 0),
                    "event {e} lost by the minimal regression"
                );
            }
        }
        // Greedy picks template 3 (covers two events) then template 2.
        assert_eq!(picked, vec![TemplateId(3), TemplateId(2)]);
    }

    #[test]
    fn minimal_regression_empty_repo() {
        let (_, repo) = setup();
        assert!(minimal_regression(&repo).is_empty());
    }

    #[test]
    fn coverage_holes_sorted_hardest_first() {
        use ascdg_coverage::StatusPolicy;
        let (model, mut repo) = setup();
        for _ in 0..3 {
            record(&mut repo, 0, &[0], 50);
        }
        record(&mut repo, 0, &[1], 2);
        let holes = coverage_holes(&repo, StatusPolicy::default());
        // e2 never hit (0), e1 hit twice, e0 hit 150 but rate 150/152 high
        // => e0 well-hit, holes are [e2, e1] in that order.
        let ids: Vec<EventId> = holes.iter().map(|&(e, _)| e).collect();
        assert_eq!(ids, vec![model.id("e2").unwrap(), model.id("e1").unwrap()]);
    }
}
