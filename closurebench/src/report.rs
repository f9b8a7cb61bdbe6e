//! Turns a [`Run`] into metrics, checks its outcomes, and prints the
//! report.

use std::collections::BTreeMap;

use serde::{Content, Serialize};

use crate::bench::{Run, LEDGER_TOLERANCE_PCT};
use crate::machine::Machine;
use crate::stats::{self, Tail};

/// End-to-end metrics (`--trace 0`), as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sims_per_s", "1/s"),
    ("sims_total", "count"),
    ("peak_rss_mb", "MB"),
    ("ok_pct", "%"),
    ("request_latency_p50_s", "s"),
    ("request_latency_tail_s", "s"),
    ("requests_per_s", "1/s"),
];

/// Per-layer metrics (`--trace 1`), as `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("stage.regression.s", "s"),
    ("stage.regression.sims", "count"),
    ("stage.coarse-search.s", "s"),
    ("stage.coarse-search.sims", "count"),
    ("stage.skeletonize.s", "s"),
    ("stage.skeletonize.sims", "count"),
    ("stage.random-sample.s", "s"),
    ("stage.random-sample.sims", "count"),
    ("stage.optimize.s", "s"),
    ("stage.optimize.sims", "count"),
    ("stage.refine.s", "s"),
    ("stage.refine.sims", "count"),
    ("stage.harvest.s", "s"),
    ("stage.harvest.sims", "count"),
    ("ledger.gap_pct", "%"),
    ("duv.io.ns_per_sim", "ns"),
    ("duv.l3.ns_per_sim", "ns"),
    ("duv.ifu.ns_per_sim", "ns"),
    ("duv.io.busy_s", "s"),
    ("duv.l3.busy_s", "s"),
    ("duv.ifu.busy_s", "s"),
    ("duv.lanes_per_call", "count"),
    ("duv.fused_calls", "count"),
    ("duv.busy_pct", "%"),
    ("pool.jobs_dispatched", "count"),
    ("pool.sims_per_job", "count"),
    ("pool.nonkernel_pct", "%"),
    ("batch.fused_chunks", "count"),
    ("batch.fusion_occupancy_pct", "%"),
    ("coverage.repo_merges", "count"),
    ("coverage.sims_per_merge", "count"),
    ("objective.evals", "count"),
    ("objective.sims_per_eval", "count"),
    ("objective.coalesced", "count"),
    ("opt.iterations", "count"),
    ("campaign.groups", "count"),
    ("campaign.overlap", "ratio"),
    ("checkpoint.writes", "count"),
    ("checkpoint.write_s", "s"),
    ("checkpoint.bytes", "B"),
    ("serve.admit_s", "s"),
    ("serve.run_s", "s"),
    ("serve.first_progress_s", "s"),
    ("serve.regression_sims_share_pct", "%"),
    ("serve.state_bytes", "B"),
    ("trace.overhead_pct", "%"),
    ("closure.targets_hit", "count"),
    ("closure.deep_first_hit_sims", "count"),
];

/// What the run is asked to measure.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measuring time budget.
    pub seconds: u64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// A checked, summarized run.
pub struct Report {
    /// Every outcome matched its reference and every check held.
    pub correct: bool,
    /// Requests (flows, campaigns, served requests) attempted, plus the
    /// run's own checks.
    pub attempted: u64,
    /// How many of them failed or mismatched.
    pub failed: u64,
    /// End-to-end readings, [`END_TO_END`] order.
    pub end_to_end: Vec<(&'static str, &'static str, f64)>,
    /// Per-layer readings, [`PER_LAYER`] order (traced runs only).
    pub per_layer: Vec<(&'static str, &'static str, f64)>,
    /// The latency tail: which percentile, and of how many requests per
    /// pass.
    pub tail: Tail,
    /// Why the run is not correct.
    pub failures: Vec<String>,
}

/// Checks every pass's outcomes against the first untraced pass and
/// reduces the run to its metrics.
pub fn summarize(run: &Run, trace: bool) -> Report {
    let mut failures = run.failures.clone();
    let mut attempted = run.failures.len() as u64;
    let reference = &run.plain[0].outcomes;
    for (i, pass) in run.plain.iter().chain(&run.traced).enumerate() {
        for (j, outcome) in pass.outcomes.iter().enumerate() {
            attempted += 1;
            match (outcome, reference.get(j)) {
                (Err(e), _) => failures.push(format!("pass {i} request {j}: {e}")),
                (Ok(a), Some(Ok(b))) if a == b => {}
                _ => failures.push(format!(
                    "pass {i} request {j}: outcome differs from the first pass"
                )),
            }
        }
    }
    for (i, pass) in run.traced.iter().enumerate() {
        attempted += 1;
        let gap = pass.layers.get("ledger.gap_pct").copied().unwrap_or(100.0);
        if gap.abs() > LEDGER_TOLERANCE_PCT {
            failures.push(format!(
                "traced pass {i}: ledger rows leave {gap:.2}% of wall time unaccounted (tolerance {LEDGER_TOLERANCE_PCT}%)"
            ));
        }
    }
    let failed = failures.len() as u64;

    let walls: Vec<f64> = run.plain.iter().map(|p| p.wall_s).collect();
    let per_pass = |f: &dyn Fn(&crate::bench::Pass) -> f64| {
        stats::median(&run.plain.iter().map(f).collect::<Vec<_>>())
    };
    // Latency statistics are taken per pass, then their median over
    // passes: every pass serves the same requests, so the tail
    // percentile stays the same however many passes fit in the budget.
    let tail = Tail {
        value: per_pass(&|p| stats::tail(&p.latencies).value),
        ..stats::tail(&run.plain[0].latencies)
    };
    let values: BTreeMap<&str, f64> = [
        ("setup_s", stats::median(&run.setup_s)),
        ("wall_s", stats::median(&walls)),
        ("sims_per_s", per_pass(&|p| p.sims as f64 / p.wall_s)),
        ("sims_total", per_pass(&|p| p.sims as f64)),
        ("peak_rss_mb", run.peak_rss_mb),
        (
            "ok_pct",
            100.0 * (attempted - failed) as f64 / attempted.max(1) as f64,
        ),
        (
            "request_latency_p50_s",
            per_pass(&|p| stats::median(&p.latencies)),
        ),
        ("request_latency_tail_s", tail.value),
        (
            "requests_per_s",
            per_pass(&|p| p.latencies.len() as f64 / p.wall_s),
        ),
    ]
    .into_iter()
    .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|&(name, unit)| (name, unit, values[name]))
        .collect();

    let per_layer = if trace {
        let first = &run.plain[0];
        let mut layers: BTreeMap<String, f64> = BTreeMap::new();
        for (name, _) in PER_LAYER {
            let xs: Vec<f64> = run
                .traced
                .iter()
                .map(|p| p.layers.get(name).copied().unwrap_or(0.0))
                .collect();
            layers.insert(name.to_owned(), stats::median(&xs));
        }
        let traced_walls: Vec<f64> = run.traced.iter().map(|p| p.wall_s).collect();
        layers.insert(
            "trace.overhead_pct".to_owned(),
            100.0 * (stats::median(&traced_walls) / stats::median(&walls) - 1.0),
        );
        layers.insert("closure.targets_hit".to_owned(), first.targets_hit as f64);
        layers.insert(
            "closure.deep_first_hit_sims".to_owned(),
            first.deep_first_hit_sims as f64,
        );
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, layers[name]))
            .collect()
    } else {
        Vec::new()
    };

    Report {
        correct: failed == 0,
        attempted,
        failed,
        end_to_end,
        per_layer,
        tail,
        failures,
    }
}

/// A [`Content`] tree that serializes as itself.
struct Json(Content);

impl Serialize for Json {
    fn serialize(&self) -> Content {
        self.0.clone()
    }
}

fn map(entries: Vec<(&str, Content)>) -> Content {
    Content::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

fn metrics(readings: &[(&str, &str, f64)]) -> Content {
    Content::Map(
        readings
            .iter()
            .map(|&(name, unit, value)| {
                let m = map(vec![
                    ("value", Content::F64(value)),
                    ("unit", Content::Str(unit.to_owned())),
                ]);
                (name.to_owned(), m)
            })
            .collect(),
    )
}

fn to_json(c: Content) -> String {
    serde_json::to_string(&Json(c)).expect("report values are finite")
}

/// The full report: the run's identity, machine fingerprint, every
/// metric (end-to-end and, when traced, per-layer) and the closure
/// quality counts. One JSON line.
pub fn full(args: &Args, machine: &Machine, run: &Run, report: &Report) -> String {
    let first = &run.plain[0];
    let quality = map(vec![
        ("sims_total", Content::U64(first.sims)),
        ("targets_hit", Content::U64(first.targets_hit)),
        (
            "deep_first_hit_sims",
            Content::U64(first.deep_first_hit_sims),
        ),
    ]);
    let notes = Content::Map(
        run.notes
            .iter()
            .map(|(k, v)| (k.clone(), Content::Str(v.clone())))
            .collect(),
    );
    let body = map(vec![
        ("workload", Content::Str(args.workload.clone())),
        ("seed", Content::U64(args.seed)),
        ("seconds", Content::U64(args.seconds)),
        ("trace", Content::Bool(args.trace)),
        ("nproc", Content::U64(machine.nproc as u64)),
        ("cpu_model", Content::Str(machine.cpu_model.clone())),
        ("rustc", Content::Str(machine.rustc.to_owned())),
        (
            "git_commit",
            machine
                .git_commit
                .clone()
                .map_or(Content::Null, Content::Str),
        ),
        ("workload_params", notes),
        ("plain_passes", Content::U64(run.plain.len() as u64)),
        ("traced_passes", Content::U64(run.traced.len() as u64)),
        (
            "setup_runs_s",
            Content::Seq(run.setup_s.iter().map(|&s| Content::F64(s)).collect()),
        ),
        (
            "pass_walls_s",
            Content::Seq(run.plain.iter().map(|p| Content::F64(p.wall_s)).collect()),
        ),
        (
            "traced_pass_walls_s",
            Content::Seq(run.traced.iter().map(|p| Content::F64(p.wall_s)).collect()),
        ),
        ("end_to_end", metrics(&report.end_to_end)),
        (
            "request_latency_tail",
            map(vec![
                ("percentile", Content::F64(report.tail.percentile)),
                (
                    "requests_per_pass",
                    Content::U64(report.tail.samples as u64),
                ),
            ]),
        ),
        ("closure", quality),
        ("per_layer", metrics(&report.per_layer)),
        (
            "failures",
            Content::Seq(
                report
                    .failures
                    .iter()
                    .map(|f| Content::Str(f.clone()))
                    .collect(),
            ),
        ),
    ]);
    to_json(map(vec![("report", body)]))
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics` (end-to-end untraced, per-layer traced).
pub fn result_line(report: &Report, trace: bool) -> String {
    let readings = if trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    to_json(map(vec![
        ("correct", Content::Bool(report.correct)),
        ("attempted", Content::U64(report.attempted)),
        ("failed", Content::U64(report.failed)),
        ("metrics", metrics(readings)),
    ]))
}

/// A human-readable table of the report, for stderr.
pub fn table(args: &Args, machine: &Machine, run: &Run, report: &Report) -> String {
    let mut out = format!(
        "{} seed {} ({} untraced + {} traced passes, {} threads, {})\n",
        args.workload,
        args.seed,
        run.plain.len(),
        run.traced.len(),
        machine.nproc,
        machine.cpu_model
    );
    for (name, unit, value) in report.end_to_end.iter().chain(&report.per_layer) {
        out.push_str(&format!("  {name:<34} {value:>16.6} {unit}\n"));
    }
    out.push_str(&format!(
        "  request_latency_tail_s is p{:.1} of {} requests per pass\n",
        report.tail.percentile, report.tail.samples
    ));
    for f in &report.failures {
        out.push_str(&format!("  FAILED: {f}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    impl serde::Deserialize for Json {
        fn deserialize(content: &Content) -> Result<Self, serde::DeError> {
            Ok(Json(content.clone()))
        }
    }

    /// The metric tables here and in `BENCHMARK.json` name the same
    /// metrics with the same units, in the same order.
    #[test]
    fn tables_match_the_benchmark_definition() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let doc: Content = serde_json::from_str::<Json>(&text).expect("valid JSON").0;
        let names = |key: &str| -> Vec<(String, String)> {
            match doc.get(key) {
                Some(Content::Seq(items)) => items
                    .iter()
                    .map(|m| match (m.get("name"), m.get("unit")) {
                        (Some(Content::Str(n)), Some(Content::Str(u))) => (n.clone(), u.clone()),
                        _ => panic!("metric without name/unit in {key}"),
                    })
                    .collect(),
                _ => panic!("no {key} list"),
            }
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
    }
}
