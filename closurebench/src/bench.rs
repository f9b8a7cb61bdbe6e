//! What every workload produces, the timed-pass loop, and the per-layer
//! readings shared between workloads.

use std::collections::BTreeMap;
use std::time::Instant;

use ascdg_core::{FlowOutcome, PhaseStats, PHASE_BEFORE, PHASE_BEST};
use ascdg_coverage::CoverageModel;
use ascdg_telemetry::{MetricKind, Telemetry};

use crate::stats::{self, Interval};
use crate::timed_env::SimTotals;

/// Largest `ledger.gap_pct` a traced pass may show: the stage (or
/// request) rows must account for all but this share of the wall time.
pub const LEDGER_TOLERANCE_PCT: f64 = 5.0;

/// One timed pass over a workload's whole input.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of the pass.
    pub wall_s: f64,
    /// Simulations the pass's outcomes account for.
    pub sims: u64,
    /// Latency of each request (flow, campaign or served request).
    pub latencies: Vec<f64>,
    /// Each request's canonical outcome bytes, or its error.
    pub outcomes: Vec<Result<String, String>>,
    /// Target events with at least one hit in the harvest phase.
    pub targets_hit: u64,
    /// CDG simulations before the first hit of each deep event, summed
    /// (stage granularity; a never-hit event counts all its flow's CDG
    /// simulations).
    pub deep_first_hit_sims: u64,
    /// Per-layer readings; empty on untraced passes.
    pub layers: BTreeMap<String, f64>,
}

/// Everything one benchmark run measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Each set-up repetition's duration.
    pub setup_s: Vec<f64>,
    /// Untraced passes.
    pub plain: Vec<Pass>,
    /// Traced passes (`--trace 1` only).
    pub traced: Vec<Pass>,
    /// Failures found by the workload's own checks.
    pub failures: Vec<String>,
    /// Workload parameters worth recording (scales, units, mix).
    pub notes: Vec<(String, String)>,
    /// Peak resident set after set-up and the first pass, MiB.
    pub peak_rss_mb: f64,
}

/// Runs passes for `seconds`: at least `min_passes` untraced ones, or,
/// when tracing, at least one traced and one untraced (their outcomes
/// are compared, and their wall times give the tracing overhead). A new
/// pass starts only while the median pass so far still fits in the
/// budget, so a run measures close to `seconds` even when a pass is
/// long. Traced runs alternate traced and untraced passes, traced first.
pub fn measure(
    seconds: f64,
    trace: bool,
    min_passes: usize,
    run: &mut Run,
    mut pass: impl FnMut(bool) -> Result<Pass, String>,
) -> Result<(), String> {
    let start = Instant::now();
    let mut durations: Vec<f64> = Vec::new();
    loop {
        let enough = if trace {
            !run.plain.is_empty() && !run.traced.is_empty()
        } else {
            run.plain.len() >= min_passes
        };
        let elapsed = start.elapsed().as_secs_f64();
        if enough && elapsed + stats::median(&durations) > seconds {
            return Ok(());
        }
        let traced = trace && run.traced.len() <= run.plain.len();
        let t = Instant::now();
        let p = pass(traced)?;
        durations.push(t.elapsed().as_secs_f64());
        // Every pass does the same work, so the peak is read once: later
        // passes would only add what the program accumulates over its
        // life (the serve daemon's telemetry keeps every span), and the
        // reading would depend on how many passes fit the budget.
        if durations.len() == 1 {
            run.peak_rss_mb = crate::machine::peak_rss_mb();
        }
        if traced {
            run.traced.push(p);
        } else {
            run.plain.push(p);
        }
    }
}

/// The id of the event called `name`.
pub fn event_named(model: &CoverageModel, name: &str) -> Option<ascdg_coverage::EventId> {
    model.event_ids().find(|&e| model.name(e) == name)
}

/// CDG simulations up to and including the first phase that hit
/// `event`; all CDG simulations when no phase did.
pub fn first_hit_sims<'a>(
    phases: impl IntoIterator<Item = &'a PhaseStats>,
    event: ascdg_coverage::EventId,
) -> u64 {
    let mut sims = 0;
    for phase in phases {
        if phase.name == PHASE_BEFORE {
            continue;
        }
        sims += phase.sims;
        if phase.hits.get(event.0 as usize).copied().unwrap_or(0) > 0 {
            break;
        }
    }
    sims
}

/// Targets of a flow with at least one hit in its harvest phase.
pub fn targets_hit(outcome: &FlowOutcome) -> u64 {
    outcome.phase(PHASE_BEST).map_or(0, |best| {
        outcome
            .targets
            .iter()
            .filter(|e| best.hits.get(e.0 as usize).copied().unwrap_or(0) > 0)
            .count() as u64
    })
}

/// `n / d`, or `0` when `d` is `0`.
pub fn ratio(n: f64, d: f64) -> f64 {
    if d > 0.0 {
        n / d
    } else {
        0.0
    }
}

/// Stage intervals the program's telemetry recorded (`stage` spans), in
/// seconds from the telemetry epoch, with the simulations each ran.
pub fn stage_spans(telemetry: &Telemetry) -> Vec<(Interval, u64)> {
    telemetry
        .export_trace("", 0)
        .into_iter()
        .filter_map(|r| match r {
            ascdg_telemetry::TraceRecord::Span(s) if s.kind == "stage" => Some((
                Interval {
                    row: format!("stage.{}", s.name),
                    start: s.start_us as f64 / 1e6,
                    end: (s.start_us + s.dur_us) as f64 / 1e6,
                },
                s.sims,
            )),
            _ => None,
        })
        .collect()
}

/// The ledger of `steps` over a pass of `wall_s`, as layer readings:
/// `stage.<name>.s` self time, `stage.<name>.sims`, `ledger.gap_pct`,
/// `campaign.overlap` (summed step wall time over the pass wall time) and
/// the self time of the stages that simulated (`simulating_s`, consumed
/// by [`traced_layers`]). `extra` intervals (checkpoint writes) join the
/// ledger without being steps.
pub fn step_layers(
    layers: &mut BTreeMap<String, f64>,
    wall_s: f64,
    steps: &[(Interval, u64)],
    extra: &[Interval],
) {
    let mut intervals: Vec<Interval> = steps.iter().map(|(iv, _)| iv.clone()).collect();
    intervals.extend_from_slice(extra);
    let ledger = stats::ledger(wall_s, &intervals);
    let mut sims: BTreeMap<&str, u64> = BTreeMap::new();
    for (iv, n) in steps {
        *sims.entry(&iv.row).or_insert(0) += n;
    }
    let mut simulating = 0.0;
    for (row, s) in &ledger.rows {
        layers.insert(format!("{row}.s"), *s);
        if let Some(&n) = sims.get(row.as_str()) {
            layers.insert(format!("{row}.sims"), n as f64);
            if n > 0 {
                simulating += s;
            }
        }
    }
    layers.insert("ledger.gap_pct".to_owned(), ledger.gap_pct());
    layers.insert("simulating_s".to_owned(), simulating);
    let stepped: f64 = steps.iter().map(|(iv, _)| iv.end - iv.start).sum();
    layers.insert("campaign.overlap".to_owned(), ratio(stepped, wall_s));
}

/// Every counter and gauge the program exported, by name.
pub fn readings(telemetry: &Telemetry) -> BTreeMap<String, f64> {
    telemetry
        .metrics()
        .map(|m| {
            m.snapshot()
                .into_iter()
                .filter(|s| s.kind != MetricKind::Histogram)
                .map(|s| (s.name, s.value))
                .collect()
        })
        .unwrap_or_default()
}

/// Readings every workload's traced pass gets from the program's own
/// counters: pool dispatch, fusion, repository merges, objective and
/// optimizer. Counters count from `before` (a [`readings`] taken at the
/// pass start; empty for a telemetry handle made for the pass). `sims`
/// is the pass's simulation count. Run after [`step_layers`]: the
/// regression stage is what merges into the repository, so merges are
/// divided into its simulations.
pub fn program_layers(
    layers: &mut BTreeMap<String, f64>,
    now: &BTreeMap<String, f64>,
    before: &BTreeMap<String, f64>,
    sims: u64,
) {
    let get = |name: &str| now.get(name).copied().unwrap_or(0.0);
    let delta = |name: &str| get(name) - before.get(name).copied().unwrap_or(0.0);
    let sum = |prefix: &str, suffix: &str| -> f64 {
        now.keys()
            .filter(|k| k.starts_with(prefix) && k.ends_with(suffix))
            .map(|k| delta(k))
            .fold(0.0, |a, b| a + b)
    };
    let jobs = delta("pool.jobs_dispatched");
    let merges = sum("batch.repo_stripe.", "");
    let merged = layers.get("stage.regression.sims").copied().unwrap_or(0.0);
    let evals = delta("objective.evals");
    let values = [
        ("pool.jobs_dispatched", jobs),
        ("pool.sims_per_job", ratio(sims as f64, jobs)),
        ("batch.fused_chunks", delta("batch.fused_chunks")),
        (
            "batch.fusion_occupancy_pct",
            get("batch.fusion_occupancy_pct"),
        ),
        ("coverage.repo_merges", merges),
        ("coverage.sims_per_merge", ratio(merged, merges)),
        ("objective.evals", evals),
        (
            "objective.sims_per_eval",
            ratio(delta("objective.sims_executed"), evals),
        ),
        ("objective.coalesced", delta("objective.coalesced")),
        ("opt.iterations", sum("opt.", ".iterations")),
    ];
    for (name, value) in values {
        layers.insert(name.to_owned(), value);
    }
}

/// Fills a traced pass's readings from its forwarding environments
/// (`units`, after the pass) and the telemetry handle made for it: the
/// per-unit kernel time and cost per simulation, the call shape, how
/// busy the kernels kept the machine, and [`program_layers`]. With
/// `threads` pool workers plus the helping stage thread, `threads + 1`
/// threads can be inside a kernel during a simulating stage.
pub fn traced_layers(
    p: &mut Pass,
    units: &[(&str, SimTotals)],
    telemetry: &Telemetry,
    threads: usize,
) {
    let layers = &mut p.layers;
    let simulating_s = layers.remove("simulating_s").unwrap_or(0.0);
    let mut all = SimTotals::default();
    for (unit, t) in units {
        all = all.plus(*t);
        layers.insert(
            format!("duv.{unit}.ns_per_sim"),
            ratio(t.busy_ns as f64, t.lanes as f64),
        );
        layers.insert(format!("duv.{unit}.busy_s"), t.busy_ns as f64 / 1e9);
    }
    let busy_s = all.busy_ns as f64 / 1e9;
    layers.insert(
        "duv.lanes_per_call".to_owned(),
        ratio(all.lanes as f64, all.calls as f64),
    );
    layers.insert("duv.fused_calls".to_owned(), all.fused_calls as f64);
    layers.insert(
        "duv.busy_pct".to_owned(),
        100.0 * ratio(busy_s, p.wall_s * threads as f64),
    );
    let capacity = simulating_s * (threads + 1) as f64;
    layers.insert(
        "pool.nonkernel_pct".to_owned(),
        100.0 * (1.0 - ratio(busy_s, capacity)).max(0.0),
    );
    program_layers(layers, &readings(telemetry), &BTreeMap::new(), p.sims);
}
