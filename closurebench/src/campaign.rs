//! `campaign-snapshot`: the paper's setting, where "Before CDG" is
//! existing regression data. Set-up builds each unit's regression
//! snapshot (counted in `setup_s`); the timed pass resumes campaigns from
//! `CampaignProgress`es with no group started — several campaign seeds
//! per unit over the unit's one snapshot — two groups in flight,
//! streaming every progress checkpoint to disk.

use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use ascdg_core::{
    group_uncovered, CampaignProgress, CdgFlow, CheckpointWriter, FlowConfig, GroupProgress,
    Telemetry,
};
use ascdg_duv::ifu::IfuEnv;
use ascdg_duv::io_unit::IoEnv;
use ascdg_duv::l3cache::L3Env;
use ascdg_duv::VerifEnv;
use ascdg_stimgen::mix_seed;

use crate::bench::{self, Pass, Run};
use crate::stats::Interval;
use crate::timed_env::TimedEnv;

/// Paper-profile scale of the regression and the campaign budgets.
pub const SCALE: f64 = 0.1;

/// Campaign groups in flight at once.
pub const JOBS: usize = 2;

/// Set-up repetitions (building all three snapshots each time).
const SETUP_REPS: usize = 3;

/// Campaigns per unit in a pass, each with its own campaign seed over
/// the unit's snapshot. Which templates a campaign's groups pick, and so
/// what a simulation costs, depends on the seed; several seeds per pass
/// keep the work of a pass close to the same for every workload seed.
const CAMPAIGNS_PER_UNIT: u64 = 8;

/// Seed of the regression fixture. The regression snapshot plays the
/// project's existing regression data, which is the same whatever the
/// CDG seeds: which events it leaves uncovered decides how many groups a
/// campaign has, and a seed-dependent group count would make the work of
/// a pass differ by a fifth between workload seeds. The workload seed
/// drives every campaign seed.
const REGRESSION_SEED: u64 = 2021;

/// One unit's campaigns: its paper profile, and the group and deep event
/// whose first hit is recorded.
struct Unit {
    name: &'static str,
    config: fn() -> FlowConfig,
    deep: Option<(&'static str, &'static str)>,
}

const UNITS: [Unit; 3] = [
    Unit {
        name: "io",
        config: FlowConfig::paper_io,
        deep: Some(("crc_", "crc_064")),
    },
    Unit {
        name: "l3",
        config: FlowConfig::paper_l3,
        deep: Some(("byp_reqs", "byp_reqs13")),
    },
    Unit {
        name: "ifu",
        config: FlowConfig::paper_ifu,
        deep: None,
    },
];

fn config(unit: usize, nproc: usize) -> FlowConfig {
    let mut c = (UNITS[unit].config)().scaled(SCALE);
    c.campaign_jobs = JOBS;
    c.threads = nproc;
    c
}

/// The unstarted campaign a snapshot implies: the same regression seed
/// and grouping `run_campaign` would use.
fn snapshot(env: &dyn VerifEnv, config: FlowConfig, seed: u64) -> Result<CampaignProgress, String> {
    let flow = CdgFlow::new(env, config.clone());
    let repo = flow
        .run_regression(mix_seed(seed, 0xca3))
        .map_err(|e| format!("{} regression: {e}", env.unit_name()))?;
    let groups = group_uncovered(env.coverage_model(), &repo)
        .into_iter()
        .map(|(name, targets)| GroupProgress {
            name,
            targets,
            session: None,
            failure: None,
        })
        .collect();
    Ok(CampaignProgress {
        unit: env.unit_name().to_owned(),
        seed,
        config: Some(config),
        repo: Some(repo.snapshot()),
        groups,
    })
}

/// Runs the workload; checkpoints go under `tmp`.
pub fn run(seed: u64, seconds: f64, trace: bool, nproc: usize, tmp: &Path) -> Result<Run, String> {
    let mut run = Run::default();
    let (io, l3, ifu) = (IoEnv::new(), L3Env::new(), IfuEnv::new());
    let bare: [&dyn VerifEnv; 3] = [&io, &l3, &ifu];
    let regression_seeds: Vec<u64> = (0..3).map(|u| mix_seed(REGRESSION_SEED, u)).collect();
    let mut progress: Vec<CampaignProgress> = Vec::new();
    let mut first_bytes: Option<Vec<String>> = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let built = (0..3)
            .map(|u| snapshot(bare[u], config(u, nproc), regression_seeds[u]))
            .collect::<Result<Vec<_>, _>>()?;
        run.setup_s.push(t.elapsed().as_secs_f64());
        let bytes: Vec<String> = built
            .iter()
            .map(|p| serde_json::to_string(p).expect("progress serializes"))
            .collect();
        match &first_bytes {
            Some(first) if *first != bytes => {
                run.failures
                    .push("regression snapshot differs between set-up repetitions".to_owned());
            }
            _ => first_bytes = Some(bytes),
        }
        progress = built;
    }
    let campaigns: Vec<(usize, CampaignProgress)> = progress
        .iter()
        .enumerate()
        .flat_map(|(u, p)| {
            (0..CAMPAIGNS_PER_UNIT).map(move |k| {
                let mut variant = p.clone();
                variant.seed = mix_seed(seed, u as u64 * CAMPAIGNS_PER_UNIT + k);
                (u, variant)
            })
        })
        .collect();
    let groups: usize = campaigns.iter().map(|(_, p)| p.groups.len()).sum();
    run.notes.push(("scale".to_owned(), SCALE.to_string()));
    run.notes
        .push(("campaign_jobs".to_owned(), JOBS.to_string()));
    run.notes.push((
        "regression_seeds".to_owned(),
        format!("{regression_seeds:?}"),
    ));
    let campaign_seeds: Vec<u64> = campaigns.iter().map(|(_, p)| p.seed).collect();
    run.notes
        .push(("campaign_seeds".to_owned(), format!("{campaign_seeds:?}")));
    run.notes
        .push(("campaigns".to_owned(), campaigns.len().to_string()));
    run.notes.push(("groups".to_owned(), groups.to_string()));

    bench::measure(seconds, trace, 2, &mut run, |traced| {
        if traced {
            let timed = bare.map(TimedEnv::new);
            let envs: [&dyn VerifEnv; 3] = [&timed[0], &timed[1], &timed[2]];
            let telemetry = Telemetry::enabled();
            let mut p = pass(&envs, &campaigns, nproc, &telemetry, tmp)?;
            let units: Vec<(&str, _)> = UNITS
                .iter()
                .zip(&timed)
                .map(|(u, t)| (u.name, t.totals()))
                .collect();
            bench::traced_layers(&mut p, &units, &telemetry, nproc);
            p.layers.insert("campaign.groups".to_owned(), groups as f64);
            Ok(p)
        } else {
            let mut p = pass(&bare, &campaigns, nproc, &Telemetry::disabled(), tmp)?;
            p.layers.clear();
            Ok(p)
        }
    })?;
    Ok(run)
}

/// Checkpoint-write bookkeeping of one pass.
#[derive(Default)]
struct Writes {
    intervals: Vec<Interval>,
    bytes: u64,
    failures: Vec<String>,
}

/// One pass: every campaign in order, each resumed from its unstarted
/// snapshot. Stage rows come from the program's `stage` spans
/// (traced passes only); checkpoint writes are timed here.
fn pass(
    envs: &[&dyn VerifEnv; 3],
    campaigns: &[(usize, CampaignProgress)],
    nproc: usize,
    telemetry: &Telemetry,
    tmp: &Path,
) -> Result<Pass, String> {
    let mut p = Pass::default();
    let writes = Mutex::new(Writes::default());
    let t0 = Instant::now();
    let secs = |t: Instant| t.duration_since(t0).as_secs_f64();
    for (u, progress) in campaigns {
        let (u, env) = (*u, envs[*u]);
        let started = Instant::now();
        let flow = CdgFlow::new(env, config(u, nproc));
        let writer = CheckpointWriter::new(
            tmp.join(format!("campaign-{}.json", UNITS[u].name)),
            telemetry.clone(),
        );
        let sink = |cp: &CampaignProgress| {
            let s = Instant::now();
            let result = writer.write_campaign(cp);
            let e = Instant::now();
            let size = std::fs::metadata(writer.path()).map_or(0, |m| m.len());
            let mut w = writes.lock().expect("no panic while holding the write log");
            w.intervals.push(Interval {
                row: "checkpoint.write".to_owned(),
                start: secs(s),
                end: secs(e),
            });
            w.bytes += size;
            if let Err(err) = result {
                w.failures.push(err.to_string());
            }
        };
        let report = flow.resume_campaign(progress, telemetry, Some(&sink));
        p.latencies.push(started.elapsed().as_secs_f64());
        match report {
            Ok(report) => {
                let outcome = &report.outcome;
                p.sims += outcome.groups.iter().map(|g| g.sims).sum::<u64>();
                p.targets_hit += outcome.total_newly_covered() as u64;
                if let Some((group, deep)) = UNITS[u].deep {
                    let event = bench::event_named(env.coverage_model(), deep)
                        .ok_or_else(|| format!("{} has no event {deep}", UNITS[u].name))?;
                    let state = outcome
                        .groups
                        .iter()
                        .position(|g| g.name == group)
                        .and_then(|i| report.sessions[i].as_ref());
                    if let Some(state) = state {
                        p.deep_first_hit_sims += bench::first_hit_sims(&state.phases, event);
                    }
                }
                p.outcomes
                    .push(serde_json::to_string(outcome).map_err(|e| format!("serialize: {e}")));
            }
            Err(e) => p
                .outcomes
                .push(Err(format!("{} campaign: {e}", UNITS[u].name))),
        }
    }
    p.wall_s = t0.elapsed().as_secs_f64();
    let writes = writes
        .into_inner()
        .expect("no panic while holding the write log");
    if let Some(e) = writes.failures.first() {
        return Err(format!("checkpoint write failed: {e}"));
    }

    let spans = bench::stage_spans(telemetry);
    bench::step_layers(&mut p.layers, p.wall_s, &spans, &writes.intervals);
    p.layers.insert(
        "checkpoint.writes".to_owned(),
        writes.intervals.len() as f64,
    );
    p.layers.insert(
        "checkpoint.write_s".to_owned(),
        writes.intervals.iter().map(|i| i.end - i.start).sum(),
    );
    p.layers
        .insert("checkpoint.bytes".to_owned(), writes.bytes as f64);
    Ok(p)
}
