//! `oneshot-closure`: the paper's three flows, each from scratch as
//! `ascdg run` runs it — regression included — driven stage by stage
//! through `FlowEngine::step` on one `SimPool` per pass. No fusion hub is
//! attached, so chunk fusion is bypassed.

use std::time::Instant;

use ascdg_core::{pool_scope_with, FlowConfig, FlowEngine, TargetSpec, Telemetry};
use ascdg_duv::ifu::IfuEnv;
use ascdg_duv::io_unit::IoEnv;
use ascdg_duv::l3cache::L3Env;
use ascdg_duv::VerifEnv;
use ascdg_stimgen::mix_seed;

use crate::bench::{self, Pass, Run};
use crate::stats::Interval;
use crate::timed_env::TimedEnv;

/// Paper-profile scale of every flow.
pub const SCALE: f64 = 0.1;

/// Set-up repetitions (building the three environments).
const SETUP_REPS: usize = 51;

/// One paper flow: unit, target, and the deep event whose first hit is
/// recorded.
struct Flow {
    unit: &'static str,
    target: fn() -> TargetSpec,
    config: fn() -> FlowConfig,
    deep: Option<&'static str>,
}

/// Fig. 3 (io `crc_`), Fig. 4 (l3 `byp_reqs`), Fig. 5 (ifu uncovered).
const FLOWS: [Flow; 3] = [
    Flow {
        unit: "io",
        target: || TargetSpec::Family("crc_".to_owned()),
        config: FlowConfig::paper_io,
        deep: Some("crc_064"),
    },
    Flow {
        unit: "l3",
        target: || TargetSpec::Family("byp_reqs".to_owned()),
        config: FlowConfig::paper_l3,
        deep: Some("byp_reqs13"),
    },
    Flow {
        unit: "ifu",
        target: || TargetSpec::Uncovered,
        config: FlowConfig::paper_ifu,
        deep: None,
    },
];

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, trace: bool, nproc: usize) -> Result<Run, String> {
    let mut run = Run::default();
    let mut envs = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let built = (IoEnv::new(), L3Env::new(), IfuEnv::new());
        run.setup_s.push(t.elapsed().as_secs_f64());
        envs = Some(std::hint::black_box(built));
    }
    let (io, l3, ifu) = envs.expect("at least one set-up repetition");
    let bare: [&dyn VerifEnv; 3] = [&io, &l3, &ifu];
    let seeds: Vec<u64> = (0..FLOWS.len() as u64)
        .map(|i| mix_seed(seed, i + 1))
        .collect();
    run.notes.push(("scale".to_owned(), SCALE.to_string()));
    run.notes
        .push(("flow_seeds".to_owned(), format!("{seeds:?}")));
    bench::measure(seconds, trace, 2, &mut run, |traced| {
        if traced {
            let timed = bare.map(TimedEnv::new);
            let envs: [&dyn VerifEnv; 3] = [&timed[0], &timed[1], &timed[2]];
            let telemetry = Telemetry::enabled();
            let mut p = pass(&envs, &seeds, nproc, &telemetry)?;
            let units: Vec<(&str, _)> = FLOWS
                .iter()
                .zip(&timed)
                .map(|(f, t)| (f.unit, t.totals()))
                .collect();
            bench::traced_layers(&mut p, &units, &telemetry, nproc);
            Ok(p)
        } else {
            let mut p = pass(&bare, &seeds, nproc, &Telemetry::disabled())?;
            p.layers.clear();
            Ok(p)
        }
    })?;
    Ok(run)
}

/// One pass: the three flows in order on one pool. Stage steps are
/// timed from here; the ledger and stage rows are filled in on every
/// pass and dropped by the caller when untraced.
fn pass(
    envs: &[&dyn VerifEnv; 3],
    seeds: &[u64],
    threads: usize,
    telemetry: &Telemetry,
) -> Result<Pass, String> {
    let mut p = Pass::default();
    let mut steps: Vec<(Interval, u64)> = Vec::new();
    let t0 = Instant::now();
    let secs = |t: Instant| t.duration_since(t0).as_secs_f64();
    pool_scope_with(threads, telemetry, |pool| {
        for ((flow, env), &seed) in FLOWS.iter().zip(envs).zip(seeds) {
            let started = Instant::now();
            let config = (flow.config)().scaled(SCALE);
            let engine = FlowEngine::new(env, config, pool).with_telemetry(telemetry.clone());
            let mut cx = engine.session((flow.target)(), seed);
            let outcome = loop {
                let s = Instant::now();
                match engine.step(&mut cx) {
                    Ok(Some(name)) => {
                        let sims = cx.state().stage_sims.last().map_or(0, |s| s.sims);
                        let iv = Interval {
                            row: format!("stage.{name}"),
                            start: secs(s),
                            end: secs(Instant::now()),
                        };
                        steps.push((iv, sims));
                    }
                    Ok(None) => break engine.finish(&cx),
                    Err(e) => break Err(e),
                }
            };
            p.latencies.push(started.elapsed().as_secs_f64());
            match outcome {
                Ok(mut outcome) => {
                    p.sims += cx.state().stage_sims.iter().map(|s| s.sims).sum::<u64>();
                    p.targets_hit += bench::targets_hit(&outcome);
                    if let Some(deep) = flow.deep {
                        let event = bench::event_named(env.coverage_model(), deep)
                            .ok_or_else(|| format!("{} has no event {deep}", flow.unit))?;
                        p.deep_first_hit_sims += bench::first_hit_sims(&outcome.phases, event);
                    }
                    // Timings are wall clock; everything else must repeat.
                    outcome.timings.clear();
                    p.outcomes.push(
                        serde_json::to_string(&outcome).map_err(|e| format!("serialize: {e}")),
                    );
                }
                Err(e) => p.outcomes.push(Err(format!("{} flow: {e}", flow.unit))),
            }
        }
        Ok::<(), String>(())
    })?;
    p.wall_s = t0.elapsed().as_secs_f64();

    bench::step_layers(&mut p.layers, p.wall_s, &steps, &[]);
    Ok(p)
}
