//! `serve-mixed`: an in-process `ascdg_serve::serve` daemon configured
//! as `ascdg serve` builds it (telemetry on, HTTP plane on a free local
//! port, machine-sized pool), driven as a closed loop by two client
//! connections through the generated request mix. Every `Done` must be
//! byte-identical to the one-shot `run_campaign` outcome for its key.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

use ascdg_core::{CampaignOutcome, CdgFlow, Telemetry};
use ascdg_serve::{
    request_config, resolve_unit, serve, Client, Request, Response, ServeOptions, SubmitSpec,
};

use crate::bench::{self, Pass, Run};
use crate::requests::{self, Req};
use crate::stats::{self, Interval};

/// Client connections driving the closed loop.
pub const CONNECTIONS: usize = 2;

/// Set-up repetitions: each computes the one-shot reference outcome of
/// every distinct key and starts a daemon; the last daemon serves the
/// passes.
const SETUP_REPS: usize = 3;

/// How long a daemon may take to bind and answer.
const START_TIMEOUT: Duration = Duration::from_secs(30);

/// One served request as the client saw it, seconds from the pass start.
struct Served {
    submit: f64,
    admitted: f64,
    first_progress: Option<f64>,
    done: f64,
    result: Result<String, String>,
}

/// A running daemon.
struct Daemon<'scope> {
    handle: ScopedJoinHandle<'scope, std::io::Result<()>>,
    addr: String,
    telemetry: Telemetry,
    epoch: Instant,
    dir: PathBuf,
}

/// Runs the workload; daemon state directories go under `tmp`.
pub fn run(seed: u64, seconds: f64, trace: bool, tmp: &Path) -> Result<Run, String> {
    let mut run = Run::default();
    let mix = requests::generate(seed);
    run.notes
        .push(("requests".to_owned(), mix.len().to_string()));
    run.notes.push((
        "repeats".to_owned(),
        mix.iter().filter(|r| r.repeat).count().to_string(),
    ));
    run.notes
        .push(("connections".to_owned(), CONNECTIONS.to_string()));

    std::thread::scope(|scope| {
        let (mut oracle, mut daemon) = (None, None);
        for i in 0..SETUP_REPS {
            let t = Instant::now();
            let outcomes = one_shot_outcomes(&mix)?;
            let started = start(scope, &tmp.join(format!("serve-{i}")))?;
            run.setup_s.push(t.elapsed().as_secs_f64());
            match &oracle {
                None => oracle = Some(outcomes),
                Some(first) if *first != outcomes => run
                    .failures
                    .push("one-shot outcomes differ between set-up repetitions".to_owned()),
                Some(_) => {}
            }
            if i + 1 < SETUP_REPS {
                stop(started)?;
            } else {
                daemon = Some(started);
            }
        }
        let oracle = oracle.expect("at least one set-up repetition");
        let daemon = daemon.expect("the last set-up repetition keeps its daemon");
        let result = drive(&daemon, &mix, &oracle, seconds, trace, &mut run);
        let stopped = stop(daemon);
        result.and(stopped)
    })?;
    Ok(run)
}

/// The one-shot campaign outcome of every distinct key of the mix.
fn one_shot_outcomes(mix: &[Req]) -> Result<HashMap<(&'static str, u64, u64), String>, String> {
    let mut oracle = HashMap::new();
    for r in mix.iter().filter(|r| !r.repeat) {
        let env = resolve_unit(r.unit).ok_or_else(|| format!("unknown unit {}", r.unit))?;
        let config = request_config(&*env, "paper", r.scale).expect("paper profile exists");
        let outcome = CdgFlow::new(env, config)
            .run_campaign(r.seed)
            .map_err(|e| format!("one-shot {} seed {}: {e}", r.unit, r.seed))?;
        let json = serde_json::to_string(&outcome).map_err(|e| format!("serialize: {e}"))?;
        oracle.insert(r.key(), json);
    }
    Ok(oracle)
}

/// Starts a daemon in `dir` and waits until it answers a `Status`. The
/// client connects as soon as the daemon publishes its address, which is
/// before the daemon builds its units and starts accepting: a client
/// that connected after the accept loop went idle would wait out the
/// loop's 25 ms poll instead, and the start-up time would jump between
/// the two cases.
fn start<'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    dir: &Path,
) -> Result<Daemon<'scope>, String> {
    let telemetry = Telemetry::enabled();
    let epoch = Instant::now();
    let opts = ServeOptions {
        addr: "127.0.0.1:0".to_owned(),
        state_dir: dir.to_owned(),
        threads: 0,
        telemetry: telemetry.clone(),
        http_addr: Some("127.0.0.1:0".to_owned()),
        sample_interval_ms: 0,
    };
    let handle = scope.spawn(move || serve(&opts));
    let deadline = Instant::now() + START_TIMEOUT;
    let addr_file = dir.join("serve.addr");
    loop {
        if handle.is_finished() {
            return Err(match handle.join() {
                Ok(Err(e)) => format!("daemon failed to start: {e}"),
                _ => "daemon exited during start-up".to_owned(),
            });
        }
        if let Ok(addr) = std::fs::read_to_string(&addr_file) {
            if let Ok(mut client) = Client::connect(addr.trim()) {
                if client.status().is_ok() {
                    return Ok(Daemon {
                        handle,
                        addr: addr.trim().to_owned(),
                        telemetry,
                        epoch,
                        dir: dir.to_owned(),
                    });
                }
            }
        }
        if Instant::now() > deadline {
            return Err("daemon did not answer within the start-up timeout".to_owned());
        }
        std::thread::yield_now();
    }
}

/// Asks the daemon to shut down and waits for its thread.
fn stop(daemon: Daemon<'_>) -> Result<(), String> {
    let asked = Client::connect(&daemon.addr).and_then(|mut c| c.shutdown());
    let joined = daemon.handle.join();
    asked.map_err(|e| format!("shutdown request failed: {e}"))?;
    match joined {
        Ok(result) => result.map_err(|e| format!("daemon failed: {e}")),
        Err(_) => Err("daemon thread panicked".to_owned()),
    }
}

/// The timed passes over the mix.
fn drive(
    daemon: &Daemon<'_>,
    mix: &[Req],
    oracle: &HashMap<(&'static str, u64, u64), String>,
    seconds: f64,
    trace: bool,
    run: &mut Run,
) -> Result<(), String> {
    let mut clients: Vec<Client> = (0..CONNECTIONS)
        .map(|_| Client::connect(&daemon.addr))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    bench::measure(seconds, trace, 1, run, |traced| {
        let before = bench::readings(&daemon.telemetry);
        let bytes_before = dir_bytes(&daemon.dir);
        let pass_epoch = daemon.epoch.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let served = closed_loop(&mut clients, mix, t0);
        let mut p = Pass {
            wall_s: t0.elapsed().as_secs_f64(),
            ..Pass::default()
        };
        let mut regression_sims = 0;
        for (r, s) in mix.iter().zip(&served) {
            p.latencies.push(s.done - s.submit);
            let checked = s.result.clone().and_then(|json| {
                if oracle.get(&r.key()) == Some(&json) {
                    Ok(json)
                } else {
                    Err(format!(
                        "{} scale {} seed {}: served outcome differs from the one-shot campaign",
                        r.unit, r.scale, r.seed
                    ))
                }
            });
            if let Ok(json) = &checked {
                let outcome: CampaignOutcome =
                    serde_json::from_str(json).map_err(|e| format!("parse outcome: {e}"))?;
                let group_sims: u64 = outcome.groups.iter().map(|g| g.sims).sum();
                p.sims += outcome.total_sims;
                regression_sims += outcome.total_sims - group_sims;
                p.targets_hit += outcome.total_newly_covered() as u64;
            }
            p.outcomes.push(checked);
        }
        if traced {
            served_layers(&mut p, &served, regression_sims);
            p.layers.insert(
                "serve.state_bytes".to_owned(),
                dir_bytes(&daemon.dir).saturating_sub(bytes_before) as f64,
            );
            let spans: Vec<(Interval, u64)> = bench::stage_spans(&daemon.telemetry)
                .into_iter()
                .filter(|(iv, _)| iv.start >= pass_epoch)
                .map(|(iv, n)| {
                    let shifted = Interval {
                        row: iv.row,
                        start: iv.start - pass_epoch,
                        end: iv.end - pass_epoch,
                    };
                    (shifted, n)
                })
                .collect();
            let mut stage_rows = BTreeMap::new();
            bench::step_layers(&mut stage_rows, p.wall_s, &spans, &[]);
            p.layers.extend(
                stage_rows
                    .into_iter()
                    .filter(|(k, _)| k.starts_with("stage.") || k == "campaign.overlap"),
            );
            let now = bench::readings(&daemon.telemetry);
            bench::program_layers(&mut p.layers, &now, &before, p.sims);
        }
        Ok(p)
    })
}

/// Serves the whole mix over the connections, each sending its next
/// request only after the previous one completed. Results come back in
/// mix order.
fn closed_loop(clients: &mut [Client], mix: &[Req], t0: Instant) -> Vec<Served> {
    let next = AtomicUsize::new(0);
    let mut served: Vec<(usize, Served)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(r) = mix.get(i) else { break };
                        mine.push((i, submit(client, r, t0)));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread does not panic"))
            .collect()
    });
    served.sort_by_key(|(i, _)| *i);
    served.into_iter().map(|(_, s)| s).collect()
}

/// One request: Submit, then read until its terminal line.
fn submit(client: &mut Client, r: &Req, t0: Instant) -> Served {
    let now = || t0.elapsed().as_secs_f64();
    let spec = SubmitSpec {
        unit: r.unit.to_owned(),
        scale: r.scale,
        seed: r.seed,
        profile: "paper".to_owned(),
        weight: r.weight,
        class: r.class.to_owned(),
    };
    let submit = now();
    let mut admitted = submit;
    let mut first_progress = None;
    let result = match client.send(&Request::Submit(spec)) {
        Err(e) => Err(format!("send: {e}")),
        Ok(()) => loop {
            match client.recv() {
                Ok(Some(Response::Admitted { .. })) => admitted = now(),
                Ok(Some(Response::Progress { .. })) => {
                    first_progress.get_or_insert_with(now);
                }
                Ok(Some(Response::Done { outcome_json, .. })) => break Ok(outcome_json),
                Ok(Some(Response::Failed { error, .. })) => break Err(format!("failed: {error}")),
                Ok(Some(Response::Error { code, error })) => {
                    break Err(format!("rejected ({code}): {error}"))
                }
                Ok(Some(_)) => {}
                Ok(None) => break Err("daemon closed the connection".to_owned()),
                Err(e) => break Err(format!("recv: {e}")),
            }
        },
    };
    Served {
        submit,
        admitted,
        first_progress,
        done: now(),
        result,
    }
}

/// Client-timed protocol readings and the request ledger of one pass.
fn served_layers(p: &mut Pass, served: &[Served], regression_sims: u64) {
    let admit: Vec<f64> = served.iter().map(|s| s.admitted - s.submit).collect();
    let run: Vec<f64> = served.iter().map(|s| s.done - s.admitted).collect();
    let progress: Vec<f64> = served
        .iter()
        .filter_map(|s| s.first_progress.map(|t| t - s.admitted))
        .collect();
    p.layers
        .insert("serve.admit_s".to_owned(), stats::median(&admit));
    p.layers
        .insert("serve.run_s".to_owned(), stats::median(&run));
    p.layers.insert(
        "serve.first_progress_s".to_owned(),
        stats::median(&progress),
    );
    p.layers.insert(
        "serve.regression_sims_share_pct".to_owned(),
        100.0 * bench::ratio(regression_sims as f64, p.sims as f64),
    );
    let mut intervals = Vec::new();
    for s in served {
        intervals.push(Interval {
            row: "serve.admit".to_owned(),
            start: s.submit,
            end: s.admitted,
        });
        intervals.push(Interval {
            row: "serve.run".to_owned(),
            start: s.admitted,
            end: s.done,
        });
    }
    let ledger = stats::ledger(p.wall_s, &intervals);
    p.layers
        .insert("ledger.gap_pct".to_owned(), ledger.gap_pct());
}

/// Bytes of every file directly under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
