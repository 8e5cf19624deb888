//! The `campaign` workload: many small simulator jobs through the
//! supervise engine (`run_campaign`, called in-process) on two worker
//! slots. Each job is a `dtsvliw_run` child process.

use crate::report::{host_peak_rss_mb, process_cpu_secs, Metric, Report};
use crate::rounds::Rounds;
use crate::spans::Recorder;
use crate::stats::{geomean, mean, percentile_floored_ms};
use dtsvliw_bench::supervise::{parse_campaign, run_campaign, CampaignSpec};
use dtsvliw_bench::supervise::{CampaignResult, EngineOptions};
use dtsvliw_bench::WORKLOADS;
use dtsvliw_core::{Machine, MachineConfig};
use dtsvliw_json::Json;
use dtsvliw_trace::{SpanKind, SpanPhase};
use dtsvliw_workloads::{by_name, Scale};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Jobs in one campaign.
pub const JOBS: usize = 200;
/// Worker slots: one per core of the two-core host the benchmark was
/// sized on.
pub const SLOTS: usize = 2;
/// Sequential-instruction budget of each job.
pub const JOB_BUDGET: u64 = 100_000;
/// Timed set-ups per campaign (one takes a few milliseconds).
const SETUPS: usize = 10;

/// What a job's result must say: the in-process machine's figures for
/// the same program, configuration and budget.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Expected {
    cycles: u64,
    instructions: u64,
}

fn expected_results() -> Result<BTreeMap<&'static str, Expected>, String> {
    WORKLOADS
        .iter()
        .map(|&name| {
            let w = by_name(name, Scale::Test).ok_or(format!("no workload {name}"))?;
            let mut m = Machine::new(MachineConfig::feasible_paper(), &w.image());
            m.run(JOB_BUDGET).map_err(|e| format!("{name}: {e}"))?;
            let s = m.stats();
            Ok((
                name,
                Expected {
                    cycles: s.cycles,
                    instructions: s.instructions,
                },
            ))
        })
        .collect()
}

/// The campaign's job order: the eight workloads in rotation, the
/// rotation a seeded permutation.
pub fn rotation(seed: u64) -> Vec<&'static str> {
    let mut order = WORKLOADS.to_vec();
    let mut x = seed ^ 0x2545_f491_4f6c_dd1d;
    for i in (1..order.len()).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        order.swap(i, (x % (i as u64 + 1)) as usize);
    }
    order
}

/// Build the campaign spec document.
pub fn spec_text(run_bin: &Path, results: &Path, seed: u64, jobs: usize) -> String {
    let order = rotation(seed);
    let jobs: Vec<Json> = (0..jobs)
        .map(|i| {
            let w = order[i % order.len()];
            let result = results.join(format!("j{i}.json")).display().to_string();
            let argv = [
                run_bin.display().to_string(),
                "--workload".into(),
                w.into(),
                "--scale".into(),
                "test".into(),
                "--config".into(),
                "feasible".into(),
                "--max".into(),
                JOB_BUDGET.to_string(),
                "--metrics-json".into(),
                result.clone(),
            ];
            Json::obj([
                ("name", Json::Str(format!("j{i}-{w}"))),
                ("argv", Json::Arr(argv.into_iter().map(Json::Str).collect())),
                ("timeout_ms", Json::U64(60_000)),
                ("retries", Json::U64(0)),
                ("result", Json::Str(result)),
            ])
        })
        .collect();
    Json::obj([
        ("seed", Json::U64(seed)),
        ("backoff_ms", Json::U64(10)),
        ("jobs", Json::Arr(jobs)),
    ])
    .to_string()
}

/// Set-up: build the spec, write it, parse it back, and stage the
/// result directory (emptied after each campaign, outside the timing).
fn set_up(work: &Path, run_bin: &Path, seed: u64, jobs: usize) -> Result<CampaignSpec, String> {
    let results = work.join("results");
    let text = spec_text(run_bin, &results, seed, jobs);
    let spec_path = work.join("campaign.json");
    std::fs::write(&spec_path, text).map_err(|e| format!("write spec: {e}"))?;
    let text = std::fs::read_to_string(&spec_path).map_err(|e| format!("read spec: {e}"))?;
    let spec = parse_campaign(&text).map_err(|e| e.to_string())?;
    std::fs::create_dir_all(&results).map_err(|e| format!("stage results: {e}"))?;
    Ok(spec)
}

/// Timings and checks over every campaign of one invocation.
#[derive(Default)]
pub struct Campaigns {
    pub setup_secs: Vec<f64>,
    pub wall_secs: f64,
    pub engine_wall_ms: u64,
    pub cpu_secs: f64,
    pub count: u64,
    pub attempted: u64,
    pub succeeded: u64,
    pub failed: u64,
    pub attempts: u64,
    pub requeues: u64,
    pub job_ms: Vec<u64>,
    pub instructions: u64,
    pub ipcs: Vec<f64>,
    /// Result digest per job argv (the result path aside).
    pub digests: BTreeMap<String, String>,
    pub errors: Vec<String>,
}

/// Check one job's result file against the in-process machine, and its
/// digest against every other job with the same argv.
fn check_job(
    c: &mut Campaigns,
    spec: &CampaignSpec,
    job: &dtsvliw_bench::supervise::JobResult,
    expected: &BTreeMap<&'static str, Expected>,
) -> Result<(), String> {
    if !job.succeeded {
        return Err(format!("job {} failed", job.name));
    }
    let js = spec
        .jobs
        .iter()
        .find(|j| j.id == job.id)
        .ok_or("job missing from spec")?;
    let workload = js.argv[2].as_str();
    let path = js.result.as_ref().ok_or("job declares no result")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", job.name))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", job.name))?;
    let got = Expected {
        cycles: doc.get("cycles").and_then(Json::as_u64).unwrap_or(0),
        instructions: doc.get("instructions").and_then(Json::as_u64).unwrap_or(0),
    };
    if Some(&got) != expected.get(workload) {
        return Err(format!(
            "job {}: result differs from the in-process machine",
            job.name
        ));
    }
    let digest = job
        .result_digest
        .clone()
        .ok_or("job has no result digest")?;
    let key = js.argv[..js.argv.len() - 1].join(" ");
    match c.digests.get(&key) {
        Some(d) if *d != digest => return Err(format!("job {}: digest differs", job.name)),
        Some(_) => {}
        None => {
            c.digests.insert(key, digest);
        }
    }
    c.instructions += got.instructions;
    c.ipcs
        .push(doc.get("ipc").and_then(Json::as_f64).unwrap_or(0.0));
    Ok(())
}

/// Campaigns of `jobs` jobs for `seconds` (at least one). With a
/// recorder, each campaign's set-up, engine run and job attempts become
/// spans.
pub fn run_campaigns(
    work: &Path,
    run_bin: &Path,
    seed: u64,
    jobs: usize,
    seconds: f64,
    mut rec: Option<&mut Recorder>,
) -> Result<Campaigns, String> {
    std::fs::create_dir_all(work).map_err(|e| format!("work dir: {e}"))?;
    let expected = expected_results()?;
    let opts = EngineOptions {
        workers: SLOTS,
        spawn_window: None,
        chaos_seed: None,
        quiet: true,
        remotes: Vec::new(),
        metrics_addr: None,
        status_width: None,
    };
    let mut c = Campaigns::default();
    let mut rounds = Rounds::new(seconds, 1);
    while rounds.next() {
        let trace_id = 1000 + c.count;
        let root = rec.as_deref_mut().map(|r| {
            r.name_trace(trace_id, &format!("campaign {}", c.count));
            r.begin("campaign", trace_id)
        });
        let mut spec = None;
        for _ in 0..SETUPS {
            let span = rec
                .as_deref_mut()
                .map(|r| r.begin("campaign.setup", trace_id));
            let t = Instant::now();
            spec = Some(set_up(work, run_bin, seed, jobs)?);
            c.setup_secs.push(t.elapsed().as_secs_f64());
            if let (Some(r), Some(id)) = (rec.as_deref_mut(), span) {
                r.end(id);
            }
        }
        let spec = spec.expect("at least one set-up");
        let span = rec
            .as_deref_mut()
            .map(|r| r.begin("supervise.run_campaign", trace_id));
        let cpu0 = process_cpu_secs();
        let t = Instant::now();
        let result = run_campaign(&spec, &opts);
        c.wall_secs += t.elapsed().as_secs_f64();
        if let (Some(a), Some(b)) = (cpu0, process_cpu_secs()) {
            c.cpu_secs += b - a;
        }
        if let (Some(r), Some(id)) = (rec.as_deref_mut(), span) {
            let start = r.start_of(id);
            r.end(id);
            record_attempts(r, trace_id, id, start, &result);
        }
        if let (Some(r), Some(id)) = (rec.as_deref_mut(), root) {
            r.end(id);
        }
        c.count += 1;
        c.engine_wall_ms += result.wall_ms;
        for job in &result.jobs {
            c.attempted += 1;
            c.attempts += job.attempts.len() as u64;
            c.requeues += job.requeues;
            c.job_ms.push(job.wall_ms);
            match check_job(&mut c, &spec, job, &expected) {
                Ok(()) => c.succeeded += 1,
                Err(e) => {
                    c.failed += 1;
                    c.errors.push(e);
                }
            }
        }
        std::fs::remove_dir_all(work.join("results")).map_err(|e| format!("clear results: {e}"))?;
        if !c.errors.is_empty() {
            break;
        }
    }
    Ok(c)
}

/// The engine's job-attempt spans (milliseconds since the engine
/// started) as children of the `run_campaign` span.
fn record_attempts(r: &mut Recorder, trace: u64, parent: u64, start_ns: u64, res: &CampaignResult) {
    let mut open: BTreeMap<u64, u64> = BTreeMap::new();
    for s in res.spans.iter().filter(|s| s.kind == SpanKind::JobAttempt) {
        let at = start_ns + s.t_ms * 1_000_000;
        match s.phase {
            SpanPhase::Begin => {
                open.insert(s.id, at);
            }
            SpanPhase::End => {
                if let Some(b) = open.remove(&s.id) {
                    r.record("supervise.job_attempt", trace, parent, b, at);
                }
            }
            _ => {}
        }
    }
}

/// End-to-end metrics of the campaign workload.
pub fn report(c: &Campaigns) -> Report {
    let mut r = Report::new(c.attempted, c.failed, c.errors.clone());
    r.push(Metric::new(
        "sim_mips",
        c.instructions as f64 / c.wall_secs / 1e6,
        "Minstr/s",
    ));
    r.push(Metric::new(
        "ipc_geomean",
        geomean(&c.ipcs).unwrap_or(f64::NAN),
        "instr/cycle",
    ));
    r.push(Metric::new(
        "setup_s",
        mean(&c.setup_secs).unwrap_or(f64::NAN),
        "s",
    ));
    r.push(Metric::new("peak_rss_mb", host_peak_rss_mb(), "MB"));
    r.push(Metric::new("success_ratio", r.success_ratio(), "ratio"));
    r.push(Metric::new(
        "jobs_per_s",
        c.succeeded as f64 / c.wall_secs,
        "1/s",
    ));
    r.push(Metric::new(
        "job_ms_p50",
        percentile_floored_ms(&c.job_ms, 50.0).unwrap_or(f64::NAN),
        "ms",
    ));
    r.push(Metric::new(
        "job_ms_p95",
        percentile_floored_ms(&c.job_ms, 95.0).unwrap_or(f64::NAN),
        "ms",
    ));
    r.note(format!(
        "{} campaigns of {} jobs on {SLOTS} slots: {} jobs ({} job latency samples), {} set-ups",
        c.count,
        JOBS,
        c.attempted,
        c.job_ms.len(),
        c.setup_secs.len()
    ));
    r
}

/// Per-layer metrics of the supervise engine; zero when the workload
/// runs no campaign.
pub fn engine_metrics(c: Option<&Campaigns>, r: &mut Report) {
    let empty = Campaigns::default();
    let c = c.unwrap_or(&empty);
    let jobs = c.attempted.max(1) as f64;
    let busy: u64 = c.job_ms.iter().sum();
    r.push(Metric::new(
        "supervise.engine_cpu_ms_per_job",
        c.cpu_secs * 1e3 / jobs,
        "ms",
    ));
    r.push(Metric::new(
        "supervise.slot_busy_share",
        busy as f64 / (SLOTS as f64 * c.engine_wall_ms.max(1) as f64),
        "ratio",
    ));
    r.push(Metric::new(
        "supervise.attempts_per_job",
        c.attempts as f64 / jobs,
        "count",
    ));
    if c.count > 0 {
        r.note(format!(
            "supervise requeues: {} (not a metric: 0 without chaos)",
            c.requeues
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::fs::PermissionsExt;

    fn write_fixture(dir: &Path, name: &str, e: Expected) {
        let doc = Json::obj([
            ("cycles", Json::U64(e.cycles)),
            ("instructions", Json::U64(e.instructions)),
            ("ipc", Json::F64(e.instructions as f64 / e.cycles as f64)),
        ]);
        std::fs::write(dir.join(format!("{name}.json")), doc.to_string()).unwrap();
    }

    /// A campaign through the real engine with a stand-in simulator that
    /// copies the right result for its workload: every check passes.
    /// When the stand-in gets one workload wrong, the check catches it.
    #[test]
    fn smoke_campaign_with_a_stand_in_simulator() {
        let exe = std::env::current_exe().unwrap();
        let dir = exe
            .parent()
            .unwrap()
            .join(format!("perfbench-smoke-{}", std::process::id()));
        let fixtures = dir.join("fixtures");
        std::fs::create_dir_all(&fixtures).unwrap();
        let expected = expected_results().unwrap();
        for (name, e) in &expected {
            write_fixture(&fixtures, name, *e);
        }
        // argv: --workload W --scale test --config feasible --max N --metrics-json PATH
        let stub = dir.join("sim.sh");
        let script = format!(
            "#!/bin/sh\ncp \"{}/$2.json\" \"${{10}}\"\n",
            fixtures.display()
        );
        std::fs::write(&stub, script).unwrap();
        std::fs::set_permissions(&stub, std::fs::Permissions::from_mode(0o755)).unwrap();

        let work = dir.join("work");
        let c = run_campaigns(&work, &stub, 5, JOBS, 0.0, None).unwrap();
        let r = report(&c);
        assert!(r.correct(), "{:?}", r.errors);
        assert_eq!(
            (c.count, c.attempted, c.succeeded),
            (1, JOBS as u64, JOBS as u64)
        );
        assert_eq!(c.setup_secs.len(), SETUPS);
        assert_eq!(c.digests.len(), WORKLOADS.len());
        assert_eq!(r.metrics.len(), 8);

        let mut wrong = expected["gcc"];
        wrong.cycles += 1;
        write_fixture(&fixtures, "gcc", wrong);
        let c = run_campaigns(&work, &stub, 5, JOBS, 0.0, None).unwrap();
        let r = report(&c);
        assert_eq!(c.failed, (JOBS / WORKLOADS.len()) as u64);
        assert!(r.success_ratio() < 1.0 && !r.correct());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_is_a_seeded_permutation() {
        let mut a = rotation(1);
        assert_eq!(a, rotation(1));
        assert_ne!(a, rotation(2));
        a.sort_unstable();
        let mut all = WORKLOADS.to_vec();
        all.sort_unstable();
        assert_eq!(a, all);
    }
}
