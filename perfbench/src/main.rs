//! The repository benchmark. One command runs one workload:
//!
//! ```sh
//! perfbench --workload replay|churn|campaign --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a separate traced run. The last line of standard output
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! The exit code is 0 only when every check passed. See README.md.

mod campaign;
mod layers;
mod report;
mod rounds;
mod seed;
mod simrun;
mod spans;
mod stats;
mod suite;

use report::Report;
use spans::Recorder;
use suite::{Geometry, PLAN};

/// End-to-end metrics, printed with `--trace 0` on every workload.
const END_TO_END: [&str; 8] = [
    "sim_mips",
    "ipc_geomean",
    "setup_s",
    "peak_rss_mb",
    "success_ratio",
    "jobs_per_s",
    "job_ms_p50",
    "job_ms_p95",
];

/// Per-layer metrics, printed with `--trace 1` on every workload. A
/// layer the workload does not run reads 0 (the supervise engine on
/// `replay` and `churn`).
const PER_LAYER: [&str; 29] = [
    "workloads.compile_ms",
    "primary.oracle_ns_per_instr",
    "primary.oracle_share",
    "sched.ns_per_insert",
    "sched.share",
    "sched.instrs",
    "sched.blocks",
    "sched.slot_utilisation",
    "vliw.decode_ns_per_block",
    "vliw.dispatch_ns_per_li",
    "vliw.cache_hits",
    "vliw.cache_inserts",
    "vliw.cache_evictions",
    "vliw.mispredicts",
    "vliw.cycle_share",
    "mem.ns_per_access",
    "mem.cache_ns_per_access",
    "mem.icache_miss_ratio",
    "mem.dcache_miss_ratio",
    "core.run_ms",
    "core.unattributed_share",
    "core.mode_swaps",
    "core.fast_path_bursts",
    "core.fast_path_chained",
    "core.overhead_cycle_share",
    "trace.overhead_share",
    "supervise.engine_cpu_ms_per_job",
    "supervise.slot_busy_share",
    "supervise.attempts_per_job",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed: bad integer `{v}`"))?,
                );
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds: bad number `{v}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got `{v}`")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["replay", "churn", "campaign"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (replay, churn, campaign)"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args) -> Result<Report, String> {
    let program_seed = seed::program_seed(args.seed);
    let mut r = match (args.workload.as_str(), args.trace) {
        ("campaign", false) => {
            let work = work_dir();
            let c = campaign::run_campaigns(
                &work,
                &run_bin()?,
                args.seed,
                campaign::JOBS,
                args.seconds,
                None,
            );
            let _ = std::fs::remove_dir_all(&work);
            campaign::report(&c?)
        }
        ("campaign", true) => traced_campaign(args)?,
        (w, false) => {
            let progs = suite::programs(dtsvliw_workloads::Scale::Small, program_seed)?;
            simrun::measure(&progs, geometry(w), PLAN, args.seconds)
        }
        (w, true) => traced_suite(args, geometry(w), program_seed)?,
    };
    r.note(format!(
        "benchmark seed {} -> program seed {program_seed}",
        args.seed
    ));
    r.select(if args.trace { &PER_LAYER } else { &END_TO_END });
    Ok(r)
}

/// Where an invocation writes its scratch files and trace: beside the
/// executable, inside the build directory.
fn out_dir() -> std::path::PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(std::path::Path::to_path_buf))
        .unwrap_or_else(|| ".".into())
}

/// Scratch directory for this invocation's campaign files.
fn work_dir() -> std::path::PathBuf {
    out_dir().join(format!("perfbench-work-{}", std::process::id()))
}

/// The `dtsvliw_run` the campaign spawns: the one built beside this
/// executable.
fn run_bin() -> Result<std::path::PathBuf, String> {
    let bin = dtsvliw_bench::supervise::resolve_program("dtsvliw_run");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "{} not found: build it with `cargo build --release -p dtsvliw-bench --bin \
             dtsvliw_run` into this executable's target directory",
            bin.display()
        ))
    }
}

fn geometry(workload: &str) -> Geometry {
    if workload == "churn" {
        Geometry::Churn
    } else {
        Geometry::Feasible
    }
}

/// Traced run of `replay` or `churn`: every layer of the simulator on
/// the workload's own programs and machine.
fn traced_suite(args: &Args, geometry: Geometry, program_seed: u32) -> Result<Report, String> {
    let progs = suite::programs(dtsvliw_workloads::Scale::Small, program_seed)?;
    let mut rec = Recorder::default();
    let t = layers::trace_suite(
        &mut rec,
        &progs,
        &geometry.config(),
        PLAN.budget,
        args.seconds,
    );
    let mut r = Report::new(t.attempted, t.errors.len() as u64, t.errors.clone());
    layers::layer_metrics(&t, &mut r);
    campaign::engine_metrics(None, &mut r);
    finish_trace(args, &rec, &mut r)?;
    Ok(r)
}

/// Traced run of `campaign`: the supervise engine over traced
/// campaigns, then the simulator layers on the jobs' own programs.
fn traced_campaign(args: &Args) -> Result<Report, String> {
    let mut rec = Recorder::default();
    let work = work_dir();
    let c = campaign::run_campaigns(
        &work,
        &run_bin()?,
        args.seed,
        campaign::JOBS,
        args.seconds * 0.7,
        Some(&mut rec),
    );
    let _ = std::fs::remove_dir_all(&work);
    let c = c?;
    let progs = suite::programs(dtsvliw_workloads::Scale::Test, seed::DEFAULT_PROGRAM_SEED)?;
    let cfg = dtsvliw_core::MachineConfig::feasible_paper();
    let t = layers::trace_suite(
        &mut rec,
        &progs,
        &cfg,
        campaign::JOB_BUDGET,
        args.seconds * 0.3,
    );
    let mut errors = c.errors.clone();
    errors.extend(t.errors.iter().cloned());
    let mut r = Report::new(
        c.attempted + t.attempted,
        c.failed + t.errors.len() as u64,
        errors,
    );
    layers::layer_metrics(&t, &mut r);
    campaign::engine_metrics(Some(&c), &mut r);
    finish_trace(args, &rec, &mut r)?;
    Ok(r)
}

/// Validate the trace as a Perfetto document, write it beside the
/// executable, and report self time per span name.
fn finish_trace(args: &Args, rec: &Recorder, r: &mut Report) -> Result<(), String> {
    let doc = rec.to_chrome_json();
    let events = dtsvliw_trace::validate_perfetto(&doc).map_err(|e| format!("trace: {e}"))?;
    for (name, ns) in spans::self_time_by_name(rec.spans()) {
        r.note(format!("self time {name:<28} {:>10.1} ms", ns as f64 / 1e6));
    }
    let path = out_dir().join(format!("perfbench-trace-{}.json", args.workload));
    std::fs::write(&path, doc.to_string()).map_err(|e| format!("write trace: {e}"))?;
    r.note(format!(
        "trace: {events} events, valid Perfetto, written to {}",
        path.display()
    ));
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            let title = format!(
                "{} (seed {}, {} s, trace {})",
                args.workload, args.seed, args.seconds, args.trace as u8
            );
            report.print(&title);
            if !report.correct() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
