//! End-to-end measurement of the simulated workloads (`replay`,
//! `churn`): the eight programs run one after another on one thread,
//! each on a freshly built machine (caches cold), pass after pass until
//! the time is up.

use crate::report::{host_peak_rss_mb, Metric, Report};
use crate::rounds::Rounds;
use crate::stats::{geomean, mean, percentile};
use crate::suite::{check_reference, record_run, run_sliced, Geometry, Plan, Program, RunRecord};
use dtsvliw_asm::Image;
use dtsvliw_core::{Machine, MachineConfig};
use std::collections::BTreeMap;
use std::time::Instant;

/// Timings and checks of the timed passes.
#[derive(Default)]
pub struct Passes {
    pub passes: u64,
    /// Seconds of one set-up: compile the eight images and build the
    /// eight machines.
    pub setup_secs: Vec<f64>,
    /// Seconds of every timed `Machine::run` slice.
    pub slice_secs: Vec<f64>,
    /// Seconds summed per slice position (program, slice index) over
    /// passes, with the number of passes that reached it.
    pub by_position: BTreeMap<(usize, usize), (f64, u32)>,
    /// Sequential instructions retired in the timed runs.
    pub instructions: u64,
    /// Program runs attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// The first pass's record of each program (later passes must
    /// repeat it exactly).
    pub first: Vec<Option<RunRecord>>,
    pub errors: Vec<String>,
}

impl Passes {
    pub fn run_secs(&self) -> f64 {
        self.slice_secs.iter().sum()
    }
}

/// Timed set-ups per pass; the last one's machines are run. One takes
/// 10–15 ms and follows the host's fast and slow spells, so a run
/// reports the mean over many.
const SETUPS_PER_PASS: usize = 10;

/// Compile the eight images and build a machine for each.
fn set_up(progs: &[Program], cfg: &MachineConfig) -> Result<(Vec<Image>, Vec<Machine>), String> {
    let images = progs
        .iter()
        .map(Program::compile)
        .collect::<Result<Vec<_>, _>>()?;
    let machines = images
        .iter()
        .map(|img| Machine::new(cfg.clone(), img))
        .collect();
    Ok((images, machines))
}

/// One pass: set up all eight machines (timed), then run each to the
/// budget (timed per slice), then check each run (untimed). The first
/// pass checks each run against the reference machine; later passes
/// must repeat the first exactly.
pub fn one_pass(progs: &[Program], geometry: Geometry, plan: Plan, acc: &mut Passes) {
    acc.passes += 1;
    let cfg = geometry.config();
    let mut built = None;
    for _ in 0..SETUPS_PER_PASS {
        let t = Instant::now();
        built = Some(set_up(progs, &cfg));
        acc.setup_secs.push(t.elapsed().as_secs_f64());
    }
    let (images, mut machines) = match built.expect("at least one set-up") {
        Ok(b) => b,
        Err(e) => {
            acc.attempted += progs.len() as u64;
            acc.failed += progs.len() as u64;
            acc.errors.push(e);
            return;
        }
    };
    if acc.first.is_empty() {
        acc.first = vec![None; progs.len()];
    }

    for (i, (prog, machine)) in progs.iter().zip(machines.iter_mut()).enumerate() {
        acc.attempted += 1;
        let first_slice = acc.slice_secs.len();
        let checked = run_sliced(machine, plan, &mut acc.slice_secs)
            .map_err(|e| format!("{}: {e}", prog.name))
            .and_then(|out| {
                acc.instructions += out.instructions;
                record_run(prog, machine, &out, plan.budget)
            })
            .and_then(|rec| match &acc.first[i] {
                None => {
                    check_reference(prog, &images[i], &rec)?;
                    acc.first[i] = Some(rec);
                    Ok(())
                }
                Some(first) if *first == rec => Ok(()),
                Some(_) => Err(format!(
                    "{}: a repeat run gave different results",
                    prog.name
                )),
            });
        for (j, &t) in acc.slice_secs[first_slice..].iter().enumerate() {
            let p = acc.by_position.entry((i, j)).or_default();
            p.0 += t;
            p.1 += 1;
        }
        if let Err(e) = checked {
            acc.failed += 1;
            acc.errors.push(e);
        }
    }
}

/// Run passes for `seconds` (at least two, so repeats are compared)
/// and report the end-to-end metrics.
pub fn measure(progs: &[Program], geometry: Geometry, plan: Plan, seconds: f64) -> Report {
    let mut acc = Passes::default();
    let mut rounds = Rounds::new(seconds, 2);
    while rounds.next() {
        one_pass(progs, geometry, plan, &mut acc);
        if !acc.errors.is_empty() {
            break;
        }
    }
    report(&acc, plan)
}

pub fn report(acc: &Passes, plan: Plan) -> Report {
    let run_secs = acc.run_secs();
    let ipcs: Vec<f64> = acc.first.iter().flatten().map(|r| r.ipc).collect();
    // Latency of a slice position is its mean over passes: the host's
    // speed drifts between passes, and a percentile over single slices
    // would jump between its fast and slow spells.
    let slice_ms: Vec<f64> = acc
        .by_position
        .values()
        .map(|&(secs, n)| secs / n as f64 * 1e3)
        .collect();
    let mut r = Report::new(acc.attempted, acc.failed, acc.errors.clone());
    r.push(Metric::new(
        "sim_mips",
        acc.instructions as f64 / run_secs / 1e6,
        "Minstr/s",
    ));
    r.push(Metric::new(
        "ipc_geomean",
        geomean(&ipcs).unwrap_or(f64::NAN),
        "instr/cycle",
    ));
    r.push(Metric::new(
        "setup_s",
        mean(&acc.setup_secs).unwrap_or(f64::NAN),
        "s",
    ));
    r.push(Metric::new("peak_rss_mb", host_peak_rss_mb(), "MB"));
    r.push(Metric::new("success_ratio", r.success_ratio(), "ratio"));
    r.push(Metric::new(
        "jobs_per_s",
        acc.slice_secs.len() as f64 / run_secs,
        "1/s",
    ));
    r.push(Metric::new(
        "job_ms_p50",
        percentile(&slice_ms, 50.0).unwrap_or(f64::NAN),
        "ms",
    ));
    r.push(Metric::new(
        "job_ms_p95",
        percentile(&slice_ms, 95.0).unwrap_or(f64::NAN),
        "ms",
    ));
    r.note(format!(
        "{} passes, {} runs, {} timed slices of {} instructions, {} slice positions \
         (job latency samples, each a mean over passes), {} set-ups",
        acc.passes,
        acc.attempted,
        acc.slice_secs.len(),
        plan.slice,
        slice_ms.len(),
        acc.setup_secs.len()
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::programs;
    use dtsvliw_workloads::Scale;

    /// A tiny run of each simulated workload, under a fixed seed and
    /// under a held-out benchmark seed: every end-to-end metric is
    /// measured and finite, and every check passes.
    #[test]
    fn smoke_replay_and_churn() {
        let plan = Plan {
            budget: 20_000,
            slice: 50,
        };
        for seed in [777, crate::seed::program_seed(4242)] {
            let progs = programs(Scale::Test, seed).unwrap();
            for g in [Geometry::Feasible, Geometry::Churn] {
                let r = measure(&progs, g, plan, 0.001);
                assert!(r.correct(), "{g:?} seed {seed}: {:?}", r.errors);
                assert_eq!(r.metrics.len(), 8);
                assert_eq!(r.success_ratio(), 1.0);
                assert_eq!(r.attempted, 16, "two passes of eight programs");
            }
        }
    }
}
