//! The eight workload programs as the benchmark runs them: seeded
//! sources, the machine each workload simulates, and the correctness
//! checks every simulated run must pass.

use crate::seed;
use dtsvliw_asm::Image;
use dtsvliw_bench::supervise::fnv1a;
use dtsvliw_core::{Machine, MachineConfig, RunOutcome};
use dtsvliw_isa::ArchState;
use dtsvliw_json::ToJson;
use dtsvliw_mem::Memory;
use dtsvliw_primary::RefMachine;
use dtsvliw_workloads::{all, Scale};

/// How far each program runs and how finely its run is timed.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Sequential-instruction budget of one program run.
    pub budget: u64,
    /// A run is timed in slices of this many instructions; each slice
    /// is one sample of the per-job latency metrics.
    pub slice: u64,
}

/// The simulated workloads' plan: 1M instructions per program, timed
/// in 25k-instruction slices (320 slice positions per pass, enough for
/// a p95 with 10 samples beyond it).
pub const PLAN: Plan = Plan {
    budget: 1_000_000,
    slice: 25_000,
};

/// The machine a simulated workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Geometry {
    /// The paper's feasible machine (§4.4): blocks install once and
    /// replay from a 192-Kbyte 4-way VLIW Cache.
    Feasible,
    /// The widest Fig 5 geometry (16x16) with the smallest Fig 6 VLIW
    /// Cache (48 Kbyte), direct-mapped as in Fig 7: blocks are evicted
    /// almost as fast as they are installed.
    Churn,
}

impl Geometry {
    pub fn config(self) -> MachineConfig {
        match self {
            Geometry::Feasible => MachineConfig::feasible_paper(),
            Geometry::Churn => MachineConfig::ideal_with_vliw_cache(16, 16, 48, 1),
        }
    }
}

/// One workload program with its inputs fixed by the seed.
pub struct Program {
    pub name: &'static str,
    pub source: String,
    pub expected_exit: Option<u32>,
}

impl Program {
    pub fn compile(&self) -> Result<Image, String> {
        dtsvliw_minicc::compile_to_image(&self.source)
            .map_err(|e| format!("{} does not compile: {e}", self.name))
    }
}

/// The eight programs at `scale`, inputs drawn from `program_seed`.
pub fn programs(scale: Scale, program_seed: u32) -> Result<Vec<Program>, String> {
    all(scale)
        .into_iter()
        .map(|w| {
            Ok(Program {
                name: w.name,
                source: seed::with_seed(&w.source, program_seed)
                    .map_err(|e| format!("{}: {e}", w.name))?,
                expected_exit: w.expected_exit,
            })
        })
        .collect()
}

/// What one finished run looked like, for comparing repeats.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    pub stats_json: String,
    pub output: String,
    /// Final architectural state: pc, npc, window pointer, registers,
    /// condition codes.
    pub state: ArchState,
    /// [`memory_digest`] of the final memory.
    pub memory: u64,
    pub instructions: u64,
    pub ipc: f64,
}

/// Digest of a memory's canonical snapshot (all-zero pages count as
/// absent), so two memories with the same contents digest alike.
pub fn memory_digest(mem: &Memory) -> u64 {
    fnv1a(mem.snapshot_json().to_string().as_bytes())
}

/// Check a finished run against the sequential reference machine and
/// on its own (see [`record_run`]).
pub fn check_run(
    prog: &Program,
    image: &Image,
    machine: &Machine,
    outcome: &RunOutcome,
    budget: u64,
) -> Result<RunRecord, String> {
    let rec = record_run(prog, machine, outcome, budget)?;
    check_reference(prog, image, &rec)?;
    Ok(rec)
}

/// Check a finished run on its own: it must exit with the expected code
/// or reach its budget, and its cycle attribution must be exact.
pub fn record_run(
    prog: &Program,
    machine: &Machine,
    outcome: &RunOutcome,
    budget: u64,
) -> Result<RunRecord, String> {
    match outcome.exit_code {
        Some(code) if Some(code) != prog.expected_exit => {
            return Err(format!("{}: exit code {code}", prog.name));
        }
        None if outcome.instructions < budget => {
            return Err(format!(
                "{}: stopped at {} of {budget} instructions",
                prog.name, outcome.instructions
            ));
        }
        _ => {}
    }
    let stats = machine.stats();
    if stats.attributed_cycles() != stats.cycles {
        return Err(format!("{}: attributed cycles != cycles", prog.name));
    }
    if stats.overhead_breakdown_sum() != stats.overhead_cycles {
        return Err(format!("{}: overhead breakdown != overhead", prog.name));
    }
    Ok(RunRecord {
        stats_json: stats.to_json().to_string(),
        output: machine.output_string(),
        state: machine.state().clone(),
        memory: memory_digest(machine.memory()),
        instructions: outcome.instructions,
        ipc: stats.ipc(),
    })
}

/// The run's final architectural state, memory and console output must
/// equal the sequential reference machine's after the same instruction
/// count. (The workload programs print nothing, so the state and memory
/// are what catch a wrong result.)
pub fn check_reference(prog: &Program, image: &Image, rec: &RunRecord) -> Result<(), String> {
    let mut reference = RefMachine::new(image);
    reference
        .run(rec.instructions)
        .map_err(|e| format!("{}: reference machine: {e}", prog.name))?;
    if rec.state != reference.state {
        return Err(format!(
            "{}: architectural state differs from the reference (pc {:#x} vs {:#x})",
            prog.name, rec.state.pc, reference.state.pc
        ));
    }
    if rec.memory != memory_digest(&reference.mem) {
        return Err(format!("{}: memory differs from the reference", prog.name));
    }
    if rec.output != reference.output_string() {
        return Err(format!("{}: output differs from the reference", prog.name));
    }
    Ok(())
}

/// Run `machine` to the plan's budget one slice at a time, timing each
/// slice. Stops early when the program exits.
pub fn run_sliced(
    machine: &mut Machine,
    plan: Plan,
    slice_secs: &mut Vec<f64>,
) -> Result<RunOutcome, String> {
    let mut target = 0;
    loop {
        target = (target + plan.slice).min(plan.budget);
        let t = std::time::Instant::now();
        let out = machine.run(target).map_err(|e| e.to_string())?;
        slice_secs.push(t.elapsed().as_secs_f64());
        if out.exit_code.is_some() || target >= plan.budget {
            return Ok(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stopping `Machine::run` at slice boundaries and continuing gives
    /// the same run as one call.
    #[test]
    fn slicing_does_not_perturb_the_run() {
        let progs = programs(Scale::Test, crate::seed::DEFAULT_PROGRAM_SEED).unwrap();
        for prog in progs.iter().filter(|p| ["gcc", "xlisp"].contains(&p.name)) {
            let img = prog.compile().unwrap();
            let cfg = Geometry::Churn.config();
            let mut whole = Machine::new(cfg.clone(), &img);
            let a = whole.run(60_000).unwrap();
            let mut sliced = Machine::new(cfg, &img);
            let mut secs = Vec::new();
            let plan = Plan {
                budget: 60_000,
                slice: 7_000,
            };
            let b = run_sliced(&mut sliced, plan, &mut secs).unwrap();
            assert_eq!(a, b, "{}", prog.name);
            assert_eq!(
                whole.stats().to_json().to_string(),
                sliced.stats().to_json().to_string(),
                "{}",
                prog.name
            );
            assert!(secs.len() >= 2, "{}", prog.name);
            let rec = check_run(prog, &img, &sliced, &b, plan.budget).unwrap();
            assert!(rec.ipc > 0.0);
        }
    }

    /// The reference check rejects a record whose final state, memory
    /// or output differs from the reference machine's.
    #[test]
    fn a_mismatched_record_is_rejected() {
        let progs = programs(Scale::Test, crate::seed::DEFAULT_PROGRAM_SEED).unwrap();
        let prog = &progs[0];
        let img = prog.compile().unwrap();
        let mut m = Machine::new(Geometry::Feasible.config(), &img);
        let out = m.run(30_000).unwrap();
        let good = record_run(prog, &m, &out, 30_000).unwrap();
        check_reference(prog, &img, &good).unwrap();

        let mut bad = good.clone();
        bad.state.int[9] ^= 1;
        let e = check_reference(prog, &img, &bad).unwrap_err();
        assert!(e.contains("architectural state"), "{e}");
        let mut bad = good.clone();
        bad.state.pc += 4;
        assert!(check_reference(prog, &img, &bad).is_err());
        let mut bad = good.clone();
        bad.memory ^= 1;
        let e = check_reference(prog, &img, &bad).unwrap_err();
        assert!(e.contains("memory"), "{e}");
        let mut bad = good.clone();
        bad.output.push('x');
        let e = check_reference(prog, &img, &bad).unwrap_err();
        assert!(e.contains("output"), "{e}");
        // One instruction short of the run: the reference stops in
        // another state.
        let mut bad = good;
        bad.instructions -= 1;
        assert!(check_reference(prog, &img, &bad).is_err());
    }

    /// Equal contents digest alike, whatever pages were touched; any
    /// changed byte changes the digest.
    #[test]
    fn memory_digest_follows_contents() {
        let mut a = Memory::new();
        let mut b = Memory::new();
        a.write_u32(0x1000, 7);
        b.write_u32(0x1000, 7);
        b.write_u32(0x9000, 0);
        assert_eq!(memory_digest(&a), memory_digest(&b));
        b.write_u8(0x9003, 1);
        assert_ne!(memory_digest(&a), memory_digest(&b));
    }
}
