//! The traced run of a simulated workload: host time per layer, taken
//! from outside by wrapping calls into each crate's public functions in
//! spans, and replayed on the workload's own traffic (the retired trace
//! captured with `RefMachine::step`, its effective addresses, and the
//! blocks the Scheduler Unit seals from it).
//!
//! Where the machine's count of a layer's calls is known, the per-call
//! cost times that count estimates the layer's share of `Machine::run`;
//! what no estimate covers is `core.unattributed_share`.

use crate::report::{Metric, Report};
use crate::rounds::Rounds;
use crate::spans::Recorder;
use crate::suite::{check_run, Program};
use dtsvliw_asm::Image;
use dtsvliw_core::{Machine, MachineConfig, RunStats};
use dtsvliw_isa::insn::Instr;
use dtsvliw_isa::{ArchState, DynInstr};
use dtsvliw_json::ToJson;
use dtsvliw_mem::{Cache, Memory};
use dtsvliw_primary::{PipelineModel, RefMachine};
use dtsvliw_sched::{Block, InsertOutcome, Scheduler};
use dtsvliw_vliw::{decode_block, LiResult, VliwEngine};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Retired instructions captured per program for the replayed layers
/// (scheduler, decode, memory, cache). The machine's scheduler sees
/// mostly the first, cold part of a run, so a prefix is representative.
pub const CAPTURE_PREFIX: u64 = 250_000;
/// Hottest distinct block tags replayed through the VLIW Engine.
const HOT_BLOCKS: usize = 8;
/// Long instructions dispatched per program in the dispatch replay.
const DISPATCH_LIS: u64 = 200_000;

/// One retired instruction as the Scheduler Unit receives it.
struct Retired {
    d: DynInstr,
    window_trap: bool,
    resident_before: u8,
    /// Machine cycles the Primary Processor spends on it (pipeline plus
    /// cache misses): the scheduler ticks once per cycle.
    cycles: u64,
}

/// Host time and work per layer, summed over every traced program run.
#[derive(Default)]
pub struct Totals {
    pub suites: u64,
    pub compile_ns: u64,
    pub run_ns: u64,
    pub run_instr: u64,
    pub untraced_run_ns: u64,
    pub untraced_instr: u64,
    pub oracle_ns: u64,
    pub oracle_instr: u64,
    pub sched_ns: u64,
    pub sched_calls: u64,
    pub decode_ns: u64,
    pub decode_blocks: u64,
    pub dispatch_ns: u64,
    pub dispatch_lis: u64,
    pub mem_ns: u64,
    pub mem_accesses: u64,
    pub cache_ns: u64,
    pub cache_accesses: u64,
    /// The per-call costs above, scaled by the machine's own call
    /// counts: estimated ns of `Machine::run` spent in each layer.
    pub est_ns: BTreeMap<&'static str, f64>,
    /// Machine statistics of one suite pass (identical every pass).
    pub stats: Vec<RunStats>,
    pub bursts: u64,
    pub chained: u64,
    pub errors: Vec<String>,
    pub attempted: u64,
}

impl Totals {
    fn estimate(&mut self, layer: &'static str, ns: f64) {
        *self.est_ns.entry(layer).or_insert(0.0) += ns;
    }
}

fn ns_per(ns: u64, n: u64) -> f64 {
    ns as f64 / n.max(1) as f64
}

/// Capture the first `limit` retired instructions with the cycle count
/// the Primary Processor would charge each.
fn capture(image: &Image, cfg: &MachineConfig, limit: u64) -> Result<Vec<Retired>, String> {
    let mut oracle = RefMachine::new(image);
    let mut pipeline = PipelineModel::new(cfg.primary);
    let mut icache = Cache::new(cfg.icache);
    let mut dcache = Cache::new(cfg.dcache);
    let mut out = Vec::with_capacity(limit as usize);
    while (out.len() as u64) < limit {
        let pc = oracle.state.pc;
        let resident_before = oracle.state.resident;
        let step = oracle.step().map_err(|e| e.to_string())?;
        let d = step.dyn_instr;
        let mut cycles = pipeline.cycles_for(&d, step.window_trap);
        cycles += icache.access_cost(pc) as u64;
        if let Some(a) = d.eff_addr {
            cycles += dcache.access_cost(a) as u64;
        }
        out.push(Retired {
            d,
            window_trap: step.window_trap,
            resident_before,
            cycles,
        });
        if step.halt.is_some() {
            break;
        }
    }
    Ok(out)
}

/// Feed the trace to a Scheduler Unit exactly as the machine's Primary
/// Processor does (same rejection rules, one tick per machine cycle).
/// Returns the sealed blocks and the number of `insert` calls.
fn schedule(trace: &[Retired], cfg: &MachineConfig) -> (Vec<Block>, u64) {
    let mut sched = Scheduler::new(cfg.sched.clone());
    let mut blocks = Vec::new();
    let mut inserts = 0;
    let mut reject_delay_slot = false;
    for r in trace {
        let d = &r.d;
        let live_delay_cti = d.instr.is_cti() && !d.delay_is_nop;
        if d.instr.is_non_schedulable() || r.window_trap || live_delay_cti || reject_delay_slot {
            blocks.extend(sched.seal(d.pc, d.seq));
        } else {
            for _ in 0..r.cycles {
                sched.tick();
            }
            if let InsertOutcome::Inserted(Some(b)) = sched.insert(d, r.resident_before) {
                blocks.push(b);
            }
            inserts += 1;
        }
        reject_delay_slot = live_delay_cti;
    }
    (blocks, inserts)
}

/// The most frequently sealed block tags, with the architectural state
/// and memory at the entry of the first sealed instance of each.
fn hot_entries(blocks: &[Block], image: &Image) -> Vec<(Block, ArchState, Memory)> {
    let mut count: BTreeMap<u32, (u64, usize)> = BTreeMap::new();
    for (i, b) in blocks.iter().enumerate() {
        count.entry(b.tag_addr).or_insert((0, i)).0 += 1;
    }
    let mut hot: Vec<(u64, usize)> = count.values().copied().collect();
    hot.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut chosen: Vec<&Block> = hot
        .iter()
        .take(HOT_BLOCKS)
        .map(|&(_, i)| &blocks[i])
        .collect();
    chosen.sort_by_key(|b| b.first_seq);
    let mut oracle = RefMachine::new(image);
    let mut out = Vec::new();
    for b in chosen {
        while oracle.retired < b.first_seq {
            if oracle.step().is_err() {
                return out;
            }
        }
        let s = &oracle.state;
        let window_ok = !b.window_sensitive || s.resident == b.entry_resident;
        if s.pc == b.tag_addr && s.cwp == b.entry_cwp && window_ok {
            out.push((b.clone(), oracle.state.clone(), oracle.mem.clone()));
        }
    }
    out
}

/// Enter each hot block from its real entry state, dispatch its long
/// instructions when `execute`, and roll back (the technique of
/// `benches/decoded_dispatch.rs`). Makes `rounds` passes over the
/// blocks, or as many as [`DISPATCH_LIS`] long instructions take.
/// Returns (passes, long instructions executed).
fn dispatch(
    entries: &mut [(Block, ArchState, Memory)],
    execute: bool,
    rounds: Option<u64>,
) -> (u64, u64) {
    let decoded: Vec<_> = entries.iter().map(|(b, ..)| decode_block(b)).collect();
    let mut engine = VliwEngine::new();
    let mut state = ArchState::new(0);
    let mut dcache = Vec::new();
    let (mut done, mut lis) = (0u64, 0u64);
    while !entries.is_empty() && rounds.map_or(lis < DISPATCH_LIS, |r| done < r) {
        for ((block, entry, mem), dec) in entries.iter_mut().zip(&decoded) {
            state.clone_from(entry);
            engine.begin_block(block, &state);
            let mut li = 0;
            let rolled_back = execute
                && loop {
                    lis += 1;
                    let Ok(out) = engine.exec_li_decoded(dec, li, &mut state, mem, &mut dcache)
                    else {
                        break false;
                    };
                    match out.result {
                        LiResult::Next => li += 1,
                        LiResult::Exception { .. } => break true,
                        _ => break false,
                    }
                };
            if !rolled_back && engine.rollback(&mut state, mem).is_err() {
                return (done, lis);
            }
        }
        done += 1;
    }
    (done, lis)
}

/// Loads and stores of the trace: (address, size, is_store).
fn data_stream(trace: &[Retired]) -> Vec<(u32, u8, bool)> {
    trace
        .iter()
        .filter_map(|r| match (r.d.instr, r.d.eff_addr) {
            (Instr::Mem { op, .. }, Some(a)) => Some((a, op.size(), op.is_store())),
            _ => None,
        })
        .collect()
}

/// Trace one program: every layer, each inside its own span, on the
/// program's own traffic. `traced_first` alternates whether the traced
/// or the untraced `Machine::run` goes first, so host drift cancels.
fn trace_program(
    rec: &mut Recorder,
    trace_id: u64,
    prog: &Program,
    cfg: &MachineConfig,
    budget: u64,
    traced_first: bool,
    t: &mut Totals,
) -> Result<(), String> {
    let untraced = || -> Result<(RunStats, u64, u64), String> {
        let image = prog.compile()?;
        let mut m = Machine::new(cfg.clone(), &image);
        let start = Instant::now();
        let out = m.run(budget).map_err(|e| e.to_string())?;
        Ok((
            m.stats(),
            start.elapsed().as_nanos() as u64,
            out.instructions,
        ))
    };
    let plain_first = if traced_first {
        None
    } else {
        Some(untraced()?)
    };

    let root = rec.begin(&format!("program:{}", prog.name), trace_id);
    let (image, ns) = rec.time("workloads.compile", trace_id, || prog.compile());
    let image = image?;
    t.compile_ns += ns;

    let mut machine = Machine::new(cfg.clone(), &image);
    let (out, run_ns) = rec.time("core.run", trace_id, || machine.run(budget));
    let out = out.map_err(|e| format!("{}: {e}", prog.name))?;
    check_run(prog, &image, &machine, &out, budget)?;
    let stats = machine.stats();
    t.run_ns += run_ns;
    t.run_instr += out.instructions;
    let (bursts, chained) = machine.fast_path_stats();
    t.bursts += bursts;
    t.chained += chained;

    let mut oracle = RefMachine::new(&image);
    let (res, ns) = rec.time("primary.oracle", trace_id, || oracle.run(out.instructions));
    res.map_err(|e| e.to_string())?;
    t.oracle_ns += ns;
    t.oracle_instr += oracle.retired;

    let (trace, _) = rec.time("primary.capture", trace_id, || {
        capture(&image, cfg, CAPTURE_PREFIX.min(out.instructions))
    });
    let trace = trace?;

    let ((blocks, inserts), ns) = rec.time("sched.schedule", trace_id, || schedule(&trace, cfg));
    t.sched_ns += ns;
    t.sched_calls += inserts;
    let machine_inserts = stats.sched.instrs + stats.sched.ignored;
    t.estimate("sched", ns_per(ns, inserts) * machine_inserts as f64);

    let (_, ns) = rec.time("vliw.decode", trace_id, || {
        for b in &blocks {
            black_box(decode_block(b));
        }
    });
    let n = blocks.len() as u64;
    t.decode_ns += ns;
    t.decode_blocks += n;
    t.estimate("decode", ns_per(ns, n) * stats.vliw_cache.inserts as f64);

    let (mut entries, _) = rec.time("vliw.entry_states", trace_id, || {
        hot_entries(&blocks, &image)
    });
    let ((rounds, lis), ns) = rec.time("vliw.dispatch", trace_id, || {
        dispatch(&mut entries, true, None)
    });
    // The same block entries and rollbacks without dispatch: what is
    // left is `exec_li_decoded` alone.
    let (_, entry_ns) = rec.time("vliw.block_entry", trace_id, || {
        dispatch(&mut entries, false, Some(rounds))
    });
    let ns = ns.saturating_sub(entry_ns);
    t.dispatch_ns += ns;
    t.dispatch_lis += lis;
    t.estimate("dispatch", ns_per(ns, lis) * stats.engine.lis as f64);

    let stream = data_stream(&trace);
    let mut mem = Memory::new();
    image.load_into(&mut mem);
    let (_, ns) = rec.time("mem.memory", trace_id, || {
        let mut acc = 0u32;
        for &(a, size, store) in &stream {
            if store {
                mem.write(a, size, a);
            } else {
                acc ^= mem.read(a, size);
            }
        }
        black_box(acc)
    });
    t.mem_ns += ns;
    t.mem_accesses += stream.len() as u64;
    // The Primary Processor fetches every instruction it runs and makes
    // its data accesses; VLIW-mode accesses are inside dispatch and the
    // oracle's are inside the oracle.
    let data_per_instr = stream.len() as f64 / trace.len().max(1) as f64;
    let primary_accesses = machine_inserts as f64 * (1.0 + data_per_instr);
    t.estimate("mem", ns_per(ns, stream.len() as u64) * primary_accesses);

    let mut cache = Cache::new(cfg.dcache);
    let (_, ns) = rec.time("mem.cache", trace_id, || {
        let hits = stream.iter().filter(|&&(a, ..)| cache.access(a)).count();
        black_box(hits)
    });
    t.cache_ns += ns;
    t.cache_accesses += stream.len() as u64;
    let machine_cache = stats.icache.accesses() + stats.dcache.accesses();
    t.estimate(
        "cache",
        ns_per(ns, stream.len() as u64) * machine_cache as f64,
    );
    rec.end(root);

    let plain = match plain_first {
        Some(p) => p,
        None => untraced()?,
    };
    if plain.0.to_json().to_string() != stats.to_json().to_string() {
        return Err(format!("{}: traced and untraced runs differ", prog.name));
    }
    t.untraced_run_ns += plain.1;
    t.untraced_instr += plain.2;
    if t.suites == 0 {
        t.stats.push(stats);
    }
    Ok(())
}

/// Traced passes over the suite for `seconds` (at least one).
pub fn trace_suite(
    rec: &mut Recorder,
    progs: &[Program],
    cfg: &MachineConfig,
    budget: u64,
    seconds: f64,
) -> Totals {
    let mut t = Totals::default();
    for (i, p) in progs.iter().enumerate() {
        rec.name_trace(i as u64 + 1, p.name);
    }
    let mut rounds = Rounds::new(seconds, 1);
    while rounds.next() {
        for (i, p) in progs.iter().enumerate() {
            let first = t.suites % 2 == 0;
            if let Err(e) = trace_program(rec, i as u64 + 1, p, cfg, budget, first, &mut t) {
                t.errors.push(e);
            }
            t.attempted += 1;
        }
        t.suites += 1;
        if !t.errors.is_empty() {
            break;
        }
    }
    t
}

/// The per-layer metrics of a traced suite.
pub fn layer_metrics(t: &Totals, r: &mut Report) {
    let suites = t.suites.max(1) as f64;
    let sum = |f: &dyn Fn(&RunStats) -> u64| t.stats.iter().map(f).sum::<u64>();
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let run_ns = t.run_ns as f64;
    let share = |layer: &str| t.est_ns.get(layer).copied().unwrap_or(0.0) / run_ns;

    r.push(Metric::new(
        "workloads.compile_ms",
        t.compile_ns as f64 / suites / 1e6,
        "ms",
    ));
    r.push(Metric::new(
        "primary.oracle_ns_per_instr",
        ns_per(t.oracle_ns, t.oracle_instr),
        "ns",
    ));
    r.push(Metric::new(
        "primary.oracle_share",
        t.oracle_ns as f64 / run_ns,
        "ratio",
    ));
    r.push(Metric::new(
        "sched.ns_per_insert",
        ns_per(t.sched_ns, t.sched_calls),
        "ns",
    ));
    r.push(Metric::new("sched.share", share("sched"), "ratio"));
    r.push(Metric::new(
        "sched.instrs",
        sum(&|s| s.sched.instrs) as f64,
        "count",
    ));
    r.push(Metric::new(
        "sched.blocks",
        sum(&|s| s.sched.blocks) as f64,
        "count",
    ));
    r.push(Metric::new(
        "sched.slot_utilisation",
        ratio(
            sum(&|s| s.sched.slots_filled),
            sum(&|s| s.sched.slots_total),
        ),
        "ratio",
    ));
    r.push(Metric::new(
        "vliw.decode_ns_per_block",
        ns_per(t.decode_ns, t.decode_blocks),
        "ns",
    ));
    r.push(Metric::new(
        "vliw.dispatch_ns_per_li",
        ns_per(t.dispatch_ns, t.dispatch_lis),
        "ns",
    ));
    r.push(Metric::new(
        "vliw.cache_hits",
        sum(&|s| s.vliw_cache.hits) as f64,
        "count",
    ));
    r.push(Metric::new(
        "vliw.cache_inserts",
        sum(&|s| s.vliw_cache.inserts) as f64,
        "count",
    ));
    r.push(Metric::new(
        "vliw.cache_evictions",
        sum(&|s| s.vliw_cache.evictions) as f64,
        "count",
    ));
    r.push(Metric::new(
        "vliw.mispredicts",
        sum(&|s| s.engine.mispredicts) as f64,
        "count",
    ));
    r.push(Metric::new(
        "vliw.cycle_share",
        ratio(sum(&|s| s.vliw_cycles), sum(&|s| s.cycles)),
        "ratio",
    ));
    r.push(Metric::new(
        "mem.ns_per_access",
        ns_per(t.mem_ns, t.mem_accesses),
        "ns",
    ));
    r.push(Metric::new(
        "mem.cache_ns_per_access",
        ns_per(t.cache_ns, t.cache_accesses),
        "ns",
    ));
    r.push(Metric::new(
        "mem.icache_miss_ratio",
        ratio(sum(&|s| s.icache.misses), sum(&|s| s.icache.accesses())),
        "ratio",
    ));
    r.push(Metric::new(
        "mem.dcache_miss_ratio",
        ratio(sum(&|s| s.dcache.misses), sum(&|s| s.dcache.accesses())),
        "ratio",
    ));
    r.push(Metric::new("core.run_ms", run_ns / suites / 1e6, "ms"));
    let attributed = t.oracle_ns as f64 + t.est_ns.values().sum::<f64>();
    r.push(Metric::new(
        "core.unattributed_share",
        1.0 - attributed / run_ns,
        "ratio",
    ));
    r.push(Metric::new(
        "core.mode_swaps",
        sum(&|s| s.mode_swaps) as f64,
        "count",
    ));
    r.push(Metric::new(
        "core.fast_path_bursts",
        t.bursts as f64 / suites,
        "count",
    ));
    r.push(Metric::new(
        "core.fast_path_chained",
        t.chained as f64 / suites,
        "count",
    ));
    r.push(Metric::new(
        "core.overhead_cycle_share",
        ratio(sum(&|s| s.overhead_cycles), sum(&|s| s.cycles)),
        "ratio",
    ));
    let traced = t.run_instr as f64 / run_ns;
    let untraced = t.untraced_instr as f64 / t.untraced_run_ns.max(1) as f64;
    r.push(Metric::new(
        "trace.overhead_share",
        traced / untraced - 1.0,
        "ratio",
    ));
    r.note(format!(
        "{} traced suite passes; layer estimates of Machine::run time: {}",
        t.suites,
        t.est_ns
            .iter()
            .map(|(k, v)| format!("{k} {:.1}%", v / run_ns * 100.0))
            .collect::<Vec<_>>()
            .join(", ")
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{programs, Geometry};
    use dtsvliw_workloads::Scale;

    /// A tiny traced run: every layer does work, every metric is finite,
    /// and the trace is a valid Perfetto document.
    #[test]
    fn smoke_traced_suite() {
        let progs: Vec<_> = programs(Scale::Test, 777)
            .unwrap()
            .into_iter()
            .take(3)
            .collect();
        let mut rec = Recorder::default();
        let cfg = Geometry::Churn.config();
        let t = trace_suite(&mut rec, &progs, &cfg, 30_000, 0.0);
        assert!(t.errors.is_empty(), "{:?}", t.errors);
        assert_eq!((t.suites, t.attempted, t.stats.len()), (1, 3, 3));
        assert!(t.sched_calls > 0 && t.decode_blocks > 0 && t.dispatch_lis > 0);
        assert!(t.mem_accesses > 0 && t.oracle_instr > 0 && t.run_instr > 0);
        let mut r = Report::new(t.attempted, 0, Vec::new());
        layer_metrics(&t, &mut r);
        assert!(r.metrics.iter().all(|m| m.value.is_finite()));
        assert!(dtsvliw_trace::validate_perfetto(&rec.to_chrome_json()).unwrap() > 0);
    }
}
