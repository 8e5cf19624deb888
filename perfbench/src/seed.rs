//! Workload inputs from the benchmark's `--seed`: every workload
//! program draws its inputs from one LCG whose seed is a literal in its
//! source, so rewriting that literal regenerates the inputs and changes
//! nothing else.

/// The seed literal every workload source declares.
pub const SEED_LITERAL: &str = "int seed = 20260706;";

/// The seed the workload sources ship with (the inputs `dtsvliw_run`
/// simulates).
pub const DEFAULT_PROGRAM_SEED: u32 = 20260706;

/// Map a benchmark seed to a program seed: a positive value that fits
/// minicc's 32-bit `int`, spread so that neighbouring benchmark seeds
/// give unrelated inputs.
pub fn program_seed(bench_seed: u64) -> u32 {
    let mut z = bench_seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    1 + (z % 0x7fff_fffe) as u32
}

/// Replace the seed literal in `source` with `seed`. Fails when the
/// literal is missing or appears more than once, so a change to the
/// workload sources cannot silently leave the benchmark on fixed
/// inputs.
pub fn with_seed(source: &str, seed: u32) -> Result<String, String> {
    match source.matches(SEED_LITERAL).count() {
        1 => Ok(source.replacen(SEED_LITERAL, &format!("int seed = {seed};"), 1)),
        0 => Err(format!(
            "workload source has no `{SEED_LITERAL}` to rewrite"
        )),
        n => Err(format!(
            "workload source declares `{SEED_LITERAL}` {n} times"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtsvliw_primary::{RefMachine, RunOutcome};
    use dtsvliw_workloads::{all, Scale};

    #[test]
    fn rewrites_the_literal_once() {
        let src = "int x = 1;\nint seed = 20260706;\nfn main() { return seed; }";
        let out = with_seed(src, 777).unwrap();
        assert!(out.contains("int seed = 777;"));
        assert!(!out.contains("20260706"));
        assert!(out.contains("int x = 1;"));
    }

    #[test]
    fn fails_loudly_without_the_literal() {
        let err = with_seed("int seed = 5;", 777).unwrap_err();
        assert!(err.contains("no `int seed = 20260706;`"), "{err}");
        let twice = format!("{SEED_LITERAL}\n{SEED_LITERAL}");
        assert!(with_seed(&twice, 777).unwrap_err().contains("2 times"));
    }

    #[test]
    fn program_seeds_are_positive_ints_and_spread() {
        let seeds: Vec<u32> = (0..64).map(program_seed).collect();
        assert!(seeds.iter().all(|&s| s >= 1 && s <= i32::MAX as u32));
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len());
        assert_eq!(program_seed(3), program_seed(3));
    }

    #[test]
    fn every_workload_carries_the_literal() {
        for w in all(Scale::Small) {
            assert!(with_seed(&w.source, 1).is_ok(), "{}", w.name);
        }
    }

    /// All eight programs run to a clean exit under the fixed seeds and
    /// under held-out benchmark seeds.
    #[test]
    fn all_workloads_exit_cleanly_under_other_seeds() {
        let seeds = [20260706, 12345, 777, program_seed(1), program_seed(4242)];
        for w in all(Scale::Test) {
            for &seed in &seeds {
                let src = with_seed(&w.source, seed).unwrap();
                let img = dtsvliw_minicc::compile_to_image(&src).unwrap();
                let mut m = RefMachine::new(&img);
                match m.run(50_000_000) {
                    Ok(RunOutcome::Halted { code, .. }) => {
                        assert_eq!(Some(code), w.expected_exit, "{} seed {seed}", w.name)
                    }
                    other => panic!("{} seed {seed}: {other:?}", w.name),
                }
            }
        }
    }
}
