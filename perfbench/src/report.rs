//! The benchmark's output: a table of named metrics with units, then
//! one JSON result line, plus the host readings the metrics need.

use dtsvliw_json::Json;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// Everything one invocation reports.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(attempted: u64, failed: u64, errors: Vec<String>) -> Report {
        Report {
            attempted,
            failed,
            errors,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    pub fn note(&mut self, s: String) {
        self.notes.push(s);
    }

    pub fn success_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }

    /// Correct when something was attempted, nothing failed, no check
    /// reported an error, and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.attempted > 0
            && self.failed == 0
            && self.errors.is_empty()
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Keep only the metrics named in `names`, in that order; a name
    /// with no measurement is reported as a failed check.
    pub fn select(&mut self, names: &[&str]) {
        let mut kept = Vec::new();
        for &n in names {
            match self.metrics.iter().position(|m| m.name == n) {
                Some(i) => kept.push(self.metrics.swap_remove(i)),
                None => self.errors.push(format!("metric `{n}` was not measured")),
            }
        }
        self.metrics = kept;
    }

    /// The human-readable table followed by the JSON result line,
    /// which is always the last line of standard output.
    pub fn print(&self, title: &str) {
        println!("== {title}");
        for n in &self.notes {
            println!("   {n}");
        }
        for e in &self.errors {
            println!("   CHECK FAILED: {e}");
        }
        for m in &self.metrics {
            println!("   {:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        Json::obj([
                            ("value", Json::F64(m.value)),
                            ("unit", Json::Str(m.unit.into())),
                        ]),
                    )
                })
                .collect(),
        );
        let line = Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            ("metrics", metrics),
        ]);
        println!("{line}");
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn host_peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU seconds this process has used (user + system, every thread,
/// children excluded), from `/proc/self/stat`.
pub fn process_cpu_secs() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = f.get(11)?.parse().ok()?;
    let stime: f64 = f.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Clock ticks per second in `/proc` times (`sysconf(_SC_CLK_TCK)`):
/// the kernel's USER_HZ, 100 on Linux.
const USER_HZ: f64 = 100.0;
