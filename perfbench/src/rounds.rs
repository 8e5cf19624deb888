//! Repeating work for a run's measured seconds.

use std::time::{Duration, Instant};

/// Rounds of work until a deadline. A round starts only when the
/// previous round's length says it will end in time, so a run lasts its
/// measured seconds rather than up to one round more; the first `min`
/// rounds always run.
pub struct Rounds {
    deadline: Instant,
    min: u64,
    done: u64,
    last: Duration,
    started: Option<Instant>,
}

impl Rounds {
    pub fn new(seconds: f64, min: u64) -> Rounds {
        Rounds {
            deadline: Instant::now() + Duration::from_secs_f64(seconds),
            min,
            done: 0,
            last: Duration::ZERO,
            started: None,
        }
    }

    /// Close the current round, if any, and say whether to start another.
    pub fn next(&mut self) -> bool {
        let now = Instant::now();
        if let Some(start) = self.started.take() {
            self.last = now - start;
            self.done += 1;
        }
        let go = self.done < self.min || now + self.last <= self.deadline;
        if go {
            self.started = Some(now);
        }
        go
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_minimum_runs_even_past_the_deadline() {
        let mut r = Rounds::new(0.0, 2);
        assert!(r.next() && r.next());
        assert!(!r.next());
    }

    #[test]
    fn a_round_that_would_overrun_does_not_start() {
        let mut r = Rounds::new(0.05, 1);
        assert!(r.next());
        std::thread::sleep(Duration::from_millis(30));
        // 30 ms done, 20 ms left: another 30 ms round would overrun.
        assert!(!r.next());
        let mut r = Rounds::new(10.0, 0);
        assert!(r.next() && r.next() && r.next());
    }
}
