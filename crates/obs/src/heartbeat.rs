//! Periodic stderr progress lines for long-running work.
//!
//! A [`Heartbeat`] runs a piece of work while polling a progress probe
//! every 25 ms and, once per period, prints
//! `[<tag>] t+<s>s: <summary>, ETA <s>s`. Heartbeats are
//! operational output only: the probe reads counters the work already
//! keeps, and nothing flows back into the work.

use std::time::{Duration, Instant};

/// What a progress probe reports: a summary for the line, and the
/// `done`/`total` units the ETA extrapolates from.
#[derive(Debug)]
pub struct Progress {
    /// Free text between the elapsed time and the ETA.
    pub summary: String,
    /// Units of work finished so far.
    pub done: usize,
    /// Units of work in the whole run.
    pub total: usize,
}

/// A progress reporter: a line tag and an optional period (`None` stays
/// silent and spawns no thread).
#[derive(Debug, Clone, Copy)]
pub struct Heartbeat {
    tag: &'static str,
    period: Option<Duration>,
}

impl Heartbeat {
    /// A heartbeat printing `[tag] …` lines every `period`.
    #[must_use]
    pub fn new(tag: &'static str, period: Option<Duration>) -> Self {
        Heartbeat { tag, period }
    }

    /// Runs `work` and returns its result. With a period, `work` runs on
    /// a scoped thread while the calling thread polls every 25 ms and
    /// prints a line built from `probe` once per period, until `work`
    /// returns or unwinds; without one, `work` runs inline.
    pub fn run<R: Send>(&self, probe: impl Fn() -> Progress, work: impl FnOnce() -> R + Send) -> R {
        let Some(period) = self.period else { return work() };
        let start = Instant::now();
        std::thread::scope(|scope| {
            let worker = scope.spawn(work);
            let mut next_report = period;
            while !worker.is_finished() {
                std::thread::sleep(Duration::from_millis(25));
                let elapsed = start.elapsed();
                if elapsed >= next_report && !worker.is_finished() {
                    next_report += period;
                    eprintln!("{}", self.line(elapsed, &probe()));
                }
            }
            worker.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        })
    }

    /// Formats one progress line. The ETA extrapolates the elapsed time
    /// over the remaining units, `?` until the first unit is done.
    fn line(&self, elapsed: Duration, progress: &Progress) -> String {
        let secs = elapsed.as_secs_f64();
        let eta = if progress.done == 0 {
            "?".to_owned()
        } else {
            let remaining = progress.total.saturating_sub(progress.done) as f64;
            format!("{:.0}", secs * remaining / progress.done as f64)
        };
        format!("[{}] t+{secs:.0}s: {}, ETA {eta}s", self.tag, progress.summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn progress(done: usize, total: usize) -> Progress {
        Progress { summary: format!("{done}/{total} things"), done, total }
    }

    #[test]
    fn line_carries_tag_summary_and_eta() {
        let beat = Heartbeat::new("psr test", Some(Duration::from_secs(1)));
        assert_eq!(
            beat.line(Duration::from_secs(10), &progress(0, 4)),
            "[psr test] t+10s: 0/4 things, ETA ?s"
        );
        // 1 of 4 done in 10 s: 3 remaining at 10 s each.
        assert_eq!(
            beat.line(Duration::from_secs(10), &progress(1, 4)),
            "[psr test] t+10s: 1/4 things, ETA 30s"
        );
        assert_eq!(
            beat.line(Duration::from_secs(10), &progress(4, 4)),
            "[psr test] t+10s: 4/4 things, ETA 0s"
        );
    }

    #[test]
    fn run_returns_the_work_result_with_or_without_a_period() {
        assert_eq!(Heartbeat::new("x", None).run(|| progress(0, 1), || 7), 7);
        assert_eq!(
            Heartbeat::new("x", Some(Duration::from_millis(1))).run(|| progress(0, 1), || 8),
            8
        );
    }

    #[test]
    fn a_panicking_work_still_stops_the_monitor() {
        let beat = Heartbeat::new("x", Some(Duration::from_secs(60)));
        let outcome = std::panic::catch_unwind(|| beat.run(|| progress(0, 1), || panic!("boom")));
        assert!(outcome.is_err(), "the panic propagates instead of hanging the poll loop");
    }
}
