//! Experiment run options.

/// Knobs shared by every experiment run.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct RunOptions {
    /// Dynamic instructions simulated per benchmark per configuration.
    /// The paper ran 6M–4.8B per program; the default here (2M) keeps a
    /// full reproduction of all tables within minutes while leaving the
    /// relative results stable.
    pub instrs_per_benchmark: u64,
    /// Run the 13 benchmarks on worker threads.
    pub parallel: bool,
    /// Shard grid execution across this many `specfetch-repro --worker`
    /// child processes (see [`crate::worker`]); `0` simulates in-process.
    /// Output is byte-identical at any worker count.
    pub workers: usize,
    /// Print one `[row] ...` line to **stderr** per finished grid point,
    /// as it finishes — stdout (and therefore the golden output) is
    /// unchanged.
    pub stream: bool,
    /// How many times a *transient* grid-point failure (worker death,
    /// deadline/heartbeat timeout, injected `err`) is retried before the
    /// cell renders `FAILED(...)`. `0` (the default) fails immediately,
    /// preserving pre-supervision behaviour.
    pub retries: u32,
    /// Per-point deadline in seconds; `0` (the default) disables the
    /// deadline. Under `--workers` a whole group gets `deadline ×
    /// points` before the child is killed; in-process only cooperative
    /// waits (the injected `hang`) observe it.
    pub point_timeout_secs: u64,
    /// How long the parent tolerates silence from a worker child before
    /// declaring it hung and killing it. Children heartbeat every
    /// ~100ms, so the 5s default only fires on genuinely wedged
    /// processes.
    pub heartbeat_ms: u64,
    /// Base delay for the seeded exponential backoff between retry
    /// passes (`delay = backoff_ms << (attempt-1)`, plus deterministic
    /// jitter).
    pub backoff_ms: u64,
    /// Recompute points whose terminal failure is negatively cached in
    /// the result store / journal instead of replaying the `FAILED`
    /// cell.
    pub retry_failed: bool,
    /// The job this run executes under. Job `0` is the CLI's ambient
    /// job; the service controller assigns each submitted job its own
    /// id so journals, cancellation, and progress snapshots stay
    /// per-job (see [`crate::store`] and [`crate::supervise`]).
    pub job: u64,
}

impl RunOptions {
    /// The default reproduction budget.
    pub fn new() -> Self {
        RunOptions {
            instrs_per_benchmark: 2_000_000,
            parallel: true,
            workers: 0,
            stream: false,
            retries: 0,
            point_timeout_secs: 0,
            heartbeat_ms: 5_000,
            backoff_ms: 100,
            retry_failed: false,
            job: 0,
        }
    }

    /// A budget for unit tests and smoke checks.
    pub fn smoke() -> Self {
        RunOptions {
            instrs_per_benchmark: 40_000,
            parallel: true,
            workers: 0,
            stream: false,
            retries: 0,
            point_timeout_secs: 0,
            heartbeat_ms: 5_000,
            backoff_ms: 100,
            retry_failed: false,
            job: 0,
        }
    }

    /// Overrides the per-benchmark instruction budget.
    pub fn with_instrs(mut self, instrs: u64) -> Self {
        self.instrs_per_benchmark = instrs;
        self
    }

    /// Sets the number of worker child processes (`0` = in-process).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Enables or disables per-row streaming to stderr.
    pub fn with_stream(mut self, stream: bool) -> Self {
        self.stream = stream;
        self
    }

    /// Sets the transient-failure retry budget.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Sets the per-point deadline in seconds (`0` = no deadline).
    pub fn with_point_timeout(mut self, secs: u64) -> Self {
        self.point_timeout_secs = secs;
        self
    }

    /// Sets the worker heartbeat window in milliseconds.
    pub fn with_heartbeat_ms(mut self, ms: u64) -> Self {
        self.heartbeat_ms = ms;
        self
    }

    /// Sets the base retry backoff in milliseconds.
    pub fn with_backoff_ms(mut self, ms: u64) -> Self {
        self.backoff_ms = ms;
        self
    }

    /// Opts back into recomputing negatively-cached terminal failures.
    pub fn with_retry_failed(mut self, retry: bool) -> Self {
        self.retry_failed = retry;
        self
    }

    /// Sets the job id this run executes under (`0` = the CLI's ambient
    /// job).
    pub fn with_job(mut self, job: u64) -> Self {
        self.job = job;
        self
    }
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_builders() {
        assert_eq!(RunOptions::default(), RunOptions::new());
        assert_eq!(RunOptions::new().with_instrs(5).instrs_per_benchmark, 5);
        assert!(RunOptions::smoke().instrs_per_benchmark < RunOptions::new().instrs_per_benchmark);
        assert_eq!(RunOptions::new().workers, 0, "in-process execution is the default");
        assert_eq!(RunOptions::new().with_workers(3).workers, 3);
        assert!(!RunOptions::new().stream, "streaming is opt-in");
        assert!(RunOptions::new().with_stream(true).stream);
        assert_eq!(RunOptions::new().retries, 0, "no retries by default");
        assert_eq!(RunOptions::new().with_retries(3).retries, 3);
        assert_eq!(RunOptions::new().point_timeout_secs, 0, "no deadline by default");
        assert_eq!(RunOptions::new().with_point_timeout(30).point_timeout_secs, 30);
        assert_eq!(RunOptions::new().heartbeat_ms, 5_000);
        assert_eq!(RunOptions::new().with_heartbeat_ms(250).heartbeat_ms, 250);
        assert_eq!(RunOptions::new().with_backoff_ms(5).backoff_ms, 5);
        assert!(!RunOptions::new().retry_failed, "negative cache is honoured by default");
        assert!(RunOptions::new().with_retry_failed(true).retry_failed);
        assert_eq!(RunOptions::new().job, 0, "the CLI runs as the ambient job");
        assert_eq!(RunOptions::new().with_job(7).job, 7);
    }
}
