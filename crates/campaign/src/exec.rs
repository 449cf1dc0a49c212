//! The deterministic work-stealing campaign executor.
//!
//! Cells are seeded round-robin by **stable cell index** into one deque per
//! worker (worker `w` starts with cells `w, w + N, w + 2N, …`). Each worker
//! pulls from the *front* of its own deque; when that runs dry it steals
//! from the *back* of a victim's deque instead of idling — so one 24 h
//! straggler cell never pins the other workers to an empty shard. This is
//! the one local schedule; distributed worker processes run the same pool
//! over each leased batch ([`CampaignRunner::run_worker`]).
//!
//! For every pulled cell the worker builds (or **reuses**, when the cell
//! shares the previous cell's platform scale and workload) a
//! [`ReplayHarness`], fetches the trace from the shared [`TraceCache`],
//! replays the scenario, reduces the outcome to a [`CellRow`] and streams
//! the row to the coordinator, which hands it to the caller's sink — the
//! in-memory collector for [`CampaignRunner::run`], or an incremental
//! [`ResultStore`] append for [`CampaignRunner::run_with_store`].
//!
//! Determinism contract: each cell's replay depends only on its own
//! `(platform, trace, scenario)` triple — workers share nothing mutable but
//! the trace cache, whose values are pure functions of their keys. Rows are
//! re-ordered by cell index before aggregation, so the campaign output is
//! **byte-identical for any thread count** (asserted by
//! `tests/campaign_determinism.rs`), even though which worker runs which
//! cell is scheduling-dependent under stealing.

use std::collections::VecDeque;
use std::path::Path;
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use apc_obs::Registry;
use apc_replay::figures::platform_for;
use apc_replay::ReplayHarness;
use apc_workload::{CurieTraceGenerator, TraceCache};

use crate::agg::{summarize, CellRow, SummaryRow};
use crate::lease::{now_ms, Backoff, LeaseAction, LeaseLog};
use crate::obs::{CampaignObs, ExecObs};
use crate::spec::{CampaignCell, CampaignSpec, CellWorkload, TraceSource};
use crate::store::ResultStore;

/// Per-worker execution counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerStats {
    /// Worker id in `0..threads`.
    pub worker: usize,
    /// Cells this worker completed.
    pub completed: usize,
    /// Of those, cells stolen from another worker's deque.
    pub stolen: usize,
}

/// Run-wide counters reported next to the results.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Number of cells executed by this run.
    pub cells: usize,
    /// Cells skipped because a resumed [`ResultStore`] already recorded
    /// them (always 0 for a fresh run).
    pub skipped: usize,
    /// Worker threads actually used.
    pub threads: usize,
    /// Trace-cache lookups served without regeneration.
    pub trace_cache_hits: usize,
    /// Distinct traces generated.
    pub trace_cache_misses: usize,
    /// Per-worker completion/steal counters, indexed by worker id. (Which
    /// worker ran which cell is scheduling-dependent; only the results are
    /// deterministic.)
    pub per_worker: Vec<WorkerStats>,
}

impl RunStats {
    /// Total cells that moved between workers via stealing.
    pub fn total_steals(&self) -> usize {
        self.per_worker.iter().map(|w| w.stolen).sum()
    }

    /// The human summary the `campaign` CLI prints: run totals (including
    /// total steals) on the first line, then one line per worker with its
    /// completion rate and the share of its cells that were stolen.
    pub fn render(&self, wall: Duration) -> String {
        let skipped = if self.skipped > 0 {
            format!(", {} resumed from store", self.skipped)
        } else {
            String::new()
        };
        let secs = wall.as_secs_f64();
        let mut out = format!(
            "ran {} cells on {} thread(s) in {secs:.2} s ({} trace(s) generated, \
             {} cache hits, {} steal(s){skipped})\n",
            self.cells,
            self.threads,
            self.trace_cache_misses,
            self.trace_cache_hits,
            self.total_steals(),
        );
        for w in &self.per_worker {
            let rate = w.completed as f64 / secs.max(1e-9);
            let stolen_share = if w.completed > 0 {
                w.stolen as f64 * 100.0 / w.completed as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "  w{}: {} cell(s) ({rate:.1} cells/s), {} stolen ({stolen_share:.0}%)\n",
                w.worker, w.completed, w.stolen
            ));
        }
        out
    }
}

/// Everything a finished campaign produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOutcome {
    /// One row per cell, sorted by cell index.
    pub rows: Vec<CellRow>,
    /// Across-seed summaries, in first-occurrence order.
    pub summaries: Vec<SummaryRow>,
    /// Run-wide counters.
    pub stats: RunStats,
    /// Wall-clock time of the execution phase.
    pub wall: Duration,
}

/// A configured, runnable campaign.
#[derive(Debug, Clone)]
pub struct CampaignRunner {
    spec: CampaignSpec,
    source: TraceSource,
    threads: usize,
    obs: CampaignObs,
}

impl CampaignRunner {
    /// A campaign over the synthetic generator with one worker thread.
    pub fn new(spec: CampaignSpec) -> Self {
        CampaignRunner {
            spec,
            source: TraceSource::Synthetic,
            threads: 1,
            obs: CampaignObs::disabled(),
        }
    }

    /// Attach observability (a metrics registry the progress monitor can
    /// sample, and/or a span recorder for Chrome-trace export). Results are
    /// byte-identical with or without it (builder style).
    pub fn with_obs(mut self, obs: CampaignObs) -> Self {
        self.obs = obs;
        self
    }

    /// Replace the workload source (builder style).
    pub fn with_source(mut self, source: TraceSource) -> Self {
        self.source = source;
        self
    }

    /// Set the worker-thread count; 0 means "all available cores"
    /// (builder style).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The spec being run.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// The expanded cell grid this runner would execute.
    pub fn cells(&self) -> Result<Vec<CampaignCell>, String> {
        self.spec.expand(&self.source)
    }

    /// The stable fingerprint identifying this campaign (spec + workload
    /// source) — what a [`ResultStore`] manifest records and resume
    /// validates.
    pub fn fingerprint(&self) -> u64 {
        self.spec.fingerprint(&self.source)
    }

    /// The thread count after resolving 0 ⇒ available parallelism.
    pub fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.threads
        }
    }

    /// The worker count [`run`](Self::run) will actually use: the resolved
    /// thread count clamped to the number of cells.
    pub fn effective_threads(&self) -> usize {
        let cell_count = self.cells().map_or(1, |c| c.len());
        self.clamped_threads(cell_count)
    }

    fn clamped_threads(&self, cell_count: usize) -> usize {
        self.resolved_threads().clamp(1, cell_count.max(1))
    }

    /// Execute every cell in memory and aggregate the results.
    ///
    /// Fails fast (before spawning anything) if the spec does not validate.
    pub fn run(&self) -> Result<CampaignOutcome, String> {
        self.spec.validate_for(&self.source)?;
        let cells = self.cells()?;
        let pending: Vec<usize> = (0..cells.len()).collect();
        let started = Instant::now();
        let mut rows: Vec<CellRow> = Vec::with_capacity(cells.len());
        let inner = self.execute(&cells, &pending, |row| {
            rows.push(row);
            Ok(())
        })?;
        let wall = started.elapsed();
        rows.sort_by_key(|r| r.index);
        let summaries = summarize(&rows);
        Ok(CampaignOutcome {
            stats: RunStats {
                cells: rows.len(),
                skipped: 0,
                threads: inner.threads,
                trace_cache_hits: inner.hits,
                trace_cache_misses: inner.misses,
                per_worker: inner.per_worker,
            },
            rows,
            summaries,
            wall,
        })
    }

    /// Execute the campaign against an on-disk [`ResultStore`], appending
    /// each cell's row as it completes and **skipping cells the store
    /// already records** — pointing this at a store that crashed mid-run
    /// resumes it, and the final output is byte-identical to an
    /// uninterrupted run (asserted by `tests/campaign_resume.rs`).
    ///
    /// The store must belong to this campaign — its manifest fingerprint is
    /// checked against [`fingerprint`](Self::fingerprint) — and be
    /// writable (schema v3; a v2 store fails naming `campaign compact`)
    /// before anything runs.
    pub fn run_with_store(&self, store: &mut ResultStore) -> Result<CampaignOutcome, String> {
        self.spec.validate_for(&self.source)?;
        let cells = self.cells()?;
        store.validate_spec(self.fingerprint(), cells.len())?;
        store.ensure_writable()?;
        let skipped = store.completed_count();
        let pending: Vec<usize> = (0..cells.len()).filter(|i| !store.contains(*i)).collect();
        let executed = pending.len();
        let started = Instant::now();
        let inner = self.execute(&cells, &pending, |row| {
            store
                .append(&row)
                .map_err(|e| format!("cannot append cell {} to result store: {e}", row.index))
        })?;
        let wall = started.elapsed();
        // Rows come back out of the store — including the skipped ones from
        // the previous run — so every render frontend downstream reads one
        // consistent, index-sorted view.
        let rows = store.rows();
        debug_assert_eq!(rows.len(), cells.len());
        let summaries = summarize(&rows);
        Ok(CampaignOutcome {
            stats: RunStats {
                cells: executed,
                skipped,
                threads: inner.threads,
                trace_cache_hits: inner.hits,
                trace_cache_misses: inner.misses,
                per_worker: inner.per_worker,
            },
            rows,
            summaries,
            wall,
        })
    }

    /// Run one distributed worker process's lease loop against the store
    /// and lease log in `dir` (both created by `campaign --distributed`).
    ///
    /// The loop pulls whole **batches** instead of cells: refresh the lease
    /// log, take the [`LeaseAction`] it prescribes — claim a free batch,
    /// steal an expired one (after the jittered [`Backoff`] when a claim
    /// race was lost), wait, or finish — then execute the batch's
    /// unrecorded cells through the same in-process work-stealing pool as a
    /// local run, appending rows to this worker's own partition files and
    /// heartbeat-renewing the lease at half its TTL as rows stream in. The
    /// manifest `done` set is re-read at claim time, so a stolen batch
    /// re-executes only what its dead holder had not recorded.
    ///
    /// Exactly-once, in effect: a batch retires exactly once (lease-log
    /// replay is deterministic), and though an alive-but-slow holder can
    /// race its stealer into executing a cell twice, both append
    /// byte-identical rows — replay is a pure function of the cell — which
    /// last-wins duplicate resolution collapses. With `sync` off the
    /// store's and lease log's fsyncs are skipped (tests only).
    ///
    /// The fingerprint check gates every worker: both the manifest and the
    /// lease-log header must record this runner's exact grid.
    pub fn run_worker(
        &self,
        dir: &Path,
        worker: usize,
        sync: bool,
    ) -> Result<WorkerOutcome, String> {
        self.spec.validate_for(&self.source)?;
        let cells = self.cells()?;
        let fingerprint = self.fingerprint();
        let mut store = ResultStore::open_worker(dir, worker)?;
        store.set_sync(sync);
        store.validate_spec(fingerprint, cells.len())?;
        let mut lease = LeaseLog::open(dir)?;
        lease.set_sync(sync);
        lease.validate_spec(fingerprint, cells.len())?;
        let ttl_ms = lease.header().ttl_ms;
        // Per-worker lease counters, published like the executor's worker
        // counters (on the caller's registry when one is attached).
        let registry = if self.obs.registry.is_live() {
            self.obs.registry.clone()
        } else {
            Registry::new()
        };
        let claims_c = registry.counter(&format!("campaign.worker.{worker}.lease.claims"));
        let steals_c = registry.counter(&format!("campaign.worker.{worker}.lease.steals"));
        let renews_c = registry.counter(&format!("campaign.worker.{worker}.lease.renews"));
        let conflicts_c = registry.counter(&format!("campaign.worker.{worker}.lease.conflicts"));
        let batches_c = registry.counter(&format!("campaign.worker.{worker}.lease.batches_done"));
        let mut backoff = Backoff::new(worker as u64, 50, (ttl_ms / 2).clamp(200, 5_000));
        let mut out = WorkerOutcome {
            worker,
            ..WorkerOutcome::default()
        };
        loop {
            lease.refresh()?;
            match lease.state().next_action(worker, now_ms()) {
                LeaseAction::Finished => break,
                LeaseAction::Wait { ms } => {
                    // Bounded naps so an expiry (or completion) is noticed
                    // promptly even when the suggested wait is a whole TTL.
                    std::thread::sleep(Duration::from_millis(ms.min(1_000)));
                }
                LeaseAction::Claim { batch, steal } => {
                    if lease.state().owner(batch) != Some(worker) {
                        // Append-then-verify: the claim only took effect if
                        // the re-read log replays us as the owner. Losing
                        // the race is answered with jittered backoff, not
                        // retried immediately (the winner is running).
                        lease.append_claim(batch, worker, now_ms())?;
                        lease.refresh()?;
                        if lease.state().owner(batch) != Some(worker) {
                            out.conflicts += 1;
                            conflicts_c.inc();
                            std::thread::sleep(backoff.next_delay());
                            continue;
                        }
                        out.claims += 1;
                        claims_c.inc();
                        if steal {
                            out.steals += 1;
                            steals_c.inc();
                        }
                    }
                    backoff.reset();
                    // The manifest, not the lease log, is the ground truth
                    // for completed cells: skip everything recorded — by us,
                    // by the batch's dead previous holder, by anyone.
                    store.refresh_done()?;
                    let pending: Vec<usize> = lease
                        .header()
                        .batch_range(batch)
                        .filter(|i| !store.contains(*i))
                        .collect();
                    let mut last_beat = now_ms();
                    let mut renews = 0usize;
                    {
                        let store = &mut store;
                        let lease = &mut lease;
                        self.execute(&cells, &pending, |row| {
                            store.append(&row).map_err(|e| {
                                format!("cannot append cell {} to result store: {e}", row.index)
                            })?;
                            let t = now_ms();
                            if t.saturating_sub(last_beat) >= ttl_ms / 2 {
                                lease.append_renew(batch, worker, t)?;
                                last_beat = t;
                                renews += 1;
                            }
                            Ok(())
                        })?;
                    }
                    out.renews += renews;
                    renews_c.add(renews as u64);
                    lease.append_done(batch, worker, now_ms())?;
                    out.batches += 1;
                    batches_c.inc();
                    out.cells += pending.len();
                }
            }
        }
        Ok(out)
    }

    /// Run the `pending` cell indices through the worker pool, handing each
    /// finished row to `on_row` on the coordinator thread (in completion
    /// order, *not* index order). An `on_row` error stops the run early.
    fn execute(
        &self,
        cells: &[CampaignCell],
        pending: &[usize],
        mut on_row: impl FnMut(CellRow) -> Result<(), String>,
    ) -> Result<ExecInner, String> {
        let threads = self.clamped_threads(pending.len());
        let cache = TraceCache::new();
        if pending.is_empty() {
            return Ok(ExecInner {
                threads,
                per_worker: Vec::new(),
                hits: 0,
                misses: 0,
            });
        }
        // Run statistics live on the metrics registry: the caller's when one
        // is attached (so a progress monitor sampling it sees the same
        // numbers), a private live one otherwise — either way the executor
        // publishes identically and RunStats is read back off the registry.
        let registry = if self.obs.registry.is_live() {
            self.obs.registry.clone()
        } else {
            Registry::new()
        };
        let obs = ExecObs::new(&registry, self.obs.spans.clone(), threads);
        let queues = WorkQueues::seed(pending, threads);
        let (tx, rx) = mpsc::channel::<CellRow>();
        let mut sink_err: Option<String> = None;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            for worker in 0..threads {
                let tx = tx.clone();
                let queues = &queues;
                let cache = &cache;
                let spec = &self.spec;
                let source = &self.source;
                let obs = &obs;
                handles.push(scope.spawn(move || {
                    // Worker-local harness slot: consecutive pulled cells of
                    // the same (racks, workload) reuse one ReplayHarness
                    // instead of rebuilding the platform and re-fetching the
                    // trace per cell.
                    let mut harness: Option<HarnessSlot> = None;
                    while let Some((idx, was_stolen)) = queues.next(worker) {
                        obs.set_queue_depth(worker, queues.depth(worker));
                        let cell_span = obs.cell_begin();
                        let row = run_cell(spec, source, cache, &cells[idx], &mut harness);
                        obs.cell_end(cell_span, worker, idx, was_stolen, &row.scenario);
                        // The receiver only disappears if the coordinator's
                        // sink failed; stop producing rows then.
                        if tx.send(row).is_err() {
                            break;
                        }
                    }
                    obs.set_queue_depth(worker, 0);
                }));
            }
            drop(tx);
            // Stream rows in as workers produce them (only flat rows are
            // ever buffered — never whole replay outcomes).
            for row in rx {
                if let Err(e) = on_row(row) {
                    sink_err = Some(e);
                    break;
                }
            }
            for handle in handles {
                handle.join().expect("campaign worker panicked");
            }
        });
        if let Some(e) = sink_err {
            return Err(e);
        }
        obs.publish_cache(cache.hits(), cache.misses());
        Ok(ExecInner {
            threads,
            per_worker: obs.per_worker_stats(),
            hits: cache.hits(),
            misses: cache.misses(),
        })
    }
}

/// What one distributed worker process did
/// ([`CampaignRunner::run_worker`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerOutcome {
    /// This worker's id.
    pub worker: usize,
    /// Cells this worker executed (not counting skipped recorded ones).
    pub cells: usize,
    /// Batches this worker retired.
    pub batches: usize,
    /// Accepted claims (fresh batches plus steals).
    pub claims: usize,
    /// Of those, claims over an expired lease (steals).
    pub steals: usize,
    /// Heartbeat renews appended.
    pub renews: usize,
    /// Claim races lost (answered with backoff).
    pub conflicts: usize,
}

impl WorkerOutcome {
    /// The one-line summary the `campaign worker` CLI prints to stderr.
    pub fn render(&self) -> String {
        format!(
            "worker {}: {} cell(s) over {} batch(es) ({} claim(s), {} steal(s), \
             {} renew(s), {} lost race(s))\n",
            self.worker,
            self.cells,
            self.batches,
            self.claims,
            self.steals,
            self.renews,
            self.conflicts,
        )
    }
}

/// What [`CampaignRunner::execute`] hands back to the run wrappers.
struct ExecInner {
    threads: usize,
    per_worker: Vec<WorkerStats>,
    hits: usize,
    misses: usize,
}

/// One deque of pending cell indices per worker, stealable from the back.
struct WorkQueues {
    deques: Vec<Mutex<VecDeque<usize>>>,
}

impl WorkQueues {
    /// Deal `pending` round-robin: worker `w` starts with cells `w`,
    /// `w + N`, … of the pending list.
    fn seed(pending: &[usize], workers: usize) -> Self {
        let mut deques: Vec<VecDeque<usize>> = (0..workers).map(|_| VecDeque::new()).collect();
        for (i, &cell) in pending.iter().enumerate() {
            deques[i % workers].push_back(cell);
        }
        WorkQueues {
            deques: deques.into_iter().map(Mutex::new).collect(),
        }
    }

    /// Cells left in `worker`'s own deque (for the queue-depth gauge).
    fn depth(&self, worker: usize) -> usize {
        self.deques[worker]
            .lock()
            .expect("work deque poisoned")
            .len()
    }

    /// Pull the next cell for `worker`: own deque front first, then the
    /// back of the nearest non-empty victim. Returns `(cell index,
    /// was_stolen)`, or `None` when every deque is drained — cells never
    /// re-enter a deque, so drained means done.
    fn next(&self, worker: usize) -> Option<(usize, bool)> {
        if let Some(idx) = self.deques[worker]
            .lock()
            .expect("work deque poisoned")
            .pop_front()
        {
            return Some((idx, false));
        }
        let n = self.deques.len();
        (1..n).find_map(|offset| {
            self.deques[(worker + offset) % n]
                .lock()
                .expect("work deque poisoned")
                .pop_back()
                .map(|idx| (idx, true))
        })
    }
}

/// A worker's cached harness and the coordinates it was built for.
type HarnessSlot = (usize, CellWorkload, ReplayHarness);

/// Replay one cell and reduce it to its row (runs on a worker thread).
/// `slot` carries the worker's previous harness for reuse when the cell
/// shares its (racks, workload) coordinates.
fn run_cell(
    spec: &CampaignSpec,
    source: &TraceSource,
    cache: &TraceCache,
    cell: &CampaignCell,
    slot: &mut Option<HarnessSlot>,
) -> CellRow {
    let reusable = matches!(
        slot,
        Some((racks, workload, _)) if *racks == cell.racks && *workload == cell.workload
    );
    if !reusable {
        let platform = platform_for(cell.racks);
        let trace = match (&cell.workload, source) {
            (CellWorkload::Fixed, TraceSource::Fixed(trace)) => std::sync::Arc::clone(trace),
            (
                CellWorkload::Synthetic {
                    interval,
                    seed,
                    load_bits,
                },
                _,
            ) => {
                let generator = CurieTraceGenerator::new(*seed)
                    .interval(*interval)
                    .load_factor(f64::from_bits(*load_bits))
                    .backlog_factor(spec.backlog_factor);
                cache.get_or_generate(&generator, &platform)
            }
            (CellWorkload::Fixed, TraceSource::Synthetic) => {
                unreachable!("fixed cells only come from fixed-source expansions")
            }
        };
        let harness = ReplayHarness::from_shared(platform, trace)
            .with_initial_fairshare(spec.initial_fairshare_core_hours);
        *slot = Some((cell.racks, cell.workload, harness));
    }
    let (_, _, harness) = slot.as_ref().expect("harness slot just filled");
    // The lean replay path: no utilisation series, no event-log clone —
    // only what the row reads is ever materialised.
    let summary = harness.run_summary(&cell.scenario);
    CellRow::from_summary(cell, &summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_workload::IntervalKind;

    /// A grid small and light enough for unit tests.
    fn small_spec() -> CampaignSpec {
        CampaignSpec {
            racks: vec![1],
            intervals: vec![IntervalKind::MedianJob],
            seeds: vec![1, 2],
            policies: vec![apc_core::PowercapPolicy::Shut],
            cap_fractions: vec![0.6],
            load_factors: vec![0.5],
            backlog_factor: 0.2,
            ..CampaignSpec::default()
        }
    }

    #[test]
    fn run_produces_one_row_per_cell_in_index_order() {
        let runner = CampaignRunner::new(small_spec()).with_threads(2);
        let outcome = runner.run().unwrap();
        assert_eq!(outcome.rows.len(), runner.cells().unwrap().len());
        for (i, row) in outcome.rows.iter().enumerate() {
            assert_eq!(row.index, i);
        }
        assert_eq!(outcome.stats.cells, outcome.rows.len());
        assert_eq!(outcome.stats.skipped, 0);
        assert_eq!(outcome.stats.threads, 2);
        // 2 seeds × 1 interval × 1 platform ⇒ 2 distinct traces over at
        // most 4 lookups: each distinct trace is generated at least once
        // (a miss), while harness reuse can skip lookups entirely and
        // concurrent first lookups of the same key may both count as
        // misses, so only these bounds are exact.
        assert!(outcome.stats.trace_cache_hits + outcome.stats.trace_cache_misses <= 4);
        assert!((2..=4).contains(&outcome.stats.trace_cache_misses));
    }

    #[test]
    fn worker_stats_account_for_every_cell() {
        let runner = CampaignRunner::new(small_spec()).with_threads(3);
        let outcome = runner.run().unwrap();
        assert_eq!(outcome.stats.per_worker.len(), 3);
        let completed: usize = outcome.stats.per_worker.iter().map(|w| w.completed).sum();
        assert_eq!(completed, outcome.rows.len());
        assert!(outcome.stats.total_steals() <= completed);
        for (i, w) in outcome.stats.per_worker.iter().enumerate() {
            assert_eq!(w.worker, i);
            assert!(w.stolen <= w.completed);
        }
    }

    #[test]
    fn oversubscribed_workers_drain_the_queue_by_stealing() {
        // 8 workers over 4 cells: most workers own an empty or one-cell
        // deque and must steal or exit cleanly — the run still completes
        // with every cell executed exactly once.
        let outcome = CampaignRunner::new(small_spec())
            .with_threads(8)
            .run()
            .unwrap();
        assert_eq!(outcome.rows.len(), 4);
        let mut indices: Vec<usize> = outcome.rows.iter().map(|r| r.index).collect();
        indices.dedup();
        assert_eq!(indices, [0, 1, 2, 3]);
        // Thread count clamps to the cell count.
        assert_eq!(outcome.stats.threads, 4);
    }

    #[test]
    fn thread_count_does_not_change_rows() {
        let spec = small_spec();
        let one = CampaignRunner::new(spec.clone())
            .with_threads(1)
            .run()
            .unwrap();
        let four = CampaignRunner::new(spec).with_threads(4).run().unwrap();
        assert_eq!(one.rows, four.rows);
        assert_eq!(one.summaries, four.summaries);
    }

    #[test]
    fn baseline_delivers_at_least_as_much_work_as_capped() {
        let outcome = CampaignRunner::new(small_spec())
            .with_threads(2)
            .run()
            .unwrap();
        let baseline = outcome
            .rows
            .iter()
            .find(|r| r.scenario == "100%/None")
            .unwrap();
        let capped = outcome
            .rows
            .iter()
            .find(|r| r.scenario == "60%/SHUT")
            .unwrap();
        assert!(capped.work_core_seconds <= baseline.work_core_seconds + 1e-6);
        assert!(baseline.launched_jobs > 0);
    }

    #[test]
    fn summaries_fold_the_seed_axis() {
        let outcome = CampaignRunner::new(small_spec())
            .with_threads(3)
            .run()
            .unwrap();
        // 4 rows (2 seeds × 2 scenarios) fold into 2 summary groups.
        assert_eq!(outcome.rows.len(), 4);
        assert_eq!(outcome.summaries.len(), 2);
        assert!(outcome.summaries.iter().all(|s| s.replications == 2));
        for s in &outcome.summaries {
            assert!(s.launched_jobs.min <= s.launched_jobs.mean);
            assert!(s.launched_jobs.mean <= s.launched_jobs.max);
        }
    }

    #[test]
    fn fixed_source_replays_the_supplied_trace() {
        let platform = platform_for(1);
        let trace = CurieTraceGenerator::new(9)
            .load_factor(0.4)
            .backlog_factor(0.1)
            .generate_for(&platform);
        let runner = CampaignRunner::new(small_spec())
            .with_source(TraceSource::Fixed(std::sync::Arc::new(trace)))
            .with_threads(2);
        let outcome = runner.run().unwrap();
        // Seeds collapse: one workload × 2 scenarios.
        assert_eq!(outcome.rows.len(), 2);
        assert!(outcome.rows.iter().all(|r| r.workload == "swf"));
        assert_eq!(outcome.stats.trace_cache_misses, 0);
    }

    #[test]
    fn invalid_specs_are_rejected_before_running() {
        let spec = CampaignSpec {
            cap_fractions: vec![2.0],
            ..small_spec()
        };
        assert!(CampaignRunner::new(spec).run().is_err());
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        let runner = CampaignRunner::new(small_spec()).with_threads(0);
        assert!(runner.resolved_threads() >= 1);
    }

    #[test]
    fn work_queues_hand_out_every_cell_exactly_once() {
        let pending = [3usize, 5, 8, 13, 21, 34];
        let queues = WorkQueues::seed(&pending, 3);
        // Worker 2 drains everything alone: 2 cells of its own, 4 stolen.
        let mut own = 0;
        let mut stolen = 0;
        let mut seen = Vec::new();
        while let Some((idx, was_stolen)) = queues.next(2) {
            seen.push(idx);
            if was_stolen {
                stolen += 1;
            } else {
                own += 1;
            }
        }
        assert_eq!(own, 2);
        assert_eq!(stolen, 4);
        seen.sort_unstable();
        assert_eq!(seen, pending);
    }
}
