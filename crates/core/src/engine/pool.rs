//! A persistent worker pool for shard scans.
//!
//! Spawning OS threads per query costs hundreds of microseconds on some hosts —
//! comparable to an entire scan of a 10⁴-document shard — so the engine keeps a pool
//! of parked workers alive for its whole lifetime and hands them borrowed scan jobs
//! per query. Two latency tricks matter at microsecond scan times:
//!
//! * the **caller runs the last job inline**, so its dispatch sends overlap with its
//!   own share of the scanning instead of adding a wakeup round trip;
//! * the completion latch **spins briefly before parking**, because the straggler
//!   shard usually finishes within a few microseconds of the caller's own job.
//!
//! An idle worker likewise spin-polls for its next job before parking, and that
//! spin is bounded by **elapsed time** (`IDLE_SPIN`), not by an iteration count:
//! the spin exists to save one park/unpark round trip (35–66 µs measured), so it
//! may burn a few hundred microseconds of an otherwise idle core and no more. An
//! iteration bound means whatever the host's `try_recv` costs — 50,000 polls were
//! 1.4 ms here — and several engines in one process (a fleet's nodes) then spin
//! for longer than a query takes, on cores the threads with real work need.
//!
//! [`WorkerPool::run_scoped`] provides the scoped-thread guarantee that makes
//! borrowed jobs sound: it does not return until every submitted job has run.

use crate::telemetry::LaneStats;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// How long an idle worker spin-polls for its next job before parking. Long enough
/// to catch the next dispatch of a closed-loop query stream (one scan plus one
/// round trip later), short enough that an engine nobody is querying gives its
/// core away.
const IDLE_SPIN: Duration = Duration::from_micros(500);

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Render a panic payload for the propagated error message (shared with the
/// engine's per-shard panic-context wrapper).
pub(super) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Tracks outstanding jobs of one `run_scoped` call and whether any panicked.
struct Latch {
    remaining: AtomicUsize,
    panicked: AtomicBool,
    /// Context of the **first** panicking job (job index + its panic message), so
    /// the propagated panic names the failing lane instead of erasing it.
    failure: Mutex<Option<String>>,
    /// The dispatching thread, unparked when the count reaches zero.
    waiter: Thread,
}

impl Latch {
    fn new() -> Self {
        Latch {
            remaining: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            failure: Mutex::new(None),
            waiter: std::thread::current(),
        }
    }

    /// Register one job about to be dispatched. Counting up per send (instead of
    /// pre-loading the total) keeps [`Latch::wait`] correct even if dispatch stops
    /// partway: only jobs actually handed to a worker are waited for.
    fn add_job(&self) {
        self.remaining.fetch_add(1, Ordering::Release);
    }

    /// Record a panicking job. The first failure wins; later ones only keep the
    /// panicked flag set.
    fn record_failure(&self, job: usize, payload: &(dyn std::any::Any + Send)) {
        self.panicked.store(true, Ordering::Relaxed);
        let mut failure = self.failure.lock().unwrap();
        if failure.is_none() {
            *failure = Some(format!("job {job}: {}", panic_message(payload)));
        }
    }

    fn count_down(&self) {
        if self.remaining.fetch_sub(1, Ordering::Release) == 1 {
            self.waiter.unpark();
        }
    }

    /// Block until every job finished; returns `true` if any panicked.
    fn wait(&self) -> bool {
        // Spin first: stragglers usually finish within microseconds of the caller.
        for _ in 0..20_000 {
            if self.remaining.load(Ordering::Acquire) == 0 {
                return self.panicked.load(Ordering::Relaxed);
            }
            std::hint::spin_loop();
        }
        while self.remaining.load(Ordering::Acquire) != 0 {
            // The timeout guards against a lost unpark between the load and park.
            std::thread::park_timeout(Duration::from_millis(1));
        }
        self.panicked.load(Ordering::Relaxed)
    }
}

/// A fixed set of parked worker threads executing borrowed jobs.
pub(crate) struct WorkerPool {
    senders: Vec<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `workers` parked threads (at least one).
    pub(crate) fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let (tx, rx) = channel::<Job>();
            senders.push(tx);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("mkse-shard-{i}"))
                    .spawn(move || loop {
                        // Spin-poll briefly after each job: under sustained query
                        // traffic the next dispatch lands within microseconds, and
                        // skipping the park/unpark round trip more than pays for
                        // the busy-wait, which `IDLE_SPIN` bounds (the clock is
                        // read every 64 polls).
                        let spin_started = Instant::now();
                        let mut polls = 0u32;
                        let next = loop {
                            match rx.try_recv() {
                                Ok(job) => break Some(job),
                                Err(std::sync::mpsc::TryRecvError::Empty) => {}
                                Err(std::sync::mpsc::TryRecvError::Disconnected) => return,
                            }
                            polls += 1;
                            if polls.is_multiple_of(64) && spin_started.elapsed() >= IDLE_SPIN {
                                break None;
                            }
                            std::hint::spin_loop();
                        };
                        match next.map_or_else(|| rx.recv(), Ok) {
                            Ok(job) => job(),
                            Err(_) => return,
                        }
                    })
                    .expect("spawn shard worker"),
            );
        }
        WorkerPool { senders, handles }
    }

    /// Number of worker threads.
    pub(crate) fn workers(&self) -> usize {
        self.senders.len()
    }

    /// Run every job to completion. Jobs are distributed round-robin over the
    /// workers except the last, which runs inline on the calling thread; panics
    /// (after all jobs settled) if any job panicked, naming the first failing job
    /// and forwarding its panic message.
    ///
    /// Blocking until completion is what lets callers hand in closures borrowing
    /// local state: no job can outlive this call.
    pub(crate) fn run_scoped<'env>(&self, mut jobs: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        let own_index = jobs.len().saturating_sub(1);
        let Some(own_job) = jobs.pop() else {
            return;
        };
        let latch = Arc::new(Latch::new());
        // Uphold the transmute's safety argument on *every* exit path, including
        // unwinding (e.g. a send().expect() firing mid-dispatch): the guard waits
        // for all already-dispatched jobs before this frame — and the borrows the
        // jobs capture — can be torn down. On the normal path the explicit
        // `latch.wait()` below has already drained the count, so the guard's wait
        // returns immediately.
        struct WaitOnDrop(Arc<Latch>);
        impl Drop for WaitOnDrop {
            fn drop(&mut self) {
                self.0.wait();
            }
        }
        let _guard = WaitOnDrop(Arc::clone(&latch));

        for (i, job) in jobs.into_iter().enumerate() {
            // SAFETY: the job is erased to 'static only to travel through the
            // channel. Every borrow it captures lives at least as long as this
            // function's caller frame, and the frame cannot be exited — normally or
            // by unwinding — until `latch.wait()` (directly or via `_guard`) has
            // seen the worker finish the job, so no borrow is ever dangling.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) };
            let latch_for_job = Arc::clone(&latch);
            let wrapped: Job = Box::new(move || {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
                    latch_for_job.record_failure(i, payload.as_ref());
                }
                latch_for_job.count_down();
            });
            latch.add_job();
            self.senders[i % self.senders.len()]
                .send(wrapped)
                .expect("shard worker exited prematurely");
        }
        if let Err(payload) = catch_unwind(AssertUnwindSafe(own_job)) {
            latch.record_failure(own_index, payload.as_ref());
        }
        if latch.wait() {
            let context = latch
                .failure
                .lock()
                .unwrap()
                .take()
                .unwrap_or_else(|| "<missing failure context>".to_string());
            panic!("shard scan panicked: {context}");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channels ends each worker's recv loop.
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Per-lane work-stealing deques over a fixed slate of work units.
///
/// The engine's executor (`run_units`) carves a query's shard scans into `total`
/// scan units (indices `0..total`) and deals each lane a contiguous slice up front.
/// A lane **pops its own slice from the head** — walking its units in ascending
/// index order, the cache-friendly direction of a plane sweep — and, once its
/// slice is drained, **steals from the tail** of another lane's slice, the end
/// the victim will reach last. Each lane's state is one packed `AtomicU64`
/// (head in the high 32 bits, tail in the low 32; the slice's unclaimed units
/// are `head..tail`), so owner pops and thief steals arbitrate over a single
/// compare-exchange: every unit is claimed exactly once, with no locks and no
/// per-unit allocation. The deques only hand out *indices*; result placement
/// stays deterministic because callers write each unit's result into its own
/// pre-reserved slot.
pub(super) struct StealDeques {
    lanes: Vec<AtomicU64>,
}

impl StealDeques {
    /// Deal units `0..total` onto `lanes` contiguous slices, balanced to within
    /// one unit (the first `total % lanes` slices get the extra).
    pub(super) fn new(total: usize, lanes: usize) -> Self {
        assert!(lanes > 0, "at least one lane");
        assert!(u32::try_from(total).is_ok(), "unit index must fit in u32");
        let (base, extra) = (total / lanes, total % lanes);
        let mut lo = 0u64;
        StealDeques {
            lanes: (0..lanes as u64)
                .map(|l| {
                    let hi = lo + base as u64 + u64::from(l < extra as u64);
                    let packed = AtomicU64::new((lo << 32) | hi);
                    lo = hi;
                    packed
                })
                .collect(),
        }
    }

    /// Claim the next unit for `lane`: the head of its own slice, or — once that
    /// is drained — the tail of the first other slice with work left. `None`
    /// when every unit is claimed. (The engine always claims through
    /// [`Self::next_tracked`]; this stat-less form serves the deque tests.)
    #[cfg(test)]
    pub(super) fn next(&self, lane: usize) -> Option<usize> {
        self.next_tracked(lane, &mut LaneStats::default())
    }

    /// [`Self::next`] plus scheduler accounting into the caller's scratch
    /// [`LaneStats`]: executed units, successful steals, lost CAS races and
    /// work-less victim sweeps. The stats are plain `u64`s the lane owns — the
    /// claim path stays lock-free and allocation-free; the caller flushes the
    /// accumulated stats to the telemetry registry once, after draining.
    pub(super) fn next_tracked(&self, lane: usize, stats: &mut LaneStats) -> Option<usize> {
        if let Some(unit) = self.pop_own(lane, stats) {
            stats.executed += 1;
            return Some(unit);
        }
        match self.steal(lane, stats) {
            Some(unit) => {
                stats.executed += 1;
                stats.stolen += 1;
                Some(unit)
            }
            None => {
                stats.idle_polls += 1;
                None
            }
        }
    }

    /// Pop the head of `lane`'s own slice.
    fn pop_own(&self, lane: usize, stats: &mut LaneStats) -> Option<usize> {
        let slot = &self.lanes[lane];
        let mut cur = slot.load(Ordering::Acquire);
        loop {
            let (head, tail) = (cur >> 32, cur & 0xffff_ffff);
            if head >= tail {
                return None;
            }
            match slot.compare_exchange_weak(
                cur,
                ((head + 1) << 32) | tail,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(head as usize),
                Err(seen) => {
                    stats.failed_cas += 1;
                    cur = seen;
                }
            }
        }
    }

    /// Steal the tail unit of the first non-empty victim slice, scanning the
    /// other lanes in cyclic order from `thief + 1` (spreads concurrent thieves
    /// over distinct victims instead of contending on lane 0).
    fn steal(&self, thief: usize, stats: &mut LaneStats) -> Option<usize> {
        let lanes = self.lanes.len();
        for offset in 1..lanes {
            let victim = &self.lanes[(thief + offset) % lanes];
            let mut cur = victim.load(Ordering::Acquire);
            loop {
                let (head, tail) = (cur >> 32, cur & 0xffff_ffff);
                if head >= tail {
                    break;
                }
                match victim.compare_exchange_weak(
                    cur,
                    (head << 32) | (tail - 1),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => return Some(tail as usize - 1),
                    Err(seen) => {
                        stats.failed_cas += 1;
                        cur = seen;
                    }
                }
            }
        }
        None
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_borrow_local_state_and_all_run() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.workers(), 3);
        let mut results = vec![0u64; 10];
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = results
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| {
                Box::new(move || {
                    *slot = (i as u64) * 2;
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_scoped(jobs);
        assert_eq!(results, (0..10u64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parked_worker_still_runs_the_next_job() {
        let pool = WorkerPool::new(2);
        let run = |round: u64| {
            let mut results = [0u64; 3];
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = results
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| {
                    Box::new(move || *slot = round + i as u64) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run_scoped(jobs);
            results
        };
        assert_eq!(run(10), [10, 11, 12]);
        // Well past the spin bound: both workers have given up polling and
        // parked in `recv`; the next dispatch must wake them.
        std::thread::sleep(IDLE_SPIN * 20);
        assert_eq!(run(20), [20, 21, 22]);
    }

    #[test]
    fn empty_job_list_is_a_no_op() {
        let pool = WorkerPool::new(2);
        pool.run_scoped(Vec::new());
    }

    #[test]
    #[should_panic(expected = "shard scan panicked")]
    fn worker_job_panics_surface_after_all_jobs_settle() {
        let pool = WorkerPool::new(2);
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
            Box::new(|| panic!("boom")),
            Box::new(|| {}),
            Box::new(|| {}),
        ];
        pool.run_scoped(jobs);
    }

    #[test]
    #[should_panic(expected = "shard scan panicked")]
    fn inline_job_panics_surface() {
        let pool = WorkerPool::new(2);
        // The last job runs inline on the caller thread.
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> =
            vec![Box::new(|| {}), Box::new(|| panic!("inline boom"))];
        pool.run_scoped(jobs);
    }

    #[test]
    fn propagated_panic_names_the_failing_job_and_message() {
        let pool = WorkerPool::new(2);
        // Job 1 (a worker job) panics; the propagated message must identify it.
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_scoped(vec![
                Box::new(|| {}) as Box<dyn FnOnce() + Send>,
                Box::new(|| panic!("lane exploded")) as Box<dyn FnOnce() + Send>,
                Box::new(|| {}) as Box<dyn FnOnce() + Send>,
            ]);
        }));
        let message = panic_message(result.expect_err("must panic").as_ref());
        assert!(
            message.contains("shard scan panicked: job 1: lane exploded"),
            "unexpected context: {message}"
        );

        // The inline (caller-thread) job is named too.
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_scoped(vec![
                Box::new(|| {}) as Box<dyn FnOnce() + Send>,
                Box::new(|| panic!("inline boom")) as Box<dyn FnOnce() + Send>,
            ]);
        }));
        let message = panic_message(result.expect_err("must panic").as_ref());
        assert!(
            message.contains("job 1: inline boom"),
            "unexpected context: {message}"
        );
    }

    #[test]
    fn non_string_panic_payloads_get_a_placeholder() {
        let pool = WorkerPool::new(1);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_scoped(vec![
                Box::new(|| std::panic::panic_any(17u32)) as Box<dyn FnOnce() + Send>,
                Box::new(|| {}) as Box<dyn FnOnce() + Send>,
            ]);
        }));
        let message = panic_message(result.expect_err("must panic").as_ref());
        assert!(message.contains("<non-string panic payload>"), "{message}");
    }

    #[test]
    fn steal_deques_owner_pops_head_then_steals_victim_tail() {
        // Lane 0 owns 0..4, lane 1 owns 4..8. Draining everything through lane 0
        // must walk its own slice head-first, then eat lane 1's from the tail.
        let deques = StealDeques::new(8, 2);
        let drained: Vec<usize> = std::iter::from_fn(|| deques.next(0)).collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 7, 6, 5, 4]);
        assert_eq!(deques.next(0), None);
        assert_eq!(deques.next(1), None, "nothing left for the owner either");
    }

    #[test]
    fn steal_deques_partition_is_contiguous_and_balanced() {
        // 10 units over 4 lanes: slices of 3, 3, 2, 2, in index order.
        let deques = StealDeques::new(10, 4);
        let mut scratch = LaneStats::default();
        let mut slices = Vec::new();
        for lane in 0..4 {
            slices.push(
                std::iter::from_fn(|| deques.pop_own(lane, &mut scratch)).collect::<Vec<_>>(),
            );
        }
        assert_eq!(
            slices,
            vec![vec![0, 1, 2], vec![3, 4, 5], vec![6, 7], vec![8, 9]]
        );
        // Fewer units than lanes: the surplus lanes start empty but can steal.
        let deques = StealDeques::new(2, 4);
        assert_eq!(deques.pop_own(3, &mut scratch), None);
        assert_eq!(deques.next(3), Some(0), "lane 3 steals lane 0's only unit");
        assert_eq!(deques.next(2), Some(1));
        assert_eq!(deques.next(0), None);
        // Empty slate.
        let deques = StealDeques::new(0, 3);
        assert!((0..3).all(|lane| deques.next(lane).is_none()));
    }

    #[test]
    fn next_tracked_accounts_pops_steals_and_idle_polls() {
        // Lane 0 owns 0..2, lane 1 owns 2..4. Lane 0 drains its own slice,
        // steals lane 1's tail twice, then sweeps idle.
        let deques = StealDeques::new(4, 2);
        let mut stats = LaneStats::default();
        let drained: Vec<usize> =
            std::iter::from_fn(|| deques.next_tracked(0, &mut stats)).collect();
        assert_eq!(drained, vec![0, 1, 3, 2]);
        assert_eq!(stats.executed, 4);
        assert_eq!(stats.stolen, 2);
        assert_eq!(
            stats.idle_polls, 1,
            "the terminating None is one idle sweep"
        );
        assert_eq!(stats.failed_cas, 0, "no contention single-threaded");
        // The other lane finds nothing: pure idle polls, nothing executed.
        let mut other = LaneStats::default();
        assert_eq!(deques.next_tracked(1, &mut other), None);
        assert_eq!(
            other,
            LaneStats {
                idle_polls: 1,
                ..LaneStats::default()
            }
        );
    }

    #[test]
    fn steal_deques_concurrent_lanes_claim_every_unit_exactly_once() {
        // 4 real threads hammer one slate; every unit must be claimed exactly
        // once across lanes no matter how pops and steals interleave.
        const TOTAL: usize = 20_000;
        const LANES: usize = 4;
        let pool = WorkerPool::new(LANES - 1);
        let deques = StealDeques::new(TOTAL, LANES);
        let mut claimed: Vec<Vec<usize>> = vec![Vec::new(); LANES];
        {
            let deques = &deques;
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = claimed
                .iter_mut()
                .enumerate()
                .map(|(lane, out)| {
                    Box::new(move || {
                        while let Some(unit) = deques.next(lane) {
                            out.push(unit);
                        }
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run_scoped(jobs);
        }
        let mut all: Vec<usize> = claimed.into_iter().flatten().collect();
        assert_eq!(all.len(), TOTAL, "no unit lost or double-claimed");
        all.sort_unstable();
        assert!(all.iter().enumerate().all(|(i, &u)| i == u));
    }

    #[test]
    fn pool_survives_a_panicked_job() {
        let pool = WorkerPool::new(1);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_scoped(vec![
                Box::new(|| panic!("first")) as Box<dyn FnOnce() + Send>,
                Box::new(|| {}) as Box<dyn FnOnce() + Send>,
            ]);
        }));
        assert!(result.is_err());
        // The worker caught the panic and keeps serving jobs.
        let mut ran = false;
        pool.run_scoped(vec![
            Box::new(|| {}) as Box<dyn FnOnce() + Send + '_>,
            Box::new(|| ran = true) as Box<dyn FnOnce() + Send + '_>,
        ]);
        assert!(ran);
    }
}
