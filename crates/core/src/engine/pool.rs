//! The process's lane pool: one set of persistent workers for every engine.
//!
//! Spawning OS threads per query costs hundreds of microseconds on some hosts —
//! comparable to an entire scan of a 10⁴-document shard — so scan lanes run on
//! parked workers that outlive every query. The workers belong to the
//! **process**, not to an engine: [`WorkerPool::shared`] spawns
//! `available_parallelism − 1` of them once (none on a one-core host) and every
//! [`super::SearchEngine`] holds a handle to that one pool, so a process that
//! builds k engines — a fleet's `NodeRunner`s, a test binary — runs the same
//! workers as a process that builds one. An engine's `scan_lanes` is only the
//! cap on how many lanes *one execution* asks this pool for. The shared pool
//! lives until the process exits; a private pool (tests inject one) joins its
//! workers on drop.
//!
//! Latency tricks that matter at microsecond scan times:
//!
//! * the **caller runs the last job inline**, so its dispatch sends overlap with its
//!   own share of the scanning instead of adding a wakeup round trip;
//! * the caller then **takes back every job no worker has started** and runs it
//!   inline (see below), and only then waits — for lanes a worker is really
//!   inside;
//! * the completion latch **spins briefly before parking** ([`LATCH_SPIN`]),
//!   because the straggler lane usually finishes within a few microseconds of
//!   the caller's own job.
//!
//! An idle worker likewise spin-polls for its next job before parking
//! ([`IDLE_SPIN`]). Both spins are bounded by **elapsed time**, not by an
//! iteration count ([`spin_until`]): a spin exists to save one park/unpark round
//! trip (35–66 µs measured), so it may burn a few hundred microseconds of a core
//! and no more, whereas an iteration bound means whatever the host's poll costs —
//! 50,000 `try_recv`s were 1.4 ms here, and 20,000 `PAUSE`s are several times
//! longer on some CPUs than on others. With one pool, `IDLE_SPIN` is a cost per
//! *process*: when every engine owned a pool, a fleet's three node engines kept
//! three idle workers spinning on two cores beside the threads carrying the next
//! query, and each added node cost a query about one more `IDLE_SPIN`.
//!
//! ## Crowding: an idle worker owns its core only while the callers leave one free
//!
//! Every caller is a lane on a core of its own. While at most `workers` calls
//! are in progress the host has a core to spare for each spinning worker, and
//! the idle spin is a plain `spin_loop` — a lone engine's calls never overlap,
//! so that is all it ever sees. Once a call starts while as many *others* are
//! in progress as the pool has workers, the callers alone fill the cores and
//! the pool is **crowded**: for the next [`CROWDED_CALLS`] calls an idle worker
//! **offers its core** (`yield_now`) every 64 polls, when it reads the clock
//! anyway. On the two-core host this was measured on, a thread that wakes onto
//! a spinning thread's core waits until the spinner gives the core up — that is
//! how every idle worker came to cost a fleet query about one `IDLE_SPIN` — and
//! a fleet round hops across ~20 threads, so with even one spinner left some of
//! them sat out the rest of a spin. With the offer they wait a few microseconds:
//! three blocks of fourteen alternating `fleet3` pairs (the offer on both spins,
//! on every idle spin, and as it is here) read `query_qps` +7 to +10 % at the
//! same median latency, with the runs closer together in all three — the
//! stalls inside a slice went, not its median. The mark is counted in
//! calls, not in time, so what a worker does depends on the calls before it and
//! never on how fast they came, and it outlasts the overlap because a fleet's
//! nodes overlap in most rounds, not in all (at least once in every 47 calls
//! where this was measured). It is *not* unconditional: offered by a lone
//! engine's worker, the core goes to a client or reader thread just when the
//! next scan needs the worker on it (`pair_closed` `query_p50_us` +7 %, worse
//! in 8 of 10 pairs; an offer on every poll also made the fleet's floor
//! bimodal). The latch spin never offers: its caller is the critical path.
//!
//! ## Sharing without coupling: take-once slots and the take-back rule
//!
//! Engines that share workers must not wait on each other's scans. Every
//! dispatched job therefore travels in a **take-once slot** (an `Arc` around a
//! `Mutex<Option<Job>>`): the worker the slot was sent to and the dispatching
//! caller both hold it, and whoever takes the job out owns and runs it. When the
//! caller has finished its own lane it takes back every job still in its slot —
//! one queued behind another engine's scan, say — and runs it on the spot; a
//! worker that pops the emptied slot later finds nothing to do. Every job still
//! runs exactly once, and [`WorkerPool::run_scoped`] never waits for a lane no
//! worker started. (The engine's lane jobs are drain loops over one shared
//! claim counter: by the time the caller's lane has run dry so has every other,
//! so a taken-back lane finds the counter past the last unit, flushes its count
//! and returns.)
//!
//! Concurrent callers must not all queue on worker 0 while worker 1 idles, so a
//! call deals its jobs from a **start index that rotates past the lanes already
//! out**: `busy` counts the jobs of calls still in progress, a call starts
//! dealing at worker `busy % workers`. Per-worker channels with this start were
//! chosen over one shared queue (every idle worker would spin on one lock beside
//! the dispatchers) and over a per-call counter (a lone caller — one engine, the
//! common deployment — would walk round the workers and find each one parked;
//! with `busy` it starts at 0 every time and meets the worker that is still
//! spinning from its last query).
//!
//! [`WorkerPool::run_scoped`] provides the scoped-thread guarantee that makes
//! borrowed jobs sound: it does not return until every submitted job has run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, RecvError, Sender, TryRecvError};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// How long an idle worker spin-polls for its next job before parking. Long enough
/// to catch the next dispatch of a closed-loop query stream (one scan plus one
/// round trip later), short enough that a process nobody is querying gives its
/// cores away.
const IDLE_SPIN: Duration = Duration::from_micros(500);

/// How long a caller spin-polls the completion latch before parking: a few
/// park/unpark round trips' worth, so a straggler a few microseconds behind is
/// met without a wake-up and a preempted one is not waited out on the core it
/// needs.
const LATCH_SPIN: Duration = Duration::from_micros(200);

/// How many calls a pool stays crowded after one that found the cores full
/// (see "Crowding" in the [module docs](self)).
const CROWDED_CALLS: usize = 1024;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Poll until `poll` yields or `bound` has elapsed (`None`). The clock is read
/// every 64 polls — the one loop behind both the idle spin and the latch spin —
/// and with `offer` the core is offered then to whoever is queued behind this
/// thread.
fn spin_until<T>(bound: Duration, offer: bool, mut poll: impl FnMut() -> Option<T>) -> Option<T> {
    if let Some(value) = poll() {
        return Some(value);
    }
    let started = Instant::now();
    let mut polls = 0u32;
    loop {
        std::hint::spin_loop();
        if let Some(value) = poll() {
            return Some(value);
        }
        polls = polls.wrapping_add(1);
        if polls.is_multiple_of(64) {
            if started.elapsed() >= bound {
                return None;
            }
            if offer {
                std::thread::yield_now();
            }
        }
    }
}

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
    /// A latch for `jobs` outstanding jobs, waited on by the calling thread.
    fn new(jobs: usize) -> Self {
        Latch {
            remaining: AtomicUsize::new(jobs),
            panicked: AtomicBool::new(false),
            failure: Mutex::new(None),
            waiter: std::thread::current(),
        }
    }

    /// Record a panicking job. The first failure wins; later ones only keep the
    /// panicked flag set.
    fn record_failure(&self, job: usize, payload: &(dyn std::any::Any + Send)) {
        self.panicked.store(true, Ordering::Relaxed);
        let mut failure = self.failure.lock().unwrap_or_else(PoisonError::into_inner);
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
        let done = || (self.remaining.load(Ordering::Acquire) == 0).then_some(());
        // Spin first: stragglers usually finish within microseconds of the caller.
        if spin_until(LATCH_SPIN, false, done).is_none() {
            while done().is_none() {
                // The timeout guards against a lost unpark between the load and park.
                std::thread::park_timeout(Duration::from_millis(1));
            }
        }
        self.panicked.load(Ordering::Relaxed)
    }
}

/// A dispatched job in its take-once slot (see the [module docs](self)), shared
/// by the worker it was dealt to and the dispatching caller.
struct Slot {
    /// The job, until its taker takes it out.
    job: Mutex<Option<Job>>,
    /// The job's index in its `run_scoped` call, for the failure context.
    index: usize,
    latch: Arc<Latch>,
}

impl Slot {
    /// Take the job out, if nobody has yet, and run it to the end; whoever gets
    /// here second finds the slot empty and returns. The lock is held across
    /// `Option::take` only, so it cannot be poisoned half-updated.
    fn run(&self) {
        let job = self
            .job
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        let Some(job) = job else {
            return;
        };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
            self.latch.record_failure(self.index, payload.as_ref());
        }
        self.latch.count_down();
    }
}

/// The jobs one `run_scoped` call has put in slots, and the latch that counts
/// them down. Dropping it settles them, so the call's frame — and the borrows
/// its jobs capture — cannot be torn down, normally or by unwinding, while a
/// job is unrun in a slot or running on a worker.
struct Dispatch<'p> {
    pool: &'p WorkerPool,
    latch: Arc<Latch>,
    slots: Vec<Arc<Slot>>,
}

impl Dispatch<'_> {
    /// The take-back rule: run inline every job no worker has started, then wait
    /// for the ones a worker is inside. Returns `true` if any job panicked.
    /// Idempotent — a second call finds every slot empty and the count at zero.
    fn settle(&self) -> bool {
        for slot in &self.slots {
            slot.run();
        }
        self.latch.wait()
    }
}

impl Drop for Dispatch<'_> {
    fn drop(&mut self) {
        self.settle();
        self.pool
            .busy
            .fetch_sub(self.slots.len(), Ordering::Relaxed);
        self.pool.callers.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A fixed set of parked worker threads executing borrowed jobs.
pub(crate) struct WorkerPool {
    senders: Vec<Sender<Arc<Slot>>>,
    handles: Vec<JoinHandle<()>>,
    /// Jobs of `run_scoped` calls still in progress: where the next call starts
    /// dealing (see the [module docs](self)). Like the two counters below a
    /// hint only — it publishes nothing, hence `Relaxed`.
    busy: AtomicUsize,
    /// `run_scoped` calls in progress.
    callers: AtomicUsize,
    /// Calls still to come in which the workers' idle spin offers its core: set
    /// to [`CROWDED_CALLS`] by a call that finds the cores full, run down by
    /// one per call, read by each worker as it goes idle.
    crowded: Arc<AtomicUsize>,
}

impl WorkerPool {
    /// **The** pool every engine of this process runs its lanes on:
    /// `available_parallelism − 1` workers (the calling thread is always a lane
    /// itself), spawned on first use and kept until the process exits.
    pub(crate) fn shared() -> &'static Arc<WorkerPool> {
        static SHARED: OnceLock<Arc<WorkerPool>> = OnceLock::new();
        SHARED.get_or_init(|| {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            Arc::new(WorkerPool::new(cores - 1))
        })
    }

    /// Spawn `workers` parked threads. Zero is legal: every job then runs on the
    /// calling thread.
    pub(crate) fn new(workers: usize) -> Self {
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        let crowded = Arc::new(AtomicUsize::new(0));
        for i in 0..workers {
            let (tx, rx) = channel::<Arc<Slot>>();
            senders.push(tx);
            let crowded = Arc::clone(&crowded);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("mkse-lane-{i}"))
                    .spawn(move || loop {
                        // Spin-poll briefly after each job: under sustained query
                        // traffic the next dispatch lands within microseconds, and
                        // skipping the park/unpark round trip more than pays for
                        // the busy-wait, which `IDLE_SPIN` bounds.
                        let offer = crowded.load(Ordering::Relaxed) > 0;
                        let polled = spin_until(IDLE_SPIN, offer, || match rx.try_recv() {
                            Ok(slot) => Some(Ok(slot)),
                            Err(TryRecvError::Empty) => None,
                            Err(TryRecvError::Disconnected) => Some(Err(RecvError)),
                        });
                        match polled.unwrap_or_else(|| rx.recv()) {
                            // A no-op if the dispatching caller has taken the
                            // job back.
                            Ok(slot) => slot.run(),
                            Err(RecvError) => return,
                        }
                    })
                    .expect("spawn lane worker"),
            );
        }
        WorkerPool {
            senders,
            handles,
            busy: AtomicUsize::new(0),
            callers: AtomicUsize::new(0),
            crowded,
        }
    }

    /// Number of worker threads.
    pub(crate) fn workers(&self) -> usize {
        self.senders.len()
    }

    /// Run every job to completion. Each job but the last is put in a take-once
    /// slot and dealt to a worker; the last runs inline on the calling thread,
    /// which then takes back and runs whatever no worker has started and waits
    /// for the rest (see the [module docs](self)). Panics (after all jobs
    /// settled) if any job panicked, naming the first failing job and forwarding
    /// its panic message.
    ///
    /// Blocking until completion is what lets callers hand in closures borrowing
    /// local state: no job can outlive this call.
    pub(crate) fn run_scoped<'env>(&self, mut jobs: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        let own_index = jobs.len().saturating_sub(1);
        let Some(own_job) = jobs.pop() else {
            return;
        };
        let latch = Arc::new(Latch::new(jobs.len()));
        let slots: Vec<Arc<Slot>> = jobs
            .into_iter()
            .enumerate()
            .map(|(index, job)| {
                // SAFETY: the job is erased to 'static only so that it can sit in
                // a slot a worker thread also holds. The slot protocol keeps every
                // borrow it captures inside 'env:
                // * a captured borrow is reachable only through the job, and the
                //   job only through its slot (nothing clones it);
                // * no worker sees a slot before `dispatch` below owns them all,
                //   and `dispatch` settles on drop — so once a job is shared,
                //   this frame cannot be left, on any exit path including
                //   unwinding (e.g. the `expect` on a send firing mid-dispatch),
                //   without `Dispatch::settle` having returned;
                // * the job leaves its slot exactly once — `Slot::run` takes it
                //   with an `Option::take` under the slot's mutex — and its taker
                //   runs it to the end, dropping the captures, before counting
                //   the latch down;
                // * the taker is either this caller (in `settle`, inside this
                //   frame and so inside 'env) or a worker, whose run `settle`
                //   waits out in `Latch::wait`;
                // * a slot a worker pops after that is empty — it holds `None`,
                //   nothing borrowed.
                #[allow(unsafe_code)] // the crate's one `unsafe`
                let job: Job =
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) };
                Arc::new(Slot {
                    job: Mutex::new(Some(job)),
                    index,
                    latch: Arc::clone(&latch),
                })
            })
            .collect();
        let start = self.busy.fetch_add(slots.len(), Ordering::Relaxed);
        // Count this call in: as many others in progress as there are workers
        // means the callers alone fill the cores (see "Crowding").
        if self.callers.fetch_add(1, Ordering::Relaxed) >= self.workers() {
            self.crowded.store(CROWDED_CALLS, Ordering::Relaxed);
        } else {
            let _ = self
                .crowded
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |left| {
                    left.checked_sub(1)
                });
        }
        let dispatch = Dispatch {
            pool: self,
            latch,
            slots,
        };
        // Deal round the workers from `start`; with no workers nothing is sent
        // and every job waits in its slot for `settle`.
        let workers = self.senders.iter().cycle();
        let workers = workers.skip(start % self.senders.len().max(1));
        for (slot, worker) in dispatch.slots.iter().zip(workers) {
            worker
                .send(Arc::clone(slot))
                .expect("lane worker exited prematurely");
        }
        if let Err(payload) = catch_unwind(AssertUnwindSafe(own_job)) {
            dispatch.latch.record_failure(own_index, payload.as_ref());
        }
        if dispatch.settle() {
            let context = dispatch
                .latch
                .failure
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
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
    fn a_pool_without_workers_runs_every_job_on_the_caller() {
        // What `shared()` builds on a one-core host.
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 0);
        let caller = std::thread::current().id();
        let mut ran_on = [None; 3];
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = ran_on
            .iter_mut()
            .map(|slot| {
                Box::new(move || *slot = Some(std::thread::current().id()))
                    as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_scoped(jobs);
        assert_eq!(ran_on, [Some(caller); 3]);
    }

    /// How long the coupling tests wait before calling a caller stuck.
    const PATIENCE: Duration = Duration::from_secs(5);

    /// Pin worker 0 of an idle `pool` under a caller "A" (the returned thread)
    /// until the returned sender fires. A's inline job returns only once job 0
    /// has started — which, with A's thread busy, only the worker can do — and
    /// job 0 then holds the worker.
    fn pin_worker_0(pool: &Arc<WorkerPool>) -> (JoinHandle<()>, Sender<()>) {
        let (started_tx, started_rx) = channel::<()>();
        let (pinned_tx, pinned_rx) = channel::<()>();
        let (release_tx, release_rx) = channel::<()>();
        let pool = Arc::clone(pool);
        let a = std::thread::spawn(move || {
            pool.run_scoped(vec![
                Box::new(move || {
                    started_tx.send(()).unwrap();
                    pinned_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                }) as Box<dyn FnOnce() + Send>,
                Box::new(move || started_rx.recv().unwrap()) as Box<dyn FnOnce() + Send>,
            ]);
        });
        pinned_rx.recv_timeout(PATIENCE).expect("worker 0 pinned");
        (a, release_tx)
    }

    #[test]
    fn a_caller_never_waits_for_a_lane_no_worker_started() {
        let pool = Arc::new(WorkerPool::new(1));
        let (a, release) = pin_worker_0(&pool);

        // Caller B's two dealt jobs sit in the channel behind the pinned worker;
        // B must take them back and return with all three run.
        let (done_tx, done_rx) = channel::<[bool; 3]>();
        let b = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                let mut ran = [false; 3];
                let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = ran
                    .iter_mut()
                    .map(|slot| Box::new(move || *slot = true) as Box<dyn FnOnce() + Send + '_>)
                    .collect();
                pool.run_scoped(jobs);
                done_tx.send(ran).unwrap();
            })
        };
        let ran = done_rx
            .recv_timeout(PATIENCE)
            .expect("B waited for a lane the pinned worker never started");
        assert_eq!(ran, [true; 3]);
        assert!(!a.is_finished(), "the worker is still pinned under A");

        // Released, the worker finishes A's job, pops B's emptied slots and
        // serves the next call.
        release.send(()).unwrap();
        a.join().unwrap();
        b.join().unwrap();
        let mut after = [false; 2];
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = after
            .iter_mut()
            .map(|slot| Box::new(move || *slot = true) as Box<dyn FnOnce() + Send + '_>)
            .collect();
        pool.run_scoped(jobs);
        assert_eq!(after, [true; 2]);
    }

    /// One call of two no-op jobs on the calling thread.
    fn call(pool: &WorkerPool) {
        pool.run_scoped(vec![
            Box::new(|| {}) as Box<dyn FnOnce() + Send>,
            Box::new(|| {}) as Box<dyn FnOnce() + Send>,
        ]);
    }

    #[test]
    fn a_call_that_finds_the_cores_full_marks_the_pool_crowded() {
        let crowded = |pool: &WorkerPool| pool.crowded.load(Ordering::Relaxed);
        // Calls that never overlap leave no mark, however many.
        let pool = Arc::new(WorkerPool::new(1));
        for _ in 0..3 {
            call(&pool);
        }
        assert_eq!(crowded(&pool), 0);

        // A's call in progress on a one-worker pool: caller and worker are the
        // two cores, so a call that starts now finds them full.
        let (a, release) = pin_worker_0(&pool);
        let b = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || call(&pool))
        };
        b.join().unwrap();
        assert_eq!(crowded(&pool), CROWDED_CALLS);
        release.send(()).unwrap();
        a.join().unwrap();

        // The mark outlasts the overlap and runs down by one per call.
        for left in (0..CROWDED_CALLS).rev() {
            call(&pool);
            assert_eq!(crowded(&pool), left);
        }
        call(&pool);
        assert_eq!(crowded(&pool), 0);

        // With two workers, one other call in progress leaves a core free.
        let pool = Arc::new(WorkerPool::new(2));
        let (a, release) = pin_worker_0(&pool);
        call(&pool);
        assert_eq!(crowded(&pool), 0);
        release.send(()).unwrap();
        a.join().unwrap();
    }

    #[test]
    fn concurrent_callers_are_dealt_from_different_workers() {
        // Two workers, two callers of one dealt job each: while A's call is in
        // progress (its job holds worker 0), B's job must be dealt to worker 1,
        // not queued behind A's. B's inline job waits for its dealt job to start,
        // so only a worker can run it — on worker 0 this would deadlock until
        // the timeout.
        let pool = Arc::new(WorkerPool::new(2));
        let (a, release) = pin_worker_0(&pool);

        let (ran_on_tx, ran_on_rx) = channel::<Option<String>>();
        let (b_started_tx, b_started_rx) = channel::<()>();
        let b = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                pool.run_scoped(vec![
                    Box::new(move || {
                        let name = std::thread::current().name().map(str::to_string);
                        ran_on_tx.send(name).unwrap();
                        b_started_tx.send(()).unwrap();
                    }) as Box<dyn FnOnce() + Send>,
                    Box::new(move || {
                        let _ = b_started_rx.recv_timeout(PATIENCE);
                    }) as Box<dyn FnOnce() + Send>,
                ]);
            })
        };
        let ran_on = ran_on_rx
            .recv_timeout(PATIENCE)
            .expect("B's dealt job queued behind A's on worker 0");
        assert_eq!(ran_on.as_deref(), Some("mkse-lane-1"));
        release.send(()).unwrap();
        a.join().unwrap();
        b.join().unwrap();
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
