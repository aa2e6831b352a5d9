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
//! A call is **one lane function run on k lanes**: [`WorkerPool::run_lanes`]
//! runs one borrowed `Fn(usize) + Sync` once per lane index. The engine's lanes
//! are all the same drain loop over one claim counter, so nothing else is ever
//! dispatched. Latency tricks that matter at microsecond scan times:
//!
//! * the **caller runs lane 0 itself**, after dealing lanes 1.. to workers, so
//!   its dispatch sends overlap with its own share of the scanning instead of
//!   adding a wakeup round trip;
//! * the caller then **takes back every lane no worker has started** and runs
//!   it inline (see below), and only then waits — for lanes a worker is really
//!   inside;
//! * the completion latch **spins briefly before parking** ([`LATCH_SPIN`]),
//!   because the straggler lane usually finishes within a few microseconds of
//!   the caller's own.
//!
//! An idle worker likewise spin-polls for its next lane before parking
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
//! dealt lane therefore travels in a **take-once slot** (an `Arc` around a
//! `Mutex<Option<…>>` holding the call's lane function): the worker the slot
//! was sent to and the dispatching caller both hold it, and whoever takes the
//! lane out runs it. When the caller has finished lane 0 it takes back every
//! lane still in its slot — one queued behind another engine's scan, say — and
//! runs it on the spot; a worker that pops the emptied slot later finds nothing
//! to do. Every lane still runs exactly once, and [`WorkerPool::run_lanes`]
//! never waits for a lane no worker started. (The engine's lanes are drain
//! loops over one shared claim counter: by the time the caller's lane has run
//! dry so has every other, so a taken-back lane finds the counter past the
//! last unit, flushes its count and returns.)
//!
//! Concurrent callers must not all queue on worker 0 while worker 1 idles, so a
//! call deals its lanes from a **start index that rotates past the lanes already
//! out**: `busy` counts the dealt lanes of calls still in progress, a call starts
//! dealing at worker `busy % workers`. Per-worker channels with this start were
//! chosen over one shared queue (every idle worker would spin on one lock beside
//! the dispatchers) and over a per-call counter (a lone caller — one engine, the
//! common deployment — would walk round the workers and find each one parked;
//! with `busy` it starts at 0 every time and meets the worker that is still
//! spinning from its last query).
//!
//! ## The one `unsafe`
//!
//! A lane function borrows the caller's frame — the planes, the batch's
//! queries, the result slots — and a worker thread is not scoped to that
//! frame, so [`WorkerPool::run_lanes`] erases the borrow's lifetime while the
//! slots hold it and does not return, normally or by unwinding, until no slot
//! does (its `SAFETY` note states the protocol). Nothing safe fits:
//! `std::thread::scope` spawns threads per call, ~0.5 ms each on the two-core
//! host this was measured on against a 10–20 µs scan, and an owned `'static`
//! lane function would need the planes and the batch's queries behind
//! per-call `Arc`s.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, RecvError, Sender, TryRecvError};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// How long an idle worker spin-polls for its next lane before parking. Long enough
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

/// A lane function with its borrow's lifetime erased, as a take-once slot
/// holds it (see [`WorkerPool::run_lanes`]).
type Lane = &'static (dyn Fn(usize) + Sync);

/// A lane's panic payload, on its way to the caller.
type Payload = Box<dyn Any + Send>;

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

/// Counts down the lanes of one `run_lanes` call and keeps the first panic.
struct Latch {
    remaining: AtomicUsize,
    /// The first panicking lane's payload, re-raised unchanged by the caller.
    panic: Mutex<Option<Payload>>,
    /// The dispatching thread, unparked when the count reaches zero.
    waiter: Thread,
}

impl Latch {
    /// A latch for `lanes` outstanding lanes, waited on by the calling thread.
    fn new(lanes: usize) -> Self {
        Latch {
            remaining: AtomicUsize::new(lanes),
            panic: Mutex::new(None),
            waiter: std::thread::current(),
        }
    }

    /// Count one settled lane down, keeping its panic if it is the first.
    fn count_down(&self, outcome: std::thread::Result<()>) {
        if let Err(payload) = outcome {
            (self.panic.lock().unwrap_or_else(PoisonError::into_inner)).get_or_insert(payload);
        }
        if self.remaining.fetch_sub(1, Ordering::Release) == 1 {
            self.waiter.unpark();
        }
    }

    /// Block until every lane settled, then hand over the first panic.
    fn wait(&self) -> Option<Payload> {
        let done = || (self.remaining.load(Ordering::Acquire) == 0).then_some(());
        // Spin first: stragglers usually finish within microseconds of the caller.
        if spin_until(LATCH_SPIN, false, done).is_none() {
            while done().is_none() {
                // The timeout guards against a lost unpark between the load and park.
                std::thread::park_timeout(Duration::from_millis(1));
            }
        }
        (self.panic.lock().unwrap_or_else(PoisonError::into_inner)).take()
    }
}

/// One lane of a call in its take-once slot (see the [module docs](self)),
/// shared by the worker it was dealt to and the dispatching caller.
struct Slot {
    /// The call's lane function, until this slot's taker takes it out.
    lane: Mutex<Option<Lane>>,
    /// The lane index the function runs with.
    index: usize,
    latch: Arc<Latch>,
}

impl Slot {
    /// Take the lane out, if nobody has yet, and run it to the end; whoever
    /// gets here second finds the slot empty and returns. The lock is held
    /// across `Option::take` only, so it cannot be poisoned half-updated.
    fn run(&self) {
        let lane = (self.lane.lock().unwrap_or_else(PoisonError::into_inner)).take();
        if let Some(lane) = lane {
            let outcome = catch_unwind(AssertUnwindSafe(|| lane(self.index)));
            self.latch.count_down(outcome);
        }
    }
}

/// The dealt lanes of one `run_lanes` call in their slots, which share one
/// latch. Dropping it settles them, so the call's frame — and the borrows
/// its lane function captures — cannot be torn down, normally or by
/// unwinding (lane 0, which the caller runs inside it, panicking say), while
/// a lane is unrun in a slot or running on a worker.
struct Dispatch<'p> {
    pool: &'p WorkerPool,
    slots: Vec<Arc<Slot>>,
}

impl Dispatch<'_> {
    /// The take-back rule: run every dealt lane no worker has started, then
    /// wait for the ones a worker is inside. Returns the first panic among
    /// them. Idempotent — a second call finds every slot empty, the count at
    /// zero and the panic taken.
    fn settle(&self) -> Option<Payload> {
        for slot in &self.slots {
            slot.run();
        }
        self.slots.first().and_then(|slot| slot.latch.wait())
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

/// A fixed set of parked worker threads running borrowed lanes.
pub(crate) struct WorkerPool {
    senders: Vec<Sender<Arc<Slot>>>,
    handles: Vec<JoinHandle<()>>,
    /// Dealt lanes of `run_lanes` calls still in progress: where the next call starts
    /// dealing (see the [module docs](self)). Like the two counters below a
    /// hint only — it publishes nothing, hence `Relaxed`.
    busy: AtomicUsize,
    /// `run_lanes` calls in progress.
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

    /// Spawn `workers` parked threads. Zero is legal: every lane then runs on
    /// the calling thread.
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
                        // Spin-poll briefly after each lane: under sustained query
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
                            // lane back.
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

    /// Run `lane(i)` once for every lane index `i < lanes`: lanes 1.. dealt
    /// to workers in take-once slots, then lane 0 on the calling thread, then
    /// any dealt lane no worker has started taken back by the caller (see the
    /// [module docs](self)). Once every lane has settled, a panic is re-raised
    /// with its payload unchanged — lane 0's, else the first dealt lane's.
    /// A call of one lane deals nothing and allocates nothing.
    ///
    /// Blocking until every lane has settled is what lets `lane` borrow the
    /// caller's frame.
    pub(crate) fn run_lanes(&self, lanes: usize, lane: &(dyn Fn(usize) + Sync)) {
        if lanes == 0 {
            return;
        }
        let dealt = lanes - 1;
        let start = self.busy.fetch_add(dealt, Ordering::Relaxed);
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
        let mut dispatch = Dispatch {
            pool: self,
            slots: Vec::new(),
        };
        if dealt > 0 {
            // SAFETY: the borrow is erased to 'static only so that it can sit
            // in the dealt lanes' slots, which a worker thread also holds. The
            // slot protocol keeps every use of it inside this call:
            // * the erased reference is reachable only through the slots'
            //   `Option`s (nothing copies it out but a slot's taker);
            // * no worker sees a slot before `dispatch` owns them all, and
            //   `dispatch` settles on drop — so once a slot is shared, this
            //   frame cannot be left, on any exit path including unwinding
            //   (lane 0 panicking, or the `expect` on a send firing
            //   mid-dispatch), without `Dispatch::settle` having returned;
            // * each slot gives the reference up exactly once — `Slot::run`
            //   takes it with an `Option::take` under the slot's mutex — and
            //   its taker runs the lane to the end before counting the latch
            //   down;
            // * the taker is either this caller (in `settle`, inside this
            //   frame) or a worker, whose run `settle` waits out in
            //   `Latch::wait`;
            // * a slot a worker pops after that is empty — it holds `None`,
            //   nothing borrowed.
            #[allow(unsafe_code)] // the crate's one `unsafe`
            let erased: Lane =
                unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), Lane>(lane) };
            let latch = Arc::new(Latch::new(dealt));
            dispatch.slots = (1..lanes)
                .map(|index| {
                    Arc::new(Slot {
                        lane: Mutex::new(Some(erased)),
                        index,
                        latch: Arc::clone(&latch),
                    })
                })
                .collect();
            // Deal round the workers from `start`; with no workers nothing is
            // sent and every lane waits in its slot for `settle`.
            let workers = self.senders.iter().cycle();
            let workers = workers.skip(start % self.senders.len().max(1));
            for (slot, worker) in dispatch.slots.iter().zip(workers) {
                worker
                    .send(Arc::clone(slot))
                    .expect("lane worker exited prematurely");
            }
        }
        // Lane 0 is the caller's own; should it panic, dropping `dispatch`
        // settles the dealt lanes before the panic leaves this frame.
        lane(0);
        if let Some(payload) = dispatch.settle() {
            resume_unwind(payload);
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
    use std::sync::Barrier;

    /// Run `lanes` lanes on `pool`, each putting `what(lane)` in its own slot;
    /// the slots in lane order.
    fn each_lane<T: Send + Sync + std::fmt::Debug>(
        pool: &WorkerPool,
        lanes: usize,
        what: impl Fn(usize) -> T + Sync,
    ) -> Vec<T> {
        let slots: Vec<OnceLock<T>> = (0..lanes).map(|_| OnceLock::new()).collect();
        pool.run_lanes(lanes, &|lane| {
            slots[lane].set(what(lane)).expect("a lane runs once");
        });
        (slots.into_iter())
            .map(|slot| slot.into_inner().expect("every lane ran"))
            .collect()
    }

    /// The name of the thread running the caller.
    fn thread_name() -> Option<String> {
        std::thread::current().name().map(str::to_string)
    }

    #[test]
    fn jobs_borrow_local_state_and_all_run() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.workers(), 3);
        let base: Vec<usize> = (0..10).collect();
        let doubled = each_lane(&pool, 10, |lane| base[lane] * 2);
        assert_eq!(doubled, (0..10).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parked_worker_still_runs_the_next_job() {
        let pool = WorkerPool::new(2);
        let run = |round: usize| each_lane(&pool, 3, |lane| round + lane);
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
        let ran_on = each_lane(&pool, 3, |_| std::thread::current().id());
        assert_eq!(ran_on, [caller; 3]);
    }

    /// How long the coupling tests wait before calling a caller stuck.
    const PATIENCE: Duration = Duration::from_secs(5);

    /// Pin worker 0 of an idle `pool` under a caller "A" (the returned thread)
    /// until the returned sender fires. A's lane 0 returns only once lane 1
    /// has started — which, with A's thread busy in lane 0, only the worker can
    /// do — and lane 1 then holds the worker.
    fn pin_worker_0(pool: &Arc<WorkerPool>) -> (JoinHandle<()>, Sender<()>) {
        let (pinned_tx, pinned_rx) = channel::<()>();
        let (release_tx, release_rx) = channel::<()>();
        let release_rx = Mutex::new(release_rx);
        let pool = Arc::clone(pool);
        let a = std::thread::spawn(move || {
            let started = Barrier::new(2);
            pool.run_lanes(2, &|lane| {
                started.wait();
                if lane == 1 {
                    pinned_tx.send(()).unwrap();
                    release_rx.lock().unwrap().recv().unwrap();
                }
            });
        });
        pinned_rx.recv_timeout(PATIENCE).expect("worker 0 pinned");
        (a, release_tx)
    }

    #[test]
    fn a_caller_never_waits_for_a_lane_no_worker_started() {
        let pool = Arc::new(WorkerPool::new(1));
        let (a, release) = pin_worker_0(&pool);

        // Caller B's lanes 1 and 2 sit in the channel behind the pinned
        // worker; B must take them back and return with all three run.
        let runs = Arc::new(AtomicUsize::new(0));
        let (done_tx, done_rx) = channel::<Vec<usize>>();
        let b = {
            let (pool, runs) = (Arc::clone(&pool), Arc::clone(&runs));
            std::thread::spawn(move || {
                let ran = each_lane(&pool, 3, |lane| {
                    runs.fetch_add(1, Ordering::Relaxed);
                    lane
                });
                done_tx.send(ran).unwrap();
            })
        };
        let ran = done_rx
            .recv_timeout(PATIENCE)
            .expect("B waited for a lane the pinned worker never started");
        assert_eq!(ran, [0, 1, 2]);
        assert!(!a.is_finished(), "the worker is still pinned under A");

        // Released, the worker finishes A's lane, pops B's emptied slots and
        // serves the next call — whose lane 0 waits for lane 1 to start, so
        // only the worker runs lane 1, after both of B's slots. An emptied
        // slot runs nothing: B's lane function ran exactly 3 times.
        release.send(()).unwrap();
        a.join().unwrap();
        b.join().unwrap();
        let started = Barrier::new(2);
        let after = each_lane(&pool, 2, |_| {
            started.wait();
            thread_name()
        });
        assert_eq!(after[1].as_deref(), Some("mkse-lane-0"));
        assert_eq!(runs.load(Ordering::Relaxed), 3);
    }

    /// One call of two no-op lanes.
    fn call(pool: &WorkerPool) {
        pool.run_lanes(2, &|_| {});
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
        // Two workers, two callers of one dealt lane each: while A's call is
        // in progress (its lane 1 holds worker 0), B's lane 1 must be dealt to
        // worker 1, not queued behind A's. B's lane 0 waits for lane 1 to
        // start, so only a worker can run it — on worker 0 it would wait out
        // the patience and then be taken back onto B's own thread.
        let pool = Arc::new(WorkerPool::new(2));
        let (a, release) = pin_worker_0(&pool);
        let b = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                let (started_tx, started_rx) = channel::<()>();
                let started_rx = Mutex::new(started_rx);
                each_lane(&pool, 2, |lane| {
                    if lane == 1 {
                        started_tx.send(()).unwrap();
                    } else {
                        let _ = started_rx.lock().unwrap().recv_timeout(PATIENCE);
                    }
                    thread_name()
                })
            })
        };
        let ran_on = b.join().unwrap();
        assert_eq!(
            ran_on[1].as_deref(),
            Some("mkse-lane-1"),
            "B's dealt lane queued behind A's on worker 0"
        );
        release.send(()).unwrap();
        a.join().unwrap();
    }

    #[test]
    fn empty_job_list_is_a_no_op() {
        let pool = WorkerPool::new(2);
        pool.run_lanes(0, &|_| unreachable!("no lane to run"));
        assert_eq!(pool.callers.load(Ordering::Relaxed), 0);
    }

    #[test]
    #[should_panic(expected = "inline boom")]
    fn inline_job_panics_surface() {
        let pool = WorkerPool::new(2);
        // Lane 0 — the caller's own — panics: every other lane still runs, and
        // the payload comes back as raised, not wrapped.
        let ran = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_lanes(3, &|lane| {
                ran.fetch_add(1, Ordering::Relaxed);
                if lane == 0 {
                    std::panic::panic_any(17u32);
                }
            })
        }));
        let payload = result.expect_err("lane 0 panicked");
        assert_eq!(payload.downcast_ref::<u32>(), Some(&17));
        assert_eq!(ran.load(Ordering::Relaxed), 3);
        pool.run_lanes(2, &|lane| {
            if lane == 0 {
                panic!("inline boom");
            }
        });
    }

    #[test]
    #[should_panic(expected = "lane 2 exploded")]
    fn worker_job_panics_surface_after_all_jobs_settle() {
        let pool = WorkerPool::new(2);
        pool.run_lanes(3, &|lane| {
            if lane == 2 {
                panic!("lane 2 exploded");
            }
        });
    }

    #[test]
    fn pool_survives_a_panicked_job() {
        let pool = WorkerPool::new(1);
        // Lane 0 waits for lane 1 to start, so the worker runs lane 1 — and
        // catches its panic.
        let started = Barrier::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_lanes(2, &|lane| {
                started.wait();
                if lane == 1 {
                    panic!("first");
                }
            })
        }));
        assert!(result.is_err());
        // The worker keeps serving lanes.
        let after = each_lane(&pool, 2, |_| {
            started.wait();
            thread_name()
        });
        assert_eq!(after[1].as_deref(), Some("mkse-lane-0"));
    }
}
