//! The executor: a flat slate of scan units, claimed by the engine's lanes
//! from one shared counter (see the [engine docs](crate::engine), "Scheduling").

use super::{SearchEngine, ShardScan};
use crate::bitindex::BitIndex;
use crate::scanplane::Sweeper;
use crate::telemetry::{LabelledCounter, Stage, Telemetry};
use std::cell::RefCell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Chunks per scan unit: 8 × [`crate::scanplane::CHUNK`] = 8192
/// documents — a few tens of microseconds of sweeping, coarse enough that
/// claim traffic is noise yet fine enough to balance shards across lanes.
pub(super) const UNIT_CHUNKS: usize = 8;

thread_local! {
    /// This thread's sweep state. Whichever lane of whichever execution runs
    /// on the thread resets it and sweeps into it, so a warm lane allocates
    /// nothing to scan.
    static SWEEPER: RefCell<Sweeper> = RefCell::default();
}

/// How many matches and results this thread's sweeper keeps room for.
#[cfg(test)]
pub(super) fn retained() -> (usize, usize) {
    SWEEPER.with_borrow(Sweeper::retained)
}

/// The shared claim counter of one execution, on a cache line of
/// its own: the line every lane writes holds nothing else of the caller's
/// frame.
#[repr(align(128))]
pub(super) struct ClaimCounter(AtomicUsize);

/// One unit of scan work (see the [engine docs](crate::engine)): a chunk range
/// of one selected shard's plane. `pos` indexes the *selection* (the plan's
/// row), not the store.
#[derive(Debug, PartialEq, Eq)]
pub(super) struct ScanUnit {
    pub(super) pos: usize,
    pub(super) shard: usize,
    pub(super) chunks: Range<usize>,
}

/// One scan of the plan: shard `.0` sweeps the `(query, result)` pairs
/// `work[.1]` (see [`SearchEngine::scan_plan`]).
pub(super) type PlanRow = (usize, Range<usize>);

/// Render a panic payload for the shard-naming context of a scan panic.
pub(super) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// One lane's claims on an execution's slate: each `next` claims the next
/// unit index from the shared counter, until the counter passes the last
/// unit. Each claimed unit is timed into [`Stage::UnitScan`] (when spans are
/// on) from its claim to the next one.
pub(super) struct Claims<'a> {
    units: &'a [ScanUnit],
    counter: &'a ClaimCounter,
    /// The registry to time units into; `None` when spans are off.
    timing: Option<&'a Telemetry>,
    /// The unit being run, and when its run started.
    current: Option<(usize, Option<Instant>)>,
    /// Units claimed so far.
    ran: u64,
}

impl Claims<'_> {
    /// The unit claimed last is done: record its time.
    fn close(&mut self) {
        if let (Some((_, Some(started))), Some(telemetry)) = (self.current.take(), self.timing) {
            let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            telemetry.record_duration(Stage::UnitScan, ns);
        }
    }
}

impl<'a> Iterator for Claims<'a> {
    type Item = (usize, &'a ScanUnit);

    fn next(&mut self) -> Option<(usize, &'a ScanUnit)> {
        self.close();
        // `Relaxed`: the counter publishes no data. Each index is claimed
        // once because a fetch_add is one indivisible read-modify-write.
        let index = self.counter.0.fetch_add(1, Ordering::Relaxed);
        let unit = self.units.get(index)?;
        self.current = Some((index, self.timing.map(|_| Instant::now())));
        self.ran += 1;
        Some((index, unit))
    }
}

impl SearchEngine {
    /// Carve the selected shards into scan units, in selection order (see the
    /// [engine docs](crate::engine)): ascending [`UNIT_CHUNKS`]-chunk ranges of each
    /// shard's plane (= slot order within the shard; an empty plane yields no
    /// unit).
    pub(super) fn carve_units<I>(&self, shard_ids: I) -> Vec<ScanUnit>
    where
        I: IntoIterator<Item = usize>,
        I::IntoIter: Clone,
    {
        let shard_ids = shard_ids.into_iter();
        let mut units = Vec::with_capacity(
            (shard_ids.clone())
                .map(|shard| self.planes[shard].num_chunks().div_ceil(UNIT_CHUNKS))
                .sum(),
        );
        for (pos, shard) in shard_ids.enumerate() {
            let chunks = self.planes[shard].num_chunks();
            units.extend((0..chunks).step_by(UNIT_CHUNKS).map(|lo| ScanUnit {
                pos,
                shard,
                chunks: lo..(lo + UNIT_CHUNKS).min(chunks),
            }));
        }
        units
    }

    /// **The** executor: run `lane` on each of the engine's lanes, handing it
    /// the lane's [`Claims`] — every lane drains the one shared counter, so
    /// each unit is claimed by exactly one lane, and a lane that finishes
    /// early simply claims more. What a lane does with its units, and with
    /// its results once its claims run out, is `lane`'s business. A panic in
    /// a lane is re-raised with the shard of the unit it was running named.
    pub(super) fn run_units(&self, units: &[ScanUnit], lane: impl Fn(&mut Claims<'_>) + Sync) {
        // Capture the span gate once per execution: units are timed on
        // whatever lane runs them.
        let timing = (self.telemetry.level().spans_enabled()).then_some(&self.telemetry);
        let counter = ClaimCounter(AtomicUsize::new(0));
        let lanes = self.lanes.min(self.pool.workers() + 1).min(units.len());
        self.pool.run_lanes(lanes, &|index| {
            let mut claims = Claims {
                units,
                counter: &counter,
                timing,
                current: None,
                ran: 0,
            };
            // Name the shard in any scan panic; the pool re-raises it as is.
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| lane(&mut claims))) {
                let message = panic_message(payload.as_ref());
                let message = match claims.current {
                    Some((unit, _)) => format!("shard {}: {message}", units[unit].shard),
                    None => message,
                };
                resume_unwind(Box::new(message));
            }
            claims.close();
            self.telemetry
                .add_at(LabelledCounter::LaneExecuted, index, claims.ran);
        });
    }

    /// The scan step of every ranked execution. Each row `(shard, span)` of
    /// `plan` sweeps shard `shard` for the `(query, result)` pairs
    /// `work[span]`; result `i` keeps `keep(i)` matches (`None`: every one).
    /// The shards are carved into units, and each lane sweeps the units it
    /// claims into its thread's [`Sweeper`], each query into the result
    /// `work` names — so a kept result's bar outlives the unit that raised
    /// it and serves every later unit the lane claims, of any shard. When its
    /// claims run out, the lane folds each of its results into `out`: kept
    /// ones cut to their keep, matches appended, stats summed. So `out[i]`
    /// holds result `i`'s stats over everything swept, and its matches are
    /// every match (uncut, in lane order — not slot order) or a superset of
    /// its best `keep(i)` in the canonical order, never more than `keep(i)`
    /// per lane. A shard with no units (an empty plane) adds nothing.
    pub(super) fn scan_plan(
        &self,
        plan: &[PlanRow],
        work: &[(&BitIndex, usize)],
        keep: impl Fn(usize) -> Option<usize> + Sync,
        out: &mut [ShardScan],
    ) {
        let units = self.carve_units(plan.iter().map(|&(shard, _)| shard));
        let results = out.len();
        let out = Mutex::new(out);
        self.run_units(&units, |claims| {
            SWEEPER.with_borrow_mut(|sweeper| {
                let mut claimed = false;
                for (_, unit) in claims {
                    if !claimed {
                        sweeper.reset(results, &keep);
                        claimed = true;
                    }
                    let work = &work[plan[unit.pos].1.clone()];
                    self.planes[unit.shard].sweep(unit.chunks.clone(), work, sweeper);
                }
                if claimed {
                    let mut out = out.lock().expect("no lane panics while folding");
                    sweeper.fold_into(&mut out);
                }
            });
        });
    }
}
