//! The closed-loop driver: each client thread walks its op sequence, times
//! every op from outside (around the calls into the client), and records the
//! digest of every reply for the oracle.

use crate::deploy::{Beater, Caller, REPLY_TIMEOUT};
use crate::inputs::{Inputs, Op};
use crate::oracle::{self, digest, request_for};
use crate::spec;
use crate::stats::percentile;
use crate::trace::SpanLog;
use mkse_net::{ClientError, ResilienceStats};
use mkse_protocol::Response;
use std::sync::Barrier;
use std::time::Instant;

/// What one client thread did.
pub struct ClientRun {
    /// One digest per op, in op order ([`oracle::FAILED`] for client errors).
    pub actual: Vec<u64>,
    /// Latency of every query of the timed window, nanoseconds, in op order.
    pub query_ns: Vec<u64>,
    /// Latency of every upload of the timed window, nanoseconds.
    pub upload_ns: Vec<u64>,
    /// The start of the timed ops, then the instant each equal-count slice of
    /// their queries was answered.
    pub marks: Vec<Instant>,
    /// Timed queries per slice, and how many slices the timed ops are cut into.
    pub slice: usize,
    pub slices: usize,
    /// Queries completed, warm-up included.
    pub queries: u64,
    /// Framed bytes sent + received by those queries (uploads subtracted).
    pub query_bytes: u64,
    /// The client's retry accounting at the end of its ops.
    pub resilience: ResilienceStats,
    pub spans: SpanLog,
}

fn settle(result: Result<Response, ClientError>) -> u64 {
    match result {
        Ok(Response::Error(_)) | Err(_) => oracle::FAILED,
        Ok(reply) => digest(&reply),
    }
}

fn wire_bytes(caller: &Caller) -> u64 {
    let stats = caller.wire_stats();
    stats.bytes_sent + stats.bytes_received
}

/// Walk `ops` on `caller`: the leading `WARMUP_SHARE` of them untimed, the
/// rest timed and cut into `slices` equal-count slices. All clients meet at
/// `barrier` when their warm-up ends, so the timed ops start together.
/// `pipeline` queries are kept in flight (1 = strict request/reply; more needs
/// a `NetClient`). With `beater`, heartbeats are driven between this client's
/// own requests. With `trace`, harness spans are recorded around
/// `submit`/`flush`/`wait_take` (or the whole `call` of a `ResilientClient`).
#[allow(clippy::too_many_arguments)]
pub fn drive(
    inputs: &Inputs,
    mut caller: Caller,
    ops: &[Op],
    slices: usize,
    pipeline: usize,
    mut beater: Option<&mut Beater>,
    barrier: &Barrier,
    trace: bool,
) -> (ClientRun, Caller) {
    let warmup = (ops.len() as f64 * spec::WARMUP_SHARE) as usize;
    let bytes_before = wire_bytes(&caller);
    let mut run = ClientRun {
        actual: Vec::with_capacity(ops.len()),
        query_ns: Vec::with_capacity(ops.len() - warmup),
        upload_ns: Vec::new(),
        marks: Vec::with_capacity(slices + 1),
        slice: ((ops.len() - warmup) / slices).max(1),
        slices,
        queries: 0,
        query_bytes: 0,
        resilience: ResilienceStats::default(),
        spans: SpanLog::new(trace),
    };
    let mut upload_bytes = 0;
    let mut at = 0;
    loop {
        if at == warmup {
            barrier.wait();
            run.marks.push(Instant::now());
        }
        if at == ops.len() {
            break;
        }
        if let Some(beater) = beater.as_deref_mut() {
            beater.beat_if_due();
        }
        let timed = at >= warmup;
        match ops[at] {
            Op::Upload(_) => {
                let request = request_for(inputs, ops[at]);
                let before = wire_bytes(&caller);
                let started = Instant::now();
                let result = caller.call(&request);
                if timed {
                    run.upload_ns.push(started.elapsed().as_nanos() as u64);
                }
                upload_bytes += wire_bytes(&caller) - before;
                run.actual.push(settle(result));
                at += 1;
            }
            Op::Query(_) => {
                // A group never straddles the end of the warm-up or an upload.
                let phase_end = if timed { ops.len() } else { warmup };
                let group = ops[at..phase_end.min(at + pipeline)]
                    .iter()
                    .take_while(|op| matches!(op, Op::Query(_)))
                    .count();
                let requests: Vec<_> = ops[at..at + group]
                    .iter()
                    .map(|op| request_for(inputs, *op))
                    .collect();
                let started = Instant::now();
                match &mut caller {
                    Caller::Resilient(client) => {
                        assert_eq!(group, 1, "ResilientClient is strictly request/reply");
                        let id = client.next_request_id();
                        let result = client.call(&requests[0]);
                        let ended = Instant::now();
                        if timed {
                            run.spans.record("call", id, started, ended);
                            run.spans.record("query", id, started, ended);
                            run.answered(started, ended);
                        }
                        run.actual.push(settle(result));
                    }
                    Caller::Net(client) => {
                        let ids: Vec<u64> = requests.iter().map(|r| client.submit(r)).collect();
                        let submitted = Instant::now();
                        let flushed = client.flush();
                        let flushed_at = Instant::now();
                        if timed {
                            run.spans.record("submit", ids[0], started, submitted);
                            run.spans.record("flush", ids[0], submitted, flushed_at);
                        }
                        for id in ids {
                            let wait_from = Instant::now();
                            let result = match &flushed {
                                Ok(()) => client.wait_take(id, REPLY_TIMEOUT),
                                Err(_) => Err(ClientError::Disconnected { request_id: id }),
                            };
                            let ended = Instant::now();
                            if timed {
                                run.spans.record("wait", id, wait_from, ended);
                                run.spans.record("query", id, started, ended);
                                run.answered(started, ended);
                            }
                            run.actual.push(settle(result));
                        }
                    }
                }
                run.queries += group as u64;
                at += group;
            }
        }
    }
    run.query_bytes = wire_bytes(&caller) - bytes_before - upload_bytes;
    run.resilience = caller.resilience_stats();
    (run, caller)
}

impl ClientRun {
    /// One timed query answered.
    fn answered(&mut self, started: Instant, ended: Instant) {
        self.query_ns.push((ended - started).as_nanos() as u64);
        if self.query_ns.len().is_multiple_of(self.slice) && self.marks.len() <= self.slices {
            self.marks.push(ended);
        }
    }

    /// Queries per second of each full slice.
    pub fn slice_rates(&self) -> Vec<f64> {
        self.marks
            .windows(2)
            .map(|w| self.slice as f64 / (w[1] - w[0]).as_secs_f64())
            .collect()
    }

    /// The latencies of each full slice, in op order.
    pub fn slices(&self) -> impl Iterator<Item = &[u64]> {
        self.query_ns.chunks_exact(self.slice).take(self.slices)
    }
}

/// The median latency of every slice (the clients' k-th slices taken
/// together), in op order.
pub fn slice_medians_ns(runs: &[ClientRun]) -> Vec<u64> {
    let mut clients: Vec<_> = runs.iter().map(ClientRun::slices).collect();
    let mut medians = Vec::new();
    loop {
        let mut slice: Vec<u64> = clients
            .iter_mut()
            .filter_map(Iterator::next)
            .flatten()
            .copied()
            .collect();
        if slice.is_empty() {
            return medians;
        }
        slice.sort_unstable();
        medians.push(percentile(&slice, 50.0));
    }
}

/// Completed queries per second of every slice (the clients' k-th slices
/// summed; they start together), in op order.
pub fn slice_rates(runs: &[ClientRun]) -> Vec<f64> {
    let rates: Vec<Vec<f64>> = runs.iter().map(ClientRun::slice_rates).collect();
    let slices = rates.iter().map(Vec::len).min().unwrap_or(0);
    (0..slices)
        .map(|k| rates.iter().map(|r| r[k]).sum())
        .collect()
}

/// The quiet decile of a window's slice medians: their
/// `QUIET_PERCENTILE`-th percentile.
pub fn quiet_p50_ns(mut slice_medians: Vec<u64>) -> u64 {
    slice_medians.sort_unstable();
    percentile(&slice_medians, spec::QUIET_PERCENTILE)
}

/// The quiet decile of a window's slice rates: the percentile
/// `QUIET_PERCENTILE` from the top.
pub fn quiet_qps(mut slice_rates: Vec<f64>) -> f64 {
    slice_rates.sort_by(|a, b| b.total_cmp(a));
    percentile(&slice_rates, spec::QUIET_PERCENTILE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A client that answered 40 slices of 10 queries, slice k taking
    /// `latency_us(k)` per query, strictly one after another.
    fn client(latency_us: impl Fn(usize) -> u64) -> ClientRun {
        let start = Instant::now();
        let mut run = ClientRun {
            actual: Vec::new(),
            query_ns: Vec::new(),
            upload_ns: Vec::new(),
            marks: vec![start],
            slice: 10,
            slices: 40,
            queries: 0,
            query_bytes: 0,
            resilience: ResilienceStats::default(),
            spans: SpanLog::new(false),
        };
        let mut now = start;
        for k in 0..run.slices {
            for _ in 0..run.slice {
                let ended = now + Duration::from_micros(latency_us(k));
                run.answered(now, ended);
                now = ended;
            }
        }
        run
    }

    #[test]
    fn quiet_decile_ignores_a_disturbed_stretch_and_sees_a_regression() {
        let p50 = |runs: &[ClientRun]| quiet_p50_ns(slice_medians_ns(runs));
        let qps = |runs: &[ClientRun]| quiet_qps(slice_rates(runs));
        let steady = [client(|_| 100)];
        assert_eq!(slice_medians_ns(&steady).len(), 40);
        assert_eq!(p50(&steady), 100_000);
        assert!((qps(&steady) - 10_000.0).abs() < 1e-6);
        // Three quarters of the window disturbed: the quiet decile still
        // reads the undisturbed slices.
        let disturbed = [client(|k| if k % 4 == 0 { 100 } else { 150 })];
        assert_eq!(p50(&disturbed), 100_000);
        assert!((qps(&disturbed) - 10_000.0).abs() < 1e-6);
        // Every slice 20% slower: both metrics move by all of it.
        let regressed = [client(|_| 120)];
        assert_eq!(p50(&regressed), 120_000);
        assert!((qps(&regressed) - 10_000.0 / 1.2).abs() < 1e-6);
        // Two clients: slice medians pool both, slice rates add up.
        let pair = [client(|_| 100), client(|_| 100)];
        assert_eq!(p50(&pair), 100_000);
        assert!((qps(&pair) - 20_000.0).abs() < 1e-6);
    }
}
