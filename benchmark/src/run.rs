//! One workload, one process: the end-to-end run (`--trace 0`) and the traced
//! run (`--trace 1`), each returning every metric of its kind by name.

use crate::deploy::{set_up, Caller, Deployment, Ready, Teardown};
use crate::inputs::{self, Inputs, Op};
use crate::oracle;
use crate::procfs;
use crate::spec::{self, Scale, Workload};
use crate::stats::{ladder_deltas, percentile};
use crate::trace::{self, span_total, SpanLog};
use crate::workloads::{drive, quiet_p50_ns, quiet_qps, slice_medians_ns, slice_rates, ClientRun};
use mkse_core::cache::CacheStats;
use mkse_core::telemetry::{MetricsSnapshot, TelemetryLevel};
use mkse_net::ResilienceStats;
use mkse_protocol::{OperationCounters, Request, Response};
use std::sync::Barrier;
use std::time::Instant;

/// What to run.
#[derive(Clone, Copy)]
pub struct Settings {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: u64,
    pub scale: Scale,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one invocation: op accounting plus every metric of the
/// requested kind. `findings` are printed, not parsed.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub findings: Vec<String>,
}

impl Outcome {
    /// Every op completed and every reply matched the oracle. The process
    /// exits non-zero otherwise.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Every client's op sequence at `share` of the nominal op count.
struct Plan {
    ops: Vec<Vec<Op>>,
    upload_batches: usize,
}

impl Plan {
    fn new(settings: &Settings, share: f64) -> Plan {
        let Settings {
            workload,
            seed,
            seconds,
            scale,
        } = *settings;
        let window = ((scale.ops(workload.ops_per_second, seconds) as f64 * share) as usize).max(1);
        let ops: Vec<Vec<Op>> = (0..workload.clients)
            .map(|c| inputs::op_sequence(workload, seed, c, window))
            .collect();
        let upload_batches = ops[0]
            .iter()
            .filter(|op| matches!(op, Op::Upload(_)))
            .count();
        Plan {
            ops,
            upload_batches,
        }
    }

    /// Every client's ops cut into `parts` consecutive runs of equal length
    /// (the last takes the remainder): `[part][client]`.
    fn parts(&self, parts: usize) -> Vec<Vec<&[Op]>> {
        (0..parts)
            .map(|part| {
                self.ops
                    .iter()
                    .map(|ops| {
                        let len = ops.len() / parts;
                        let end = if part + 1 == parts {
                            ops.len()
                        } else {
                            (part + 1) * len
                        };
                        &ops[part * len..end]
                    })
                    .collect()
            })
            .collect()
    }

    fn attempted(&self) -> u64 {
        self.ops.iter().map(|ops| ops.len() as u64).sum()
    }

    fn query_ops(&self) -> u64 {
        self.ops
            .iter()
            .flatten()
            .filter(|op| matches!(op, Op::Query(_)))
            .count() as u64
    }
}

/// Admin-op reads taken through client 0 after a traced pass.
struct Admin {
    counters: OperationCounters,
    cache: Option<CacheStats>,
    metrics: MetricsSnapshot,
}

/// One execution of the plan against one deployment.
struct Pass {
    runs: Vec<ClientRun>,
    /// CPU seconds and wall seconds across the whole drive (warm-up
    /// included).
    cpu_s: f64,
    drive_s: f64,
    admin: Option<Admin>,
    resilience: ResilienceStats,
    teardown: Teardown,
}

impl Pass {
    fn sorted_query_ns(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self
            .runs
            .iter()
            .flat_map(|r| r.query_ns.iter().copied())
            .collect();
        all.sort_unstable();
        all
    }

    /// Median latency of the window's uploads; 0 on a workload without any.
    fn upload_p50_ns(&self) -> u64 {
        let mut uploads: Vec<u64> = self
            .runs
            .iter()
            .flat_map(|r| r.upload_ns.iter().copied())
            .collect();
        uploads.sort_unstable();
        percentile(&uploads, 50.0)
    }

    fn failures(&self, expected: &[Vec<u64>]) -> u64 {
        self.runs
            .iter()
            .zip(expected)
            .map(|(run, expected)| oracle::count_failures(&run.actual, expected))
            .sum()
    }
}

/// Walk each client's `ops` on its caller, one thread per client, cutting the
/// timed ops into `slices` slices, and hand the callers back. Client 0 owns
/// the heartbeat.
fn drive_all(
    inputs: &Inputs,
    workload: &Workload,
    ops: &[&[Op]],
    slices: usize,
    deployment: &mut Deployment,
    callers: Vec<Caller>,
    traced: bool,
) -> (Vec<ClientRun>, Vec<Caller>) {
    let barrier = Barrier::new(workload.clients);
    std::thread::scope(|scope| {
        let mut beater = Some(&mut deployment.beater);
        let barrier = &barrier;
        let handles: Vec<_> = callers
            .into_iter()
            .zip(ops)
            .map(|(caller, ops)| {
                let beater = beater.take();
                scope.spawn(move || {
                    drive(
                        inputs,
                        caller,
                        ops,
                        slices,
                        workload.pipeline,
                        beater,
                        barrier,
                        traced,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .unzip()
    })
}

/// The whole plan in one go against one deployment, which is then shut down.
fn run_pass(inputs: &Inputs, workload: &Workload, plan: &Plan, ready: Ready, traced: bool) -> Pass {
    let Ready {
        mut deployment,
        callers,
        ..
    } = ready;
    let ops: Vec<&[Op]> = plan.ops.iter().map(Vec::as_slice).collect();
    let cpu_before = procfs::cpu_seconds();
    let started = Instant::now();
    let (runs, mut callers) = drive_all(
        inputs,
        workload,
        &ops,
        spec::SLICES,
        &mut deployment,
        callers,
        traced,
    );
    let drive_s = started.elapsed().as_secs_f64();
    let cpu_s = procfs::cpu_seconds() - cpu_before;
    let admin = traced.then(|| {
        let front = &mut callers[0];
        let counters = match front.call(&Request::Counters) {
            Ok(Response::Counters(c)) => c,
            other => panic!("Counters answered {other:?}"),
        };
        // The coordinator refuses cache admin ops; that reads as "no cache".
        let cache = match front.call(&Request::CacheStats) {
            Ok(Response::CacheStats(stats)) => stats,
            _ => None,
        };
        let metrics = match front.call(&Request::MetricsSnapshot) {
            Ok(Response::MetricsReport(m)) => m,
            other => panic!("MetricsSnapshot answered {other:?}"),
        };
        Admin {
            counters,
            cache,
            metrics,
        }
    });
    let mut resilience = ResilienceStats::default();
    for run in &runs {
        resilience.attempts += run.resilience.attempts;
        resilience.successes += run.resilience.successes;
        resilience.retries += run.resilience.retries;
        resilience.reconnects += run.resilience.reconnects;
    }
    drop(callers);
    Pass {
        runs,
        cpu_s,
        drive_s,
        admin,
        resilience,
        teardown: deployment.shutdown(),
    }
}

/// Expected digests per client, and the pool answers when a cache-off twin
/// produced them. The cached workload's single client is judged against a
/// replay of its exact op sequence on a like-for-like twin.
fn expectations(inputs: &Inputs, workload: &Workload, plan: &Plan) -> (Vec<Vec<u64>>, Vec<u64>) {
    if workload.cache_capacity == 0 {
        let twin = oracle::expect_uncached(inputs, &plan.ops);
        (twin.per_client, twin.pool)
    } else {
        let replayed = plan
            .ops
            .iter()
            .map(|ops| oracle::replay_cached(inputs, ops, workload.cache_capacity))
            .collect();
        (replayed, Vec::new())
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// `--trace 0`: the full op plan with telemetry at its default on a freshly
/// set-up deployment, two more timed set-ups (at full scale), and the oracle,
/// which judges every reply.
///
/// The timed window is not one stretch: it is cut into parts, and the run's
/// other work — each further set-up, then the oracle — goes between them, so
/// that the window's slices span the whole run (~15 s) and not its middle
/// (~9 s). What disturbs this host comes and goes over tens of seconds; a
/// window that sits inside one such stretch has no quiet decile to report.
pub fn measure(settings: &Settings) -> Outcome {
    measure_against(settings, |_| {})
}

/// [`measure`], with a hook on the oracle's expectations before replies are
/// judged against them (the unit tests corrupt one to see the run fail).
fn measure_against(settings: &Settings, tamper: impl FnOnce(&mut [Vec<u64>])) -> Outcome {
    let workload = settings.workload;
    let plan = Plan::new(settings, 1.0);
    let inputs = Inputs::generate(
        settings.seed,
        settings.scale.docs(workload.corpus),
        plan.upload_batches,
    );
    let Ready {
        mut deployment,
        mut callers,
        setup_s,
        ..
    } = set_up(&inputs, workload, TelemetryLevel::Off);
    let mut setups = vec![setup_s];
    let mut expected = Vec::new();
    let mut rss_kib = 0;
    let mut runs: Vec<Vec<ClientRun>> = Vec::new();
    // One interlude per further set-up, one for the oracle.
    let parts = plan.parts(settings.scale.setups + 1);
    let slices = (spec::SLICES / parts.len()).max(1);
    for (part, ops) in parts.iter().enumerate() {
        let (run, back) = drive_all(
            &inputs,
            workload,
            ops,
            slices,
            &mut deployment,
            callers,
            false,
        );
        callers = back;
        runs.push(run);
        if part == 0 {
            // The first part ran on the first deployment of a fresh process,
            // so the peak RSS read here is one deployment's, not yet the
            // further set-ups' or the oracle twin's.
            rss_kib = procfs::vm_hwm_kib();
        }
        if part + 1 == parts.len() {
            break;
        }
        deployment.beater.beat_during(|| {
            if part + 2 < parts.len() {
                let again = set_up(&inputs, workload, TelemetryLevel::Off);
                setups.push(again.setup_s);
                drop(again.callers);
                again.deployment.shutdown();
            } else {
                expected = expectations(&inputs, workload, &plan).0;
            }
        });
    }
    drop(callers);
    deployment.shutdown();
    tamper(&mut expected);

    // Each client's digests, part after part, are its whole op sequence's.
    let failed: u64 = (0..workload.clients)
        .map(|client| {
            let actual: Vec<u64> = runs
                .iter()
                .flat_map(|part| part[client].actual.iter().copied())
                .collect();
            oracle::count_failures(&actual, &expected[client])
        })
        .sum();
    let slice_medians: Vec<u64> = runs.iter().flat_map(|p| slice_medians_ns(p)).collect();
    let all = || runs.iter().flatten();
    let query_bytes: u64 = all().map(|r| r.query_bytes).sum();
    let queries: u64 = all().map(|r| r.queries).sum();
    let metric = |name: &str, value, unit| Metric {
        name: name.to_string(),
        value,
        unit,
    };
    Outcome {
        attempted: plan.attempted(),
        failed,
        metrics: vec![
            // The fastest: a busy neighbour only ever slows a set-up down, and
            // the median of three followed it (eight runs of `wire_heavy`:
            // medians 0.29-0.45 s, fastest 0.29-0.33 s but for one run).
            metric(
                "setup_s",
                setups.iter().copied().fold(f64::MAX, f64::min),
                "s",
            ),
            metric(
                "query_p50_us",
                us(quiet_p50_ns(slice_medians.clone())),
                "us",
            ),
            metric(
                "query_qps",
                quiet_qps(runs.iter().flat_map(|p| slice_rates(p)).collect()),
                "1/s",
            ),
            metric(
                "wire_bytes_per_query",
                query_bytes as f64 / queries as f64,
                "B",
            ),
            metric("peak_rss_mb", rss_kib as f64 / 1024.0, "MiB"),
        ],
        // How the window went, slice by slice: `query_p50_us` is the
        // fourth-fastest of these.
        findings: vec![format!(
            "slice medians, us: {}",
            slice_medians
                .iter()
                .map(|ns| format!("{:.0}", us(*ns)))
                .collect::<Vec<_>>()
                .join(" ")
        )],
    }
}

/// `--trace 1`: the plan at 20% twice (telemetry off, then `Spans` with
/// harness spans), the ladder on this workload's corpus, and the timed public
/// calls. Spans go to `out_dir/trace-<workload>.jsonl`.
pub fn trace(settings: &Settings, out_dir: &std::path::Path, epoch: Instant) -> Outcome {
    let workload = settings.workload;
    let plan = Plan::new(settings, spec::TRACE_SHARE);
    let inputs = Inputs::generate(
        settings.seed,
        settings.scale.docs(workload.corpus),
        plan.upload_batches,
    );
    let (expected, mut pool) = expectations(&inputs, workload, &plan);
    if pool.is_empty() {
        pool = oracle::expect_uncached(&inputs, &[]).pool;
    }

    let untraced = run_pass(
        &inputs,
        workload,
        &plan,
        set_up(&inputs, workload, TelemetryLevel::Off),
        false,
    );
    let ready = set_up(&inputs, workload, TelemetryLevel::Spans);
    let build_us_per_doc = ready.index_build_s * 1e6 / inputs.num_docs as f64;
    let traced = run_pass(&inputs, workload, &plan, ready, true);

    let ladder_queries = settings
        .scale
        .ops(spec::LADDER_QUERIES_PER_SECOND, settings.seconds);
    let stream: Vec<u32> = (0..ladder_queries)
        .map(|i| (i % spec::POOL_SIZE) as u32)
        .collect();
    let ladder = trace::ladder(&inputs, &pool, &stream, (ladder_queries / 4).max(1));
    let wire_ns = trace::timed_wire_calls(
        &Request::Query(inputs.pool[0].clone()),
        &ladder.sample_reply,
    );

    let logs: Vec<&SpanLog> = traced.runs.iter().map(|r| &r.spans).collect();
    let path = out_dir.join(format!("trace-{}.jsonl", workload.name));
    if let Err(e) = trace::write_spans(&path, &logs, epoch) {
        eprintln!("could not write {}: {e}", path.display());
    }

    let admin = traced
        .admin
        .as_ref()
        .expect("traced pass reads the admin ops");
    let snapshot = &admin.metrics;
    // Server-side sums cover every query the deployment executed, warm-up
    // included.
    let queries = plan.query_ops();
    let uploads: u64 = traced.runs.iter().map(|r| r.upload_ns.len() as u64).sum();
    let counter = |name: &str| snapshot.counter(name);
    let stage = |name: &str| {
        snapshot
            .histograms
            .iter()
            .find(|h| h.stage == name)
            .map_or((0, 0), |h| (h.sum_ns, h.count))
    };
    let coalesced = counter("batcher_coalesced_queries");
    let solo = counter("batcher_solo_dispatches");
    let flushes = [
        counter("batcher_flush_window"),
        counter("batcher_flush_depth"),
        counter("batcher_flush_barrier"),
    ];
    let all_flushes = flushes.iter().sum::<u64>() + counter("batcher_flush_shutdown");
    let occupancy = snapshot
        .values
        .iter()
        .find(|v| v.series == "batch_occupancy")
        .map_or(0.0, |v| ratio(v.sum, v.count));
    let cache = admin.cache.unwrap_or_default();
    let performed = admin.counters.binary_comparisons;
    let saved = admin.counters.comparisons_saved_by_cache;

    let mut m: Vec<Metric> = Vec::with_capacity(spec::PER_LAYER.len());
    let mut put = |name: &str, value: f64, unit: &'static str| {
        m.push(Metric {
            name: name.to_string(),
            value,
            unit,
        })
    };
    for (rung, ns) in spec::RUNGS.into_iter().zip(ladder.p50_ns) {
        put(&format!("ladder.{rung}.p50_us"), us(ns), "us");
    }
    for (name, ns) in spec::RUNG_DELTAS
        .into_iter()
        .zip(ladder_deltas(&ladder.p50_ns))
    {
        put(name, ns as f64 / 1e3, "us");
    }
    let wire_names = [
        "protocol.wire.encode_request_ns",
        "protocol.wire.decode_request_ns",
        "protocol.wire.encode_response_ns",
        "protocol.wire.decode_response_ns",
        "net.frame.reassemble_ns",
    ];
    for (name, ns) in wire_names.into_iter().zip(wire_ns) {
        put(name, ns, "ns");
    }
    put(
        "core.engine.batch16_us_per_query",
        ladder.batch16_us_per_query,
        "us",
    );
    put(
        "core.storage.insert_us_per_doc",
        ladder.insert_us_per_doc,
        "us",
    );
    put("core.index.build_us_per_doc", build_us_per_doc, "us");

    put(
        "core.engine.comparisons_per_query",
        ratio(performed, queries),
        "count",
    );
    put(
        "core.cache.hit_ratio",
        ratio(cache.hits, cache.hits + cache.misses),
        "ratio",
    );
    put(
        "core.cache.invalidations_per_upload",
        ratio(cache.invalidations, uploads),
        "count",
    );
    put(
        "core.cache.saved_comparisons_ratio",
        ratio(saved, saved + performed),
        "ratio",
    );
    put(
        "net.hub.coalesced_ratio",
        ratio(coalesced, coalesced + solo),
        "ratio",
    );
    put("net.hub.solo_ratio", ratio(solo, coalesced + solo), "ratio");
    put("net.hub.batch_occupancy_mean", occupancy, "count");
    put(
        "net.hub.flush_window_share",
        ratio(flushes[0], all_flushes),
        "ratio",
    );
    put(
        "net.hub.flush_depth_share",
        ratio(flushes[1], all_flushes),
        "ratio",
    );
    put(
        "net.hub.flush_barrier_share",
        ratio(flushes[2], all_flushes),
        "ratio",
    );
    put(
        "net.hub.sheds",
        (traced.teardown.sheds + untraced.teardown.sheds) as f64,
        "count",
    );
    put(
        "net.resilient.attempts_per_success",
        ratio(traced.resilience.attempts, traced.resilience.successes),
        "ratio",
    );
    put(
        "net.resilient.retries",
        traced.resilience.retries as f64,
        "count",
    );
    put(
        "net.resilient.reconnects",
        traced.resilience.reconnects as f64,
        "count",
    );
    put(
        "net.coordinator.node_requests_per_query",
        ratio(traced.teardown.node_requests, queries),
        "count",
    );
    put(
        "net.coordinator.failovers",
        counter("failovers") as f64,
        "count",
    );
    put(
        "net.node.heartbeats",
        traced.teardown.heartbeats as f64,
        "count",
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    put(
        "proc.cpu_us_per_query",
        untraced.cpu_s * 1e6 / queries as f64,
        "us",
    );
    put(
        "proc.cpu_busy_share",
        untraced.cpu_s / (untraced.drive_s * cores),
        "ratio",
    );

    // Budget of one traced query: what the client spent before it started
    // waiting, what the server's top-level stages account for, and the rest
    // (links, thread hand-offs, queueing behind other requests, reply decode).
    let (root_ns, roots) = span_total(&logs, "query");
    let mean_of = |name: &str| {
        let (total, count) = span_total(&logs, name);
        ratio(total, count) / 1e3
    };
    // A `ResilientClient` exposes only `call`; its span stands in for the wait.
    let (wait_ns, waits) = match span_total(&logs, "wait") {
        (_, 0) => span_total(&logs, "call"),
        waited => waited,
    };
    let client_self_ns = span_total(&logs, "submit").0 + span_total(&logs, "flush").0;
    let server_ns: u64 = [
        "frame_decode",
        "batcher_wait",
        "service_call",
        "frame_encode",
    ]
    .iter()
    .map(|name| stage(name).0)
    .sum();
    let end_to_end_us = ratio(root_ns, roots) / 1e3;
    let attributed_us = (ratio(client_self_ns, roots) + ratio(server_ns, queries)) / 1e3;
    let unattributed_us = end_to_end_us - attributed_us;
    let unattributed_share = if end_to_end_us > 0.0 {
        unattributed_us / end_to_end_us
    } else {
        0.0
    };
    put("net.client.submit_mean_us", mean_of("submit"), "us");
    put("net.client.flush_mean_us", mean_of("flush"), "us");
    put("net.client.wait_mean_us", ratio(wait_ns, waits) / 1e3, "us");
    put(
        "net.client.upload_p50_us",
        us(untraced.upload_p50_ns()),
        "us",
    );
    for name in spec::STAGES {
        let (sum_ns, count) = stage(name);
        put(
            &format!("stage.{name}_mean_us"),
            ratio(sum_ns, count) / 1e3,
            "us",
        );
    }
    put("budget.unattributed_us", unattributed_us, "us");
    put("budget.unattributed_share", unattributed_share, "ratio");

    let off_ns = untraced.sorted_query_ns();
    let (p50_off, p50_on) = (
        quiet_p50_ns(slice_medians_ns(&untraced.runs)),
        quiet_p50_ns(slice_medians_ns(&traced.runs)),
    );
    put(
        "trace.overhead_pct",
        (p50_on as f64 - p50_off as f64) / p50_off.max(1) as f64 * 100.0,
        "%",
    );
    put("tail.query_p90_us", us(percentile(&off_ns, 90.0)), "us");
    put("tail.query_p99_us", us(percentile(&off_ns, 99.0)), "us");
    put("tail.query_max_us", us(percentile(&off_ns, 100.0)), "us");
    put("tail.query_samples", off_ns.len() as f64, "count");

    let mut findings = Vec::new();
    if unattributed_share > 0.2 {
        findings.push(format!(
            "{:.0}% of the traced end-to-end mean ({unattributed_us:.1} of {end_to_end_us:.1} us) \
             is covered by no client span and no server stage",
            unattributed_share * 100.0
        ));
    }
    Outcome {
        attempted: 2 * plan.attempted() + ladder.attempted,
        failed: untraced.failures(&expected) + traced.failures(&expected) + ladder.failed,
        metrics: m,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn smoke(name: &str) -> Settings {
        Settings {
            workload: spec::workload(name).unwrap(),
            seed: 7,
            seconds: 1,
            scale: Scale::SMOKE,
        }
    }

    fn names(outcome: &Outcome) -> BTreeSet<String> {
        outcome.metrics.iter().map(|m| m.name.clone()).collect()
    }

    /// Every workload emits exactly the declared end-to-end metrics with
    /// their declared units, never zero, and no op fails.
    #[test]
    fn every_workload_emits_the_declared_end_to_end_metrics() {
        let declared: BTreeSet<String> = spec::END_TO_END
            .iter()
            .map(|m| m.name.to_string())
            .collect();
        for workload in &spec::WORKLOADS {
            let outcome = measure(&smoke(workload.name));
            assert!(
                outcome.correct(),
                "{}: {} failed ops",
                workload.name,
                outcome.failed
            );
            assert!(outcome.attempted >= 1);
            assert_eq!(names(&outcome), declared, "{}", workload.name);
            for m in &outcome.metrics {
                let spec = spec::END_TO_END.iter().find(|e| e.name == m.name).unwrap();
                assert_eq!(m.unit, spec.unit, "{}", m.name);
                assert!(m.value > 0.0, "{} on {} is never 0", m.name, workload.name);
            }
        }
    }

    /// The traced run emits exactly the declared per-layer metrics, and its
    /// ladder deltas telescope to `fleet3 - engine`.
    #[test]
    fn traced_run_emits_the_declared_per_layer_metrics() {
        let declared: BTreeSet<String> =
            spec::PER_LAYER.iter().map(|m| m.name.to_string()).collect();
        let dir = std::env::temp_dir().join(format!("mkse-benchmark-test-{}", std::process::id()));
        for name in ["cached_rw", "fleet3"] {
            let outcome = trace(&smoke(name), &dir, Instant::now());
            assert!(outcome.correct(), "{name}: {} failed ops", outcome.failed);
            assert_eq!(names(&outcome), declared, "{name}");
            for m in &outcome.metrics {
                let spec = spec::PER_LAYER.iter().find(|e| e.name == m.name).unwrap();
                assert_eq!(m.unit, spec.unit, "{}", m.name);
            }
            let value = |wanted: &str| {
                outcome
                    .metrics
                    .iter()
                    .find(|m| m.name == wanted)
                    .unwrap()
                    .value
            };
            let deltas: f64 = spec::RUNG_DELTAS.iter().map(|d| value(d)).sum();
            let span = value("ladder.fleet3.p50_us") - value("ladder.engine.p50_us");
            assert!((deltas - span).abs() < 1e-6, "{deltas} vs {span}");
            let spans = std::fs::read_to_string(dir.join(format!("trace-{name}.jsonl"))).unwrap();
            let first = crate::json::parse(spans.lines().next().unwrap()).unwrap();
            assert!(first.get("name").is_some() && first.get("request_id").is_some());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Corrupting one expected reply makes the run incorrect — and with it
    /// the command's exit code non-zero.
    #[test]
    fn a_corrupted_expectation_fails_the_run() {
        for name in ["wire_heavy", "cached_rw"] {
            let honest = measure(&smoke(name));
            assert!(honest.correct(), "{name}");
            let tampered = measure_against(&smoke(name), |expected| expected[0][3] ^= 1);
            assert_eq!(tampered.failed, 1, "{name}");
            assert!(!tampered.correct(), "{name}");
        }
    }
}
