//! The resilience layer end to end: three `ResilientClient`s over **seeded
//! faulty links** — each link dies after about three query frames, and some
//! writes are torn or delayed — complete a query workload against one hub,
//! retrying and reconnecting as they go. The clients and their links share
//! one registry, printed at the end as Prometheus text.
//!
//! The `chaos[…]` rows of `tests/oracle_matrix.rs` prove every completed
//! reply byte-identical to the sequential twin's and the registry equal to
//! the clients' own accounting; `chaos[shed]` shows the hub refusing work
//! over budget.
//!
//! Run with: `cargo run --release --example resilient_session`

use mkse::core::{Telemetry, TelemetryLevel};
use mkse::net::{FaultPlan, Hub, HubConfig, ResilientClient, RetryPolicy};
use mkse::protocol::{render_prometheus, Request, TypedCalls};
use mkse_testkit::{chaos_connector, fixture, frame_len};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const CLIENTS: u64 = 3;
const ROUNDS: usize = 4;

fn main() {
    let texts = [
        "intrusion alert on the backup server",
        "quarterly revenue and invoice audit",
        "phishing alert for the finance team",
        "backup schedule and audit trail",
        "revenue forecast for next quarter",
        "intrusion detection audit findings",
    ];
    let keyword_sets: [&[&str]; 4] = [&["audit"], &["alert"], &["backup"], &["revenue"]];
    let fx = Arc::new(fixture(11, &texts, &keyword_sets, &[]));

    let config = HubConfig {
        batch_window: Duration::from_millis(2),
        batch_depth: 8,
        ..HubConfig::default()
    };
    let hub = Hub::spawn(fx.server(2, false), config);
    let frame = frame_len(&Request::Query(fx.queries[0].clone()));
    let kill_budget = frame * 3 + frame / 2;
    let registry = Telemetry::new();
    registry.set_level(TelemetryLevel::Spans);

    let workers: Vec<_> = (0..CLIENTS)
        .map(|k| {
            let plan = move |ordinal| FaultPlan {
                kill_after_bytes: Some(kill_budget),
                torn_write_per_mille: 60,
                delay_per_mille: 100,
                max_delay_micros: 150,
                ..FaultPlan::healthy(0xFEED + k * 997 + ordinal)
            };
            let handles = Arc::new(Mutex::new(Vec::new()));
            let connector =
                chaos_connector(hub.memory_dialer(), plan, Some(registry.clone()), handles);
            let mut client = ResilientClient::new(connector, RetryPolicy::default())
                .with_first_request_id(k * 1_000_000 + 1)
                .with_telemetry(registry.clone());
            let fx = fx.clone();
            std::thread::spawn(move || {
                let mut matches = 0;
                for _ in 0..ROUNDS {
                    for query in &fx.queries {
                        let reply = client.query(query).expect("an idempotent query survives");
                        matches += reply.matches.len();
                    }
                }
                (client.stats(), matches)
            })
        })
        .collect();

    println!("=== chaos (kill budget {kill_budget} bytes per connection) ===");
    for (k, worker) in workers.into_iter().enumerate() {
        let (stats, matches) = worker.join().expect("client thread");
        println!(
            "client {k}: {} attempts = {} completed + {} shed + {} link faults | \
             {} retries, {} reconnects, {} backoff sleeps ({} µs) | {matches} matches",
            stats.attempts,
            stats.successes,
            stats.sheds,
            stats.link_faults,
            stats.retries,
            stats.reconnects,
            stats.backoff_waits,
            stats.backoff_ns / 1_000,
        );
    }
    let report = hub.shutdown();
    println!("hub executed {} requests", report.requests);

    println!("\n=== resilience registry (Prometheus) ===");
    let resilience = ["retries", "reconnects", "faults_injected", "backoff_wait"];
    let prometheus = render_prometheus(&registry.snapshot());
    for line in prometheus.lines().filter(|line| !line.contains("_bucket")) {
        if resilience.iter().any(|series| line.contains(series)) {
            println!("{line}");
        }
    }
}
