//! The shard fleet end to end: three nodes register with a coordinator over
//! the framed codec, a corpus uploads through the coordinator (fanning out
//! per node), and a seeded byte budget kills node 1's data link
//! **mid-workload**. The coordinator re-ships node 1's shards from its mirror
//! to a survivor; the nodes' beats show the new assignment, and the fleet
//! registry prints as Prometheus text.
//!
//! The oracle matrix's `fleet[nodes=3, kill]` and `fleet[nodes=3, cascade]`
//! rows (`tests/oracle_matrix.rs`) hold every reply of such a run to the
//! sequential scan's model, op by op, and check the failover accounting
//! printed here.
//!
//! Run with: `cargo run --release --example fleet_session`

use mkse::net::{ResilientClient, RetryPolicy};
use mkse::protocol::{render_prometheus, TypedCalls};
use mkse_testkit::{fixture, forward_len, forwarded_query_len, Fleet};

const ROUNDS: usize = 3;

fn main() {
    let texts = [
        "intrusion alert on the backup server",
        "quarterly revenue and invoice audit",
        "phishing alert for the finance team",
        "backup schedule and audit trail",
        "revenue forecast for next quarter",
        "intrusion detection audit findings",
        "invoice backup retention policy",
        "alert routing for the audit team",
    ];
    let keyword_sets: [&[&str]; 4] = [&["audit"], &["alert"], &["backup"], &["revenue"]];
    let fx = fixture(11, &texts, &keyword_sets, &[]);

    // Node 1 serves shards {0,1}: its link survives the seed-upload forward
    // plus five query forwards, then the machine is lost.
    let q = forwarded_query_len(&fx.queries[0]);
    let budget = forward_len(&fx.seed_upload.indices, &[0, 1]) + 5 * q + q / 2;
    let nodes = [(1, 2, Some(budget)), (2, 1, None), (3, 0, None)];
    let fleet = Fleet::spawn(&fx.params, &nodes);
    let mut runners = fleet.runners;

    println!("=== registration ===");
    for runner in runners.iter_mut() {
        let assignment = runner.register().expect("registration");
        println!(
            "node {} registered: shards {:?}",
            runner.node_id(),
            assignment.shards
        );
    }

    let mut client = ResilientClient::new(
        fleet.hub.memory_dialer().connector(),
        RetryPolicy::default(),
    );
    let seed = fx.seed_upload.clone();
    client
        .upload(seed.indices, seed.documents)
        .expect("seed upload");
    for round in 0..ROUNDS {
        let matches: usize = (fx.queries.iter())
            .map(|query| {
                client
                    .query(query)
                    .expect("queries survive failover")
                    .matches
                    .len()
            })
            .sum();
        println!("\nround {round}: {matches} matches");
        // Survivors keep beating between rounds; the dead node is refused.
        for runner in runners.iter_mut() {
            match runner.heartbeat() {
                Ok(a) => println!("node {} beats, shards {:?}", runner.node_id(), a.shards),
                Err(e) => println!("node {} refused: {e}", runner.node_id()),
            }
        }
    }
    let info = client.server_info().expect("server info");
    println!(
        "\ncorpus after failover: {} documents across {} global shards",
        info.documents, info.shards
    );

    fleet.hub.shutdown();
    for runner in runners {
        runner.shutdown();
    }
    println!("\n=== fleet registry (Prometheus) ===");
    let fleet_series = [
        "nodes_",
        "failover",
        "heartbeats_missed",
        "shards_reassigned",
    ];
    let prometheus = render_prometheus(&fleet.telemetry.snapshot());
    for line in prometheus.lines() {
        if fleet_series.iter().any(|series| line.contains(series)) {
            println!("{line}");
        }
    }
}
