//! Helpers the chaos and hostile-bytes suites share — the first step of one
//! test kit (ROADMAP item 4(b)). A suite `mod common;`s this file and uses
//! the part it needs.
#![allow(dead_code)] // each suite uses a different subset

use mkse::core::Telemetry;
use mkse::net::{JournalEntry, ResilienceStats};
use mkse::protocol::{wire, Request, Response, Service};
use std::collections::BTreeMap;

/// The resilient client's conservation law: every attempt is accounted to
/// exactly one outcome, `attempts == successes + sheds + link_faults`.
pub fn assert_conservation(stats: &ResilienceStats, who: &str) {
    assert_eq!(
        stats.attempts,
        stats.successes + stats.sheds + stats.link_faults,
        "{who}: conservation law violated: {stats:?}"
    );
}

/// Replay a hub's execution journal on a sequential twin, one
/// `Service::call` at a time, and return the expected reply per request id.
/// Fleet-control traffic (registration, heartbeats, metrics) is coordinator
/// plumbing with no twin counterpart and no effect on index state, so it is
/// skipped — a `CloudServer` hub's journal holds none, and the skip is a
/// no-op there.
pub fn replay_journal(
    twin: &mut impl Service,
    journal: &[JournalEntry],
) -> BTreeMap<u64, Response> {
    let mut expected = BTreeMap::new();
    for entry in journal {
        if matches!(
            entry.request,
            Request::RegisterNode(_) | Request::NodeHeartbeat(_) | Request::MetricsSnapshot
        ) {
            continue;
        }
        expected.insert(entry.request_id, twin.call(entry.request.clone()));
    }
    expected
}

/// Every reply a client completed equals the replayed twin's, value and frame
/// bytes alike.
pub fn assert_replies_match_replay(
    received: &[(u64, Response)],
    expected: &BTreeMap<u64, Response>,
    label: &str,
) {
    for (id, reply) in received {
        let want = expected
            .get(id)
            .unwrap_or_else(|| panic!("{label}: completed request #{id} missing from journal"));
        assert_eq!(reply, want, "{label}: reply for request #{id} diverged");
        assert_eq!(
            wire::encode_response(*id, reply),
            wire::encode_response(*id, want),
            "{label}: frame bytes for request #{id} diverged"
        );
    }
}

/// A counter of the registry, by name.
pub fn counter(telemetry: &Telemetry, name: &str) -> u64 {
    telemetry.snapshot().counter(name)
}

/// A gauge of the registry, by name; a missing gauge fails the test.
pub fn gauge(telemetry: &Telemetry, name: &str) -> u64 {
    let snapshot = telemetry.snapshot();
    let found = snapshot.gauges.iter().find(|(n, _)| n == name);
    found.unwrap_or_else(|| panic!("gauge {name} missing")).1
}
