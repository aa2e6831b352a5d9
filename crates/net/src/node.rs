//! The shard-server node: one `CloudServer` behind a hub, plus the control
//! loop that joins it to a [`Coordinator`](crate::coordinator::Coordinator).
//!
//! A [`NodeRunner`] owns two halves:
//!
//! * a **data plane** — its own [`Hub`] serving a [`CloudServer`]; the
//!   coordinator dials this hub (via [`NodeRunner::dialer`], possibly wrapped
//!   in a `FaultyLink` by a chaos harness) to ship shards and scatter queries;
//! * a **control plane** — a [`ResilientClient`] to the coordinator through
//!   which the node registers ([`NodeRunner::register`]) and beats
//!   ([`NodeRunner::heartbeat`]). The heartbeat payload is the node's own
//!   telemetry snapshot, read straight from the server's registry (a handle
//!   cloned before the server moved onto the hub's dispatcher) — the same
//!   snapshot `MetricsSnapshot` would answer, without crossing the hub. The
//!   coordinator's link therefore stays the node hub's only connection, so
//!   every forwarded query takes the hub's solo fast path instead of waiting
//!   out a batch window for company that cannot come.
//!
//! Heartbeats are driven by the caller, never by a background thread: tests
//! and benches beat explicitly, which keeps seeded failure schedules
//! reproducible.

use crate::client::ClientError;
use crate::hub::{Hub, HubConfig, HubReport, MemoryDialer};
use crate::resilient::{Connector, ResilienceStats, ResilientClient, RetryPolicy};
use mkse_core::telemetry::Telemetry;
use mkse_core::SystemParams;
use mkse_protocol::{
    CloudServer, NodeCapabilities, NodeHeartbeat, NodeRegistration, ProtocolError, Request,
    Response, Service, ShardAssignment,
};

/// Everything a node needs besides the coordinator's address.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// The node's stable identity (survives reconnects).
    pub node_id: u64,
    /// Local shard count of the node's own engine — how the node parallelizes
    /// *within* the global shards it serves; invisible to the fleet layout.
    pub local_shards: usize,
    /// Advertised to the coordinator at registration.
    pub capabilities: NodeCapabilities,
    /// The node's hub (batching windows, limits, journal).
    pub hub: HubConfig,
    /// Retry policy for the control-plane client to the coordinator.
    pub policy: RetryPolicy,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            node_id: 0,
            local_shards: 2,
            capabilities: NodeCapabilities::default(),
            hub: HubConfig::default(),
            policy: RetryPolicy::default(),
        }
    }
}

/// Control-plane failures: transport trouble talking to the coordinator, a
/// typed refusal from it, or a reply of the wrong shape.
#[derive(Debug)]
pub enum NodeError {
    /// The control client could not complete the exchange.
    Client(ClientError),
    /// The coordinator answered, but with a refusal.
    Refused(ProtocolError),
    /// The coordinator answered with an unexpected response variant.
    UnexpectedReply(&'static str),
}

impl std::fmt::Display for NodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeError::Client(e) => write!(f, "control-plane transport failure: {e}"),
            NodeError::Refused(e) => write!(f, "coordinator refused: {e}"),
            NodeError::UnexpectedReply(op) => {
                write!(f, "coordinator sent an unexpected reply to {op}")
            }
        }
    }
}

impl std::error::Error for NodeError {}

impl From<ClientError> for NodeError {
    fn from(e: ClientError) -> Self {
        NodeError::Client(e)
    }
}

/// A running shard-server node.
pub struct NodeRunner {
    node_id: u64,
    capabilities: NodeCapabilities,
    hub: crate::hub::HubHandle,
    /// The server's registry (shared handle): heartbeats carry its snapshot.
    telemetry: Telemetry,
    /// Control-plane client to the coordinator.
    control: ResilientClient,
    assignment: Option<ShardAssignment>,
}

impl NodeRunner {
    /// Spawn the node's hub around a fresh `CloudServer` and wire the control
    /// plane to the coordinator through `coordinator` (typically the
    /// coordinator hub's [`MemoryDialer`], possibly fault-wrapped).
    pub fn spawn(params: SystemParams, config: NodeConfig, coordinator: Connector) -> NodeRunner {
        let server = CloudServer::with_shards(params, config.local_shards.max(1));
        // `CloudServer::telemetry` is `Some(engine registry)` unconditionally.
        let telemetry = server
            .telemetry()
            .expect("a CloudServer keeps a registry")
            .clone();
        let hub = Hub::spawn(server, config.hub);
        let control = ResilientClient::new(coordinator, config.policy)
            .with_first_request_id(config.node_id.wrapping_mul(1_000_000_000) + 750_000_001);
        NodeRunner {
            node_id: config.node_id,
            capabilities: config.capabilities,
            hub,
            telemetry,
            control,
            assignment: None,
        }
    }

    /// The node's identity.
    pub fn node_id(&self) -> u64 {
        self.node_id
    }

    /// A dialer into the node's data-plane hub — hand this to
    /// `Coordinator::add_node` (wrap it in a `FaultyLink` to torment the
    /// fleet's view of this node without touching the node itself).
    pub fn dialer(&self) -> MemoryDialer {
        self.hub.memory_dialer()
    }

    /// The shard assignment from the last successful register/heartbeat.
    pub fn assignment(&self) -> Option<&ShardAssignment> {
        self.assignment.as_ref()
    }

    /// Control-plane resilience counters (conservation law holds here too).
    pub fn control_stats(&self) -> ResilienceStats {
        self.control.stats()
    }

    fn expect_assignment(
        &mut self,
        reply: Result<Response, ClientError>,
        op: &'static str,
    ) -> Result<ShardAssignment, NodeError> {
        match reply? {
            Response::ShardAssignment(assignment) => {
                self.assignment = Some(assignment.clone());
                Ok(assignment)
            }
            Response::Error(e) => Err(NodeError::Refused(e)),
            _ => Err(NodeError::UnexpectedReply(op)),
        }
    }

    /// Join the fleet: advertise capabilities, receive the shard assignment.
    /// Idempotent — re-registering after being declared dead rejoins with
    /// whatever shards the coordinator grants now.
    pub fn register(&mut self) -> Result<ShardAssignment, NodeError> {
        let request = Request::RegisterNode(NodeRegistration {
            node_id: self.node_id,
            capabilities: self.capabilities,
        });
        let reply = self.control.call(&request);
        self.expect_assignment(reply, "RegisterNode")
    }

    /// One liveness beat: send the node's own telemetry snapshot to the
    /// coordinator; the answer is the current assignment.
    pub fn heartbeat(&mut self) -> Result<ShardAssignment, NodeError> {
        let request = Request::NodeHeartbeat(NodeHeartbeat {
            node_id: self.node_id,
            metrics: self.telemetry.snapshot(),
        });
        let reply = self.control.call(&request);
        self.expect_assignment(reply, "NodeHeartbeat")
    }

    /// Stop the node's hub, returning its transport report.
    pub fn shutdown(self) -> HubReport {
        self.hub.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::{Coordinator, FleetConfig};
    use crate::hub::Hub;
    use mkse_core::SystemParams;
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    /// Connector that resolves its dialer on first use — breaks the spawn
    /// cycle (node runners need the coordinator hub's address, the
    /// coordinator needs the nodes' dialers before its hub spawns).
    fn late_connector(slot: Arc<Mutex<Option<MemoryDialer>>>) -> Connector {
        Box::new(move |_ordinal| {
            let guard = slot.lock().unwrap();
            let dialer = guard
                .as_ref()
                .ok_or_else(|| std::io::Error::other("coordinator hub not up yet"))?;
            let (reader, writer) = dialer.connect().split();
            Ok((Box::new(reader) as _, Box::new(writer) as _))
        })
    }

    /// The full control loop over the wire: nodes register with a coordinator
    /// running behind its own hub, beat, and read their assignments back —
    /// the same framed codec end to end.
    #[test]
    fn nodes_register_and_beat_through_the_coordinator_hub() {
        let params = SystemParams::default();
        let coordinator_slot: Arc<Mutex<Option<MemoryDialer>>> = Arc::new(Mutex::new(None));

        let mut runners: Vec<NodeRunner> = [(1u64, 2u32), (2, 0)]
            .into_iter()
            .map(|(node_id, shard_slots)| {
                NodeRunner::spawn(
                    params.clone(),
                    NodeConfig {
                        node_id,
                        local_shards: 2,
                        capabilities: NodeCapabilities {
                            shard_slots,
                            scan_lanes: 2,
                            cache_capacity: 0,
                        },
                        ..NodeConfig::default()
                    },
                    late_connector(coordinator_slot.clone()),
                )
            })
            .collect();

        let mut coordinator = Coordinator::new(
            params.clone(),
            FleetConfig {
                num_global_shards: 4,
                heartbeat_interval: Duration::from_millis(50),
                failure_deadline: Duration::from_secs(60),
                ..FleetConfig::default()
            },
        );
        for runner in &runners {
            coordinator.add_node(runner.node_id(), runner.dialer().connector());
        }
        let telemetry = coordinator.telemetry_handle();
        let coordinator_hub = Hub::spawn(coordinator, HubConfig::default());
        *coordinator_slot.lock().unwrap() = Some(coordinator_hub.memory_dialer());

        let a1 = runners[0].register().expect("node 1 registers");
        assert_eq!(a1.shards, vec![0, 1], "capacity-limited grant");
        let a2 = runners[1].register().expect("node 2 registers");
        assert_eq!(a2.shards, vec![2, 3], "the rest goes to node 2");
        assert_eq!(a2.failure_deadline_ms, 60_000);

        let beat = runners[0].heartbeat().expect("node 1 beats");
        assert_eq!(beat.shards, a1.shards, "assignment is stable across beats");
        assert_eq!(runners[0].assignment().unwrap().shards, vec![0, 1]);

        let snapshot = telemetry.snapshot();
        let live = snapshot
            .gauges
            .iter()
            .find(|(n, _)| n == "nodes_live")
            .map(|(_, v)| *v);
        assert_eq!(live, Some(2));
        // The coordinator's registry is its hub's registry too: the two
        // registrations and the beat crossed it as counted frames.
        assert_eq!(snapshot.counter("wire_frames_in"), 3);

        // A node nobody wired refuses politely, over the wire.
        let mut stranger = NodeRunner::spawn(
            params,
            NodeConfig {
                node_id: 99,
                ..NodeConfig::default()
            },
            late_connector(coordinator_slot.clone()),
        );
        assert!(matches!(
            stranger.register(),
            Err(NodeError::Refused(ProtocolError::Unsupported(_)))
        ));
        assert!(matches!(
            stranger.heartbeat(),
            Err(NodeError::Refused(ProtocolError::Unsupported(_)))
        ));

        for runner in runners {
            let stats = runner.control_stats();
            assert_eq!(
                stats.attempts,
                stats.successes + stats.sheds + stats.link_faults
            );
            runner.shutdown();
        }
        stranger.shutdown();
        coordinator_hub.shutdown();
    }
}
