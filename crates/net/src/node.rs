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
//!   ([`NodeRunner::heartbeat`]). A beat carries the node's id and nothing
//!   else: the coordinator reads liveness from it, and the node's metrics stay
//!   one `MetricsSnapshot` away on its data-plane hub. The node's hub and its
//!   control client run the default [`HubConfig`] and [`RetryPolicy`]. The
//!   coordinator forwards every read as one `BatchQuery` — a barrier to the
//!   node hub's batcher, executed on arrival — so no forward ever waits out a
//!   batch window.
//!
//! Heartbeats are driven by the caller, never by a background thread: tests
//! and benches beat explicitly, which keeps seeded failure schedules
//! reproducible.

use crate::client::ClientError;
use crate::hub::{Hub, HubConfig, HubReport, MemoryDialer};
use crate::resilient::{Connector, ResilientClient, RetryPolicy};
use mkse_core::SystemParams;
use mkse_protocol::{
    CloudServer, NodeCapabilities, NodeHeartbeat, NodeRegistration, ShardAssignment, TypedCalls,
};

/// Local shard count of a node's own engine — how the node parallelizes
/// *within* the global shards it serves; invisible to the fleet layout.
const LOCAL_SHARDS: usize = 2;

/// Everything a node needs besides the coordinator's address.
#[derive(Clone, Debug, Default)]
pub struct NodeConfig {
    /// The node's stable identity (survives reconnects).
    pub node_id: u64,
    /// Advertised to the coordinator at registration.
    pub capabilities: NodeCapabilities,
}

/// A running shard-server node.
pub struct NodeRunner {
    node_id: u64,
    capabilities: NodeCapabilities,
    hub: crate::hub::HubHandle,
    /// Control-plane client to the coordinator.
    control: ResilientClient,
}

impl NodeRunner {
    /// Spawn the node's hub around a fresh `CloudServer` and wire the control
    /// plane to the coordinator through `coordinator` (typically the
    /// coordinator hub's [`MemoryDialer`], possibly fault-wrapped).
    pub fn spawn(params: SystemParams, config: NodeConfig, coordinator: Connector) -> NodeRunner {
        let server = CloudServer::with_shards(params, LOCAL_SHARDS);
        let hub = Hub::spawn(server, HubConfig::default());
        let control = ResilientClient::new(coordinator, RetryPolicy::default())
            .with_first_request_id(config.node_id.wrapping_mul(1_000_000_000) + 750_000_001);
        NodeRunner {
            node_id: config.node_id,
            capabilities: config.capabilities,
            hub,
            control,
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

    /// Control-plane resilience counters (conservation law holds here too).
    #[cfg(test)]
    fn control_stats(&self) -> crate::resilient::ResilienceStats {
        self.control.stats()
    }

    /// Join the fleet: advertise capabilities, receive the shard assignment.
    /// Idempotent — re-registering after being declared dead rejoins with
    /// whatever shards the coordinator grants now. A refusal from the
    /// coordinator is [`ClientError::Reply`].
    pub fn register(&mut self) -> Result<ShardAssignment, ClientError> {
        self.control.register_node(NodeRegistration {
            node_id: self.node_id,
            capabilities: self.capabilities,
        })
    }

    /// One liveness beat: tell the coordinator this node is alive; the
    /// answer is the current assignment.
    pub fn heartbeat(&mut self) -> Result<ShardAssignment, ClientError> {
        self.control.node_heartbeat(NodeHeartbeat {
            node_id: self.node_id,
        })
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
    use mkse_protocol::ProtocolError;
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
                        capabilities: NodeCapabilities { shard_slots },
                    },
                    late_connector(coordinator_slot.clone()),
                )
            })
            .collect();

        let mut coordinator = Coordinator::new(
            params.clone(),
            FleetConfig {
                num_global_shards: 4,
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
        assert_eq!(a2.heartbeat_interval_ms, 15_000, "four beats per deadline");

        let beat = runners[0].heartbeat().expect("node 1 beats");
        assert_eq!(beat.shards, a1.shards, "assignment is stable across beats");

        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.gauge("nodes_live"), 2);
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
            Err(ClientError::Reply(ProtocolError::Unsupported(_)))
        ));
        assert!(matches!(
            stranger.heartbeat(),
            Err(ClientError::Reply(ProtocolError::Unsupported(_)))
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
