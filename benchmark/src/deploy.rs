//! Deployments the workloads and the ladder run against, built only from the
//! front-door types and `..Default::default()` configs: a `CloudServer` hub on
//! TCP loopback, or a coordinator hub on TCP loopback in front of
//! `NodeRunner`s on memory links.

use crate::inputs::Inputs;
use crate::spec::{self, ClientKind, Workload};
use mkse_core::telemetry::TelemetryLevel;
use mkse_core::RankedDocumentIndex;
use mkse_net::{
    ClientError, Connector, Coordinator, FleetConfig, Hub, HubConfig, HubHandle, MemoryDialer,
    NetClient, NodeConfig, NodeRunner, ResilienceStats, ResilientClient, RetryPolicy,
};
use mkse_protocol::{CloudServer, NodeCapabilities, Request, Response, UploadMessage, WireStats};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long a plain `NetClient` waits for one reply.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Either client type behind one blocking `call`. A run holds at most two,
/// so the size gap between the variants is not worth a `Box`.
#[allow(clippy::large_enum_variant)]
pub enum Caller {
    Net(NetClient),
    Resilient(ResilientClient),
}

impl Caller {
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        match self {
            Caller::Net(c) => c.call(request, REPLY_TIMEOUT),
            Caller::Resilient(c) => c.call(request),
        }
    }

    pub fn wire_stats(&self) -> WireStats {
        match self {
            Caller::Net(c) => c.wire_stats(),
            Caller::Resilient(c) => c.wire_stats(),
        }
    }

    pub fn resilience_stats(&self) -> ResilienceStats {
        match self {
            Caller::Net(_) => ResilienceStats::default(),
            Caller::Resilient(c) => c.stats(),
        }
    }
}

fn tcp_connector(addr: SocketAddr) -> Connector {
    Box::new(move |_ordinal| {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        Ok((Box::new(read_half) as _, Box::new(stream) as _))
    })
}

fn memory_connector(dialer: MemoryDialer) -> Connector {
    Box::new(move |_ordinal| {
        let (reader, writer) = dialer.connect().split();
        Ok((Box::new(reader) as _, Box::new(writer) as _))
    })
}

/// A node's control-plane connector must exist before the coordinator hub
/// does; it resolves the hub's dialer on first use.
fn late_connector(slot: Arc<Mutex<Option<MemoryDialer>>>) -> Connector {
    Box::new(move |_ordinal| {
        let guard = slot.lock().expect("dialer slot poisoned");
        let dialer = guard
            .as_ref()
            .ok_or_else(|| std::io::Error::other("coordinator hub not up yet"))?;
        let (reader, writer) = dialer.connect().split();
        Ok((Box::new(reader) as _, Box::new(writer) as _))
    })
}

/// The nodes of a fleet and the harness-driven heartbeat: the coordinator
/// runs no clock of its own, so whoever holds this beats at the advertised
/// interval between its own requests.
pub struct Beater {
    nodes: Vec<NodeRunner>,
    interval: Duration,
    last: Instant,
    pub heartbeats: u64,
}

impl Beater {
    fn idle() -> Beater {
        Beater {
            nodes: Vec::new(),
            interval: Duration::MAX,
            last: Instant::now(),
            heartbeats: 0,
        }
    }

    pub fn beat_if_due(&mut self) {
        if self.last.elapsed() < self.interval {
            return;
        }
        for node in &mut self.nodes {
            node.heartbeat().expect("heartbeat on a healthy fleet");
            self.heartbeats += 1;
        }
        self.last = Instant::now();
    }

    /// Run `work` while no client is driving the deployment; a helper thread
    /// keeps a fleet's heartbeat going meanwhile, so its nodes stay alive.
    pub fn beat_during<T>(&mut self, work: impl FnOnce() -> T) -> T {
        if self.nodes.is_empty() {
            return work();
        }
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    self.beat_if_due();
                    std::thread::sleep(Duration::from_millis(20));
                }
            });
            let out = work();
            done.store(true, Ordering::Relaxed);
            out
        })
    }
}

/// A running deployment: the front hub, its TCP address, and (for fleets)
/// the nodes behind it.
pub struct Deployment {
    hub: HubHandle,
    pub addr: SocketAddr,
    pub beater: Beater,
}

/// What a deployment did, collected at shutdown.
pub struct Teardown {
    /// Requests executed by all node hubs over the fleet's life (0 without
    /// a fleet).
    pub node_requests: u64,
    pub heartbeats: u64,
    pub sheds: u64,
}

impl Deployment {
    /// `fleet_nodes == 0`: `CloudServer::with_shards(params, 2)` behind
    /// `HubConfig::default()`. Otherwise a `Coordinator` (`FleetConfig`
    /// default but 6 global shards) with that many registered nodes; a lone
    /// node takes every shard, several take two slots each.
    ///
    /// `level` is applied through the public setters before the service is
    /// handed to its hub; `Off` leaves every default alone.
    pub fn spawn(inputs: &Inputs, fleet_nodes: usize, level: TelemetryLevel) -> Deployment {
        if fleet_nodes == 0 {
            let server = CloudServer::with_shards(inputs.params.clone(), spec::SERVER_SHARDS);
            if level != TelemetryLevel::Off {
                server.set_telemetry_level(level);
            }
            let hub = Hub::spawn(server, HubConfig::default());
            let addr = hub.bind_tcp("127.0.0.1:0").expect("bind loopback");
            return Deployment {
                hub,
                addr,
                beater: Beater::idle(),
            };
        }
        let slot: Arc<Mutex<Option<MemoryDialer>>> = Arc::new(Mutex::new(None));
        let shard_slots = if fleet_nodes == 1 { 0 } else { 2 };
        let mut nodes: Vec<NodeRunner> = (1..=fleet_nodes as u64)
            .map(|node_id| {
                NodeRunner::spawn(
                    inputs.params.clone(),
                    NodeConfig {
                        node_id,
                        capabilities: NodeCapabilities {
                            shard_slots,
                            ..NodeCapabilities::default()
                        },
                        ..NodeConfig::default()
                    },
                    late_connector(slot.clone()),
                )
            })
            .collect();
        let mut coordinator = Coordinator::new(
            inputs.params.clone(),
            FleetConfig {
                num_global_shards: spec::FLEET_GLOBAL_SHARDS,
                ..FleetConfig::default()
            },
        );
        for node in &nodes {
            coordinator.add_node(node.node_id(), memory_connector(node.dialer()));
        }
        if level != TelemetryLevel::Off {
            coordinator.telemetry_handle().set_level(level);
        }
        let hub = Hub::spawn(coordinator, HubConfig::default());
        *slot.lock().expect("dialer slot poisoned") = Some(hub.memory_dialer());
        let addr = hub.bind_tcp("127.0.0.1:0").expect("bind loopback");
        let mut interval = Duration::MAX;
        for node in &mut nodes {
            let assignment = node.register().expect("registration on a healthy fleet");
            interval = Duration::from_millis(assignment.heartbeat_interval_ms);
        }
        Deployment {
            hub,
            addr,
            beater: Beater {
                nodes,
                interval,
                last: Instant::now(),
                heartbeats: 0,
            },
        }
    }

    /// A TCP client of the front hub. Ids start at `client * 10^9 + 1` so
    /// several clients stay distinguishable in any journal or trace.
    pub fn connect(&self, kind: ClientKind, client: usize) -> Caller {
        let first_id = client as u64 * 1_000_000_000 + 1;
        match kind {
            ClientKind::Net => Caller::Net(
                NetClient::connect_tcp(self.addr)
                    .expect("connect loopback")
                    .with_first_request_id(first_id),
            ),
            ClientKind::Resilient => Caller::Resilient(
                ResilientClient::new(tcp_connector(self.addr), RetryPolicy::default())
                    .with_first_request_id(first_id),
            ),
        }
    }

    /// An in-process client of the front hub (the `hub_mem` ladder rung).
    pub fn connect_memory(&self) -> Caller {
        Caller::Net(NetClient::from_memory(self.hub.connect_memory()))
    }

    /// Upload one chunk of the seed corpus through `caller`, wait for the
    /// ack, then beat if a heartbeat is due. `stored` counts documents acked
    /// so far.
    pub fn seed(
        &mut self,
        caller: &mut Caller,
        indices: Vec<RankedDocumentIndex>,
        stored: &mut u64,
    ) {
        *stored += indices.len() as u64;
        let reply = caller
            .call(&Request::Upload(UploadMessage {
                indices,
                documents: vec![],
            }))
            .expect("seed upload");
        assert_eq!(
            reply,
            Response::Uploaded { documents: *stored },
            "seed upload ack"
        );
        self.beater.beat_if_due();
    }

    pub fn shutdown(self) -> Teardown {
        let report = self.hub.shutdown();
        let node_requests = self
            .beater
            .nodes
            .into_iter()
            .map(|node| node.shutdown().requests)
            .sum();
        Teardown {
            node_requests,
            heartbeats: self.beater.heartbeats,
            sheds: report.sheds,
        }
    }
}

/// A deployment with its clients connected and the seed corpus uploaded.
pub struct Ready {
    pub deployment: Deployment,
    pub callers: Vec<Caller>,
    /// Wall seconds of the whole set-up, and of index construction alone.
    pub setup_s: f64,
    pub index_build_s: f64,
}

/// The benchmark's set-up, timed from outside: deployment spawn and
/// registration, client connections, then per corpus chunk index construction
/// and upload until acked, and (when the workload asks for it) `EnableCache`.
/// Synthesizing each chunk's documents is harness work: the clock is stopped
/// around it, as it is for the oracle, which runs before this is called.
pub fn set_up(inputs: &Inputs, workload: &Workload, level: TelemetryLevel) -> Ready {
    let mut started = Instant::now();
    let mut deployment = Deployment::spawn(inputs, workload.fleet_nodes, level);
    let mut callers: Vec<Caller> = (0..workload.clients)
        .map(|c| deployment.connect(workload.client, c))
        .collect();
    let mut indexer = inputs.indexer();
    let mut setup = started.elapsed();
    let mut index_build = Duration::ZERO;
    let mut stored = 0;
    for docs in inputs.corpus_chunks() {
        started = Instant::now();
        let indices = indexer.index(&docs);
        index_build += started.elapsed();
        deployment.seed(&mut callers[0], indices, &mut stored);
        setup += started.elapsed();
    }
    started = Instant::now();
    if workload.cache_capacity > 0 {
        let reply = callers[0]
            .call(&Request::EnableCache {
                capacity_per_shard: workload.cache_capacity,
            })
            .expect("EnableCache");
        assert_eq!(reply, Response::Ack, "EnableCache ack");
    }
    setup += started.elapsed();
    Ready {
        deployment,
        callers,
        setup_s: setup.as_secs_f64(),
        index_build_s: index_build.as_secs_f64(),
    }
}
