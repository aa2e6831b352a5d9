//! The fleet coordinator: scatter-gather front of a shard-server fleet.
//!
//! A [`Coordinator`] is a [`Service`] like any other party in the protocol —
//! it answers the same envelope vocabulary a single
//! [`CloudServer`](mkse_protocol::CloudServer) does, so a
//! client (or a `Hub`) cannot tell a fleet from one big server. Behind that
//! facade it partitions the corpus into `num_global_shards` round-robin
//! shards, assigns shards to registered nodes, scatters queries to every live
//! node and merges the per-node replies into the canonical result order
//! (descending rank, ties by ascending document id) — byte-identical to what
//! one sequential server holding the whole corpus would answer. The oracle
//! matrix's `fleet[…]` rows (`tests/oracle_matrix.rs`) hold every reply to
//! that — healthy, across a node killed mid-query and across a survivor
//! killed mid-failover — where a fleet answers differently in the ways
//! `mkse_testkit::fleet_view` states once.
//!
//! ## Membership and health
//!
//! Topology is static wiring plus dynamic membership: [`Coordinator::add_node`]
//! installs the *connector* for a node id (how to dial it), and the node
//! activates itself over the wire with [`Request::RegisterNode`], advertising
//! its [`NodeCapabilities`]. Registration and the periodic
//! [`Request::NodeHeartbeat`] are answered with the node's current
//! [`ShardAssignment`] — re-assignments propagate on the next beat. A node
//! silent for longer than [`FleetConfig::failure_deadline`] is declared dead on
//! the next request the coordinator serves (deadlines are swept at the top of
//! every [`Service::call`]; the coordinator has no background thread, which
//! keeps every test deterministic).
//!
//! ## The read path
//!
//! A query costs one forward hop plus the slowest node's share of the scan.
//! The scatter *submits* the forward to every live shard-holder
//! ([`ResilientClient::submit`]) before it *completes* any of them, in
//! node-id order, so the nodes scan side by side; every flight of a round is
//! completed before a failed node is failed over and the round repeated.
//! Every read travels as **one** [`Request::BatchQuery`] forward, which each
//! node answers with one fused plane pass: a group the coordinator's hub
//! coalesced from several clients' queries as one member per query (see
//! [`Service::call_query_group`]), a lone [`Request::Query`] as a group of
//! one — so nodes only ever see `BatchQuery` reads, and there is one scatter
//! and one merge. Writes keep their sequential forward — fleet-wide
//! at-most-once is a property of that order. A query that is not `r` bits long never leaves the
//! coordinator: it is answered the twin's own `IndexSizeMismatch` before the
//! scatter, because a node's typed refusal would read as a failed node there.
//!
//! ## Failover
//!
//! The coordinator keeps a full **mirror** of the index: a bare
//! [`ShardedStore`] — the same store type and insert path a node's engine
//! sits on, so validation errors, partial-upload semantics and snapshot bytes
//! all match a single-node twin exactly — and nothing derived from it. The
//! coordinator never scans, so it holds no scan plane; it keeps no serialized
//! checkpoint either, because the mirror *is* the authoritative copy, already
//! held as the §5 entries a snapshot writes: a shard is serialized — a header
//! plus copies — when (and only when) it ships. When a node dies —
//! health deadline, exhausted retries, or a refused reply — its shards are
//! re-homed onto the survivor with the fewest shards (ties to the lowest node
//! id, capacity respected): the survivor receives each non-empty shard's
//! current [`serialize_shard`] bytes (layout-independent) as exactly one
//! [`Request::RestoreIndex`]; a node that joins a populated fleet is filled
//! the same way. A node client never resubmits a write (a `ResilientClient`
//! retries idempotent requests only), so an ambiguous write marks the node
//! dead instead of risking a duplicate; the
//! subsequent re-ship sends the shard as the mirror holds it, giving
//! fleet-wide at-most-once effects.
//!
//! ## What the coordinator serves locally
//!
//! Document bodies never leave the coordinator: nodes hold index shards only,
//! so [`Request::Documents`] is answered from the coordinator's own store
//! (§4.3's metadata/bodies split maps onto the fleet naturally).
//! [`Request::SnapshotIndex`] serializes the mirror — byte-identical to the
//! twin's snapshot. Cache administration is refused: the fleet serves the
//! cache-off oracle and merged replies carry a zero [`CacheReport`].
//! [`Request::Counters`] follows the twin's rule for `requests_served` — the
//! registry's count minus the baseline the last [`Request::ResetCounters`]
//! took — and answers every Table 2 comparison field zero: comparisons are
//! performed, and counted, per node (ask each node), so a benchmark row
//! derived from them, such as `core.engine.comparisons_per_query`, reads 0
//! through a fleet by construction.
//!
//! §6 leakage note: registration, heartbeat and shard-shipping traffic is
//! server-side topology maintenance — none of it depends on queries, so the
//! fleet adds no observable channel beyond what a single server leaks. A
//! fused forward carries exactly the query bits the nodes would have received
//! one query at a time, and scattering concurrently reorders only the
//! server side's own work — neither shows a node anything new.
//!
//! ## Time
//!
//! The failure deadline is written once, in `expired`: a node dies only when
//! its silence is *longer* than [`FleetConfig::failure_deadline`]. Each
//! `Service` entry reads the clock once and passes `now` to the sweep, to
//! registration and to heartbeats.

use crate::resilient::{Connector, InFlight, ResilientClient, RetryPolicy};
use mkse_core::search::{top_matches, SearchMatch};
use mkse_core::storage::{ShardedStore, StoreError};
use mkse_core::telemetry::{Counter, Gauge, Stage, Telemetry, TelemetryLevel};
use mkse_core::{
    deserialize_store, serialize_index_store, serialize_shard, PersistenceError,
    RankedDocumentIndex, SystemParams,
};
use mkse_protocol::{
    answer_query_group, BatchQueryMessage, BatchSearchReply, CacheReport, DocumentReply,
    EncryptedDocumentTransfer, NodeCapabilities, NodeRegistration, OperationCounters,
    ProtocolError, QueryMessage, Request, Response, SearchReply, SearchResultEntry, ServerInfo,
    Service, ShardAssignment, TypedCalls, UploadMessage,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Fleet-wide policy: corpus partitioning and the health contract.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Round-robin shards the corpus is partitioned into (fixed for the
    /// fleet's lifetime; nodes serve subsets of these).
    pub num_global_shards: usize,
    /// Silence longer than this marks a node dead and triggers failover.
    /// Every [`ShardAssignment`] asks the node to beat four times per
    /// deadline (advisory: the coordinator only enforces the deadline).
    pub failure_deadline: Duration,
    /// Retry policy for the coordinator's per-node clients. The jitter seed is
    /// decorrelated per node (`jitter_seed ^ node_id`).
    pub node_policy: RetryPolicy,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            num_global_shards: 4,
            failure_deadline: Duration::from_secs(2),
            node_policy: RetryPolicy::default(),
        }
    }
}

/// Beats a node is asked for per failure deadline: the advertised interval is
/// `failure_deadline / BEATS_PER_DEADLINE`, so a node may miss three beats in
/// a row before it is declared dead.
const BEATS_PER_DEADLINE: u32 = 4;

/// One node the coordinator knows how to dial.
struct Node {
    client: ResilientClient,
    capabilities: NodeCapabilities,
    /// Global shards this node currently serves (kept sorted ascending).
    shards: Vec<u32>,
    /// When the node last registered or beat, while it is alive (registered,
    /// beating within the deadline, and not failed); `None` otherwise.
    last_beat: Option<Instant>,
    /// Has the node ever completed [`Request::RegisterNode`]?
    registered: bool,
}

/// Has a node whose last beat was at `last_beat` missed its deadline at
/// `now`? Only once its silence is longer than `failure_deadline`.
fn expired(last_beat: Instant, now: Instant, failure_deadline: Duration) -> bool {
    now.duration_since(last_beat) > failure_deadline
}

impl Node {
    fn alive(&self) -> bool {
        self.last_beat.is_some()
    }

    /// Shard capacity from the advertised slots; 0 means unlimited.
    fn capacity(&self) -> usize {
        match self.capabilities.shard_slots {
            0 => usize::MAX,
            n => n as usize,
        }
    }

    fn has_spare_capacity(&self) -> bool {
        self.alive() && self.shards.len() < self.capacity()
    }
}

/// The fleet front: one [`Service`] hiding N shard-server nodes.
pub struct Coordinator {
    config: FleetConfig,
    /// Full authoritative copy of the index, same store type and insert path
    /// as the single-node twin — identical errors, identical snapshot bytes.
    /// The corpus once: no plane, no cache, no serialized second copy.
    mirror: ShardedStore,
    /// Encrypted document bodies, served locally (nodes hold indices only).
    documents: BTreeMap<u64, EncryptedDocumentTransfer>,
    /// Entries are inserted by [`Coordinator::add_node`] and never removed, so
    /// an id taken from this map (or from `owner_of`, which only ever holds
    /// such ids) finds its entry in every later lookup.
    nodes: BTreeMap<u64, Node>,
    /// `owner_of[s]` = the live node serving global shard `s`.
    owner_of: Vec<Option<u64>>,
    /// Bumped on every fleet layout change; echoed in [`ShardAssignment`].
    epoch: u64,
    /// Registry value of [`Counter::RequestsServed`] at the last
    /// [`Request::ResetCounters`]: the `requests_served` a
    /// [`Request::Counters`] reply carries is the registry minus this, as a
    /// `CloudServer`'s is.
    served_baseline: u64,
    telemetry: Telemetry,
}

impl Coordinator {
    /// A fleet front with no nodes yet. Its telemetry starts at
    /// [`TelemetryLevel::Counters`], so the fleet gauges and failover
    /// counters are live from the first request.
    pub fn new(params: SystemParams, config: FleetConfig) -> Coordinator {
        let shards = config.num_global_shards.max(1);
        let mirror = ShardedStore::new(params, shards);
        let telemetry = Telemetry::new();
        telemetry.set_level(TelemetryLevel::Counters);
        Coordinator {
            config,
            mirror,
            documents: BTreeMap::new(),
            nodes: BTreeMap::new(),
            owner_of: vec![None; shards],
            epoch: 0,
            served_baseline: 0,
            telemetry,
        }
    }

    /// Install the connector for a node id. The node stays invisible to
    /// queries until it registers over the wire ([`Request::RegisterNode`]).
    pub fn add_node(&mut self, node_id: u64, connector: Connector) {
        let policy = RetryPolicy {
            jitter_seed: self.config.node_policy.jitter_seed ^ node_id,
            ..self.config.node_policy
        };
        let client = ResilientClient::new(connector, policy)
            .with_first_request_id(node_id.wrapping_mul(1_000_000_000) + 1);
        self.nodes.insert(
            node_id,
            Node {
                client,
                capabilities: NodeCapabilities::default(),
                shards: Vec::new(),
                last_beat: None,
                registered: false,
            },
        );
    }

    /// A clone of the coordinator's telemetry registry (shared handle): read
    /// the fleet gauges and failover counters from outside the hub.
    pub fn telemetry_handle(&self) -> Telemetry {
        self.telemetry.clone()
    }

    /// The current failover epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Ids of nodes currently alive (registered and within their deadline as
    /// of the last sweep).
    #[cfg(test)]
    fn live_nodes(&self) -> Vec<u64> {
        self.nodes
            .iter()
            .filter(|(_, n)| n.alive())
            .map(|(id, _)| *id)
            .collect()
    }

    // ---- membership ------------------------------------------------------

    fn exec_register(&mut self, reg: NodeRegistration, now: Instant) -> Response {
        let Some(node) = self.nodes.get_mut(&reg.node_id) else {
            return Response::Error(ProtocolError::Unsupported(format!(
                "node {} has no connector installed on the coordinator",
                reg.node_id
            )));
        };
        node.capabilities = reg.capabilities;
        node.last_beat = Some(now);
        node.registered = true;
        self.epoch += 1;
        // Hand the newcomer every unowned shard it has capacity for,
        // ascending — deterministic for a given registration order.
        let unowned: Vec<usize> = (0..self.owner_of.len())
            .filter(|s| self.owner_of[*s].is_none())
            .collect();
        for shard in unowned {
            let node = &self.nodes[&reg.node_id];
            if !node.alive() || node.shards.len() >= node.capacity() {
                break;
            }
            if self.ship_shard(reg.node_id, shard).is_ok() {
                self.owner_of[shard] = Some(reg.node_id);
                // The let-else at the top found this entry; none is ever removed.
                let node = self.nodes.get_mut(&reg.node_id).expect("registered above");
                node.shards.push(shard as u32);
                node.shards.sort_unstable();
            } else {
                self.fail_node(reg.node_id);
                self.update_gauges();
                return Response::Error(ProtocolError::Unsupported(format!(
                    "node {} failed during shard transfer",
                    reg.node_id
                )));
            }
        }
        self.update_gauges();
        Response::ShardAssignment(self.assignment_for(reg.node_id))
    }

    fn exec_heartbeat(&mut self, node_id: u64, now: Instant) -> Response {
        match self.nodes.get_mut(&node_id) {
            Some(node) if node.alive() => {
                node.last_beat = Some(now);
                Response::ShardAssignment(self.assignment_for(node_id))
            }
            Some(node) if node.registered => Response::Error(ProtocolError::Unsupported(format!(
                "node {node_id} was declared dead; re-register to rejoin the fleet"
            ))),
            _ => Response::Error(ProtocolError::Unsupported(format!(
                "node {node_id} is not registered with the coordinator"
            ))),
        }
    }

    fn assignment_for(&self, node_id: u64) -> ShardAssignment {
        ShardAssignment {
            node_id,
            shards: self.nodes[&node_id].shards.clone(),
            epoch: self.epoch,
            heartbeat_interval_ms: (self.config.failure_deadline / BEATS_PER_DEADLINE).as_millis()
                as u64,
            failure_deadline_ms: self.config.failure_deadline.as_millis() as u64,
        }
    }

    fn update_gauges(&self) {
        let registered = self.nodes.values().filter(|n| n.registered).count() as u64;
        let live = self.nodes.values().filter(|n| n.alive()).count() as u64;
        self.telemetry.set_gauge(Gauge::NodesRegistered, registered);
        self.telemetry.set_gauge(Gauge::NodesLive, live);
    }

    /// Declare dead every live node that has [`expired`] at `now`. Called at
    /// the top of every request — liveness advances with traffic, never on a
    /// background clock, so seeded tests stay deterministic.
    fn sweep(&mut self, now: Instant) {
        let deadline = self.config.failure_deadline;
        let dead: Vec<u64> = self
            .nodes
            .iter()
            .filter(|(_, n)| n.last_beat.is_some_and(|beat| expired(beat, now, deadline)))
            .map(|(id, _)| *id)
            .collect();
        for id in dead {
            self.telemetry.add(Counter::HeartbeatsMissed, 1);
            self.fail_node(id);
        }
        if !self.nodes.is_empty() {
            self.update_gauges();
        }
    }

    // ---- failover --------------------------------------------------------

    /// Mark a node dead and re-home its shards onto survivors: fewest shards
    /// first (ties to the lowest node id), capacity respected. A survivor
    /// that fails mid-ship dies too and sheds its own shards recursively.
    /// Shards no survivor can take are left unowned; queries then answer a
    /// typed error instead of a silently incomplete result.
    fn fail_node(&mut self, node_id: u64) {
        let Some(node) = self.nodes.get_mut(&node_id) else {
            return;
        };
        if node.last_beat.take().is_none() {
            return;
        }
        let lost: Vec<u32> = node.shards.drain(..).collect();
        let telemetry = self.telemetry.clone();
        let span = telemetry.span(Stage::FailoverDuration);
        self.telemetry.add(Counter::Failovers, 1);
        self.epoch += 1;
        for &s in &lost {
            self.owner_of[s as usize] = None;
        }
        let mut reassigned = 0u64;
        for s in lost {
            loop {
                let target = self
                    .nodes
                    .iter()
                    .filter(|(_, n)| n.has_spare_capacity())
                    .min_by_key(|(id, n)| (n.shards.len(), **id))
                    .map(|(id, _)| *id);
                let Some(t) = target else { break };
                if self.ship_shard(t, s as usize).is_ok() {
                    self.owner_of[s as usize] = Some(t);
                    // `t` was picked from `self.nodes` a few lines up.
                    let survivor = self.nodes.get_mut(&t).expect("picked from the map");
                    survivor.shards.push(s);
                    survivor.shards.sort_unstable();
                    reassigned += 1;
                    break;
                }
                self.fail_node(t);
            }
        }
        self.telemetry.add(Counter::ShardsReassigned, reassigned);
        drop(span);
        self.update_gauges();
    }

    /// Ship one global shard to a node: the shard as the mirror holds it now,
    /// serialized into one `RestoreIndex` (indices only — bodies stay on the
    /// coordinator); an empty shard ships nothing. Any refusal or link fault
    /// (retries are unsafe here, writes are non-idempotent) is the caller's
    /// cue to declare the node dead.
    fn ship_shard(&mut self, node_id: u64, shard: usize) -> Result<(), ()> {
        let node = self.nodes.get_mut(&node_id).ok_or(())?;
        if self.mirror.shard_len(shard) == 0 {
            return Ok(());
        }
        let shipped = node.client.restore(serialize_shard(&self.mirror, shard));
        shipped.map(drop).map_err(drop)
    }

    /// A non-empty shard no live node serves, if any.
    fn uncovered_shard(&self) -> Option<usize> {
        (0..self.owner_of.len())
            .find(|&s| self.owner_of[s].is_none() && self.mirror.shard_len(s) > 0)
    }

    fn no_coverage_error(&self, shard: usize) -> Response {
        Response::Error(ProtocolError::Unsupported(format!(
            "fleet cannot cover the corpus: no live node serves global shard {shard}"
        )))
    }

    // ---- the read path ---------------------------------------------------

    /// Merge per-node match lists into the first `top` of the canonical order
    /// (descending rank, ties by ascending document id) with the engine's own
    /// selection, [`top_matches`] — so the merged reply is byte-identical to
    /// the twin's, and only the kept entries are sorted.
    fn merge(collected: Vec<Vec<SearchResultEntry>>, top: Option<usize>) -> SearchReply {
        let matches = collected.into_iter().flatten().collect();
        SearchReply {
            matches: top_matches(matches, top, |e| SearchMatch {
                document_id: e.document_id,
                rank: e.rank,
            }),
            cache: CacheReport::default(),
        }
    }

    /// [`Coordinator::merge`] per member of a batch. `collected[n][i]` is
    /// node `n`'s reply to member `i` (every node answered `tops.len()`
    /// members — checked where the replies were extracted); member `i` is
    /// cut to its own `tops[i]`.
    fn merge_batch(collected: Vec<Vec<SearchReply>>, tops: &[Option<usize>]) -> Vec<SearchReply> {
        let mut per_node: Vec<_> = collected.into_iter().map(Vec::into_iter).collect();
        tops.iter()
            .map(|&top| {
                let parts = per_node
                    .iter_mut()
                    // `exec_batch_query`'s extract accepts a node's reply only
                    // when `replies.len() == tops.len()`.
                    .map(|replies| replies.next().expect("one reply per member").matches)
                    .collect();
                Self::merge(parts, top)
            })
            .collect()
    }

    /// Scatter a request to every shard-holding live node — submitted to all
    /// of them before any reply is awaited, so the nodes work side by side
    /// and a round costs the slowest node, not their sum — then collect one
    /// reply per node via `extract`, in node-id order. Every flight of a round
    /// is completed before anything else happens to its client; then the
    /// first node that failed is failed over and the loop re-scatters — each
    /// round kills at least one node, so it terminates. Queries are
    /// idempotent, so resubmission is always safe.
    #[allow(clippy::result_large_err)] // the Err is the Response sent to the caller
    fn scatter<T>(
        &mut self,
        request: &Request,
        extract: impl Fn(Response) -> Option<T>,
    ) -> Result<Vec<T>, Response> {
        loop {
            if let Some(shard) = self.uncovered_shard() {
                return Err(self.no_coverage_error(shard));
            }
            let flights: Vec<(u64, InFlight)> = self
                .nodes
                .iter_mut()
                .filter(|(_, n)| n.alive() && !n.shards.is_empty())
                .map(|(id, n)| (*id, n.client.submit(request)))
                .collect();
            let mut collected = Vec::with_capacity(flights.len());
            let mut failed = None;
            for (id, flight) in flights {
                // `id` came out of `self.nodes` when the flight was submitted.
                let node = self.nodes.get_mut(&id).expect("submitted to this node");
                let reply = node.client.complete(flight, request).ok();
                match reply.and_then(|(_, response)| extract(response)) {
                    Some(part) => collected.push(part),
                    None => failed = failed.or(Some(id)),
                }
            }
            match failed {
                Some(id) => self.fail_node(id),
                None => return Ok(collected),
            }
        }
    }

    /// The one read scatter: the nodes see `message` as it stands (its `top`
    /// is the widest any member asks for), and member `i` of the merged result
    /// is truncated to `tops[i]`.
    ///
    /// The length check comes first: a node would answer a query of the wrong
    /// length with the same typed error, but `scatter` reads any reply it
    /// cannot `extract` as a failed node — one hostile frame would fail the
    /// whole fleet over, node by node.
    #[allow(clippy::result_large_err)] // the Err is the Response sent to the caller
    fn exec_batch_query(
        &mut self,
        message: BatchQueryMessage,
        tops: &[Option<usize>],
    ) -> Result<Vec<SearchReply>, Response> {
        message
            .check(self.mirror.params().index_bits)
            .map_err(Response::Error)?;
        if self.mirror.is_empty() {
            let empty = SearchReply {
                matches: vec![],
                cache: CacheReport::default(),
            };
            return Ok(vec![empty; tops.len()]);
        }
        let collected = self.scatter(&Request::BatchQuery(message), |reply| match reply {
            Response::BatchSearch(b) if b.replies.len() == tops.len() => Some(b.replies),
            _ => None,
        })?;
        Ok(Self::merge_batch(collected, tops))
    }

    /// The fused forward of a group of queries — a coalesced group, or a lone
    /// `Query` as a group of one. The forward asks for the widest `top` of the
    /// group (everything, if any member is unbounded) and each member is
    /// truncated to its own `top` at the merge: a node's top-w list contains
    /// its top-t for every t ≤ w.
    fn forward_group(&mut self, messages: &[QueryMessage]) -> Vec<Response> {
        let tops: Vec<Option<usize>> = messages.iter().map(|m| m.top).collect();
        let widest = tops
            .iter()
            .try_fold(0, |widest, top| top.map(|t| widest.max(t)));
        let batch = BatchQueryMessage {
            queries: messages.iter().map(|m| m.query.clone()).collect(),
            top: widest,
        };
        match self.exec_batch_query(batch, &tops) {
            Ok(replies) => replies.into_iter().map(Response::Search).collect(),
            Err(error) => vec![error; messages.len()],
        }
    }

    fn exec_server_info(&mut self) -> Response {
        let params = self.mirror.params();
        let (index_bits, rank_levels) = (params.index_bits as u64, params.rank_levels() as u64);
        let shards = self.owner_of.len() as u64;
        if self.mirror.is_empty() {
            return Response::Info(ServerInfo {
                shards,
                documents: 0,
                index_bits,
                rank_levels,
                cache_enabled: false,
            });
        }
        // Sum the *nodes'* document counts — this pins the corpus: after any
        // failover the sum must still equal the mirror, or documents were
        // lost in transit.
        match self.scatter(&Request::ServerInfo, |reply| match reply {
            Response::Info(info) => Some(info.documents),
            _ => None,
        }) {
            Ok(counts) => Response::Info(ServerInfo {
                shards,
                documents: counts.iter().sum(),
                index_bits,
                rank_levels,
                cache_enabled: false,
            }),
            Err(error) => error,
        }
    }

    // ---- the write path --------------------------------------------------

    /// Insert `indices` into the mirror like the twin's `insert_all` — one by
    /// one, stopping at the first invalid index, accepted predecessors remain
    /// stored — and forward what was accepted to the owning nodes, grouped per
    /// node by the shard each insert named. A refused or ambiguous forward
    /// fails the node over — the re-ship sends the same documents as part of
    /// the mirror's shard, so the net effect is at-most-once fleet-wide.
    fn insert_and_forward(&mut self, indices: Vec<RankedDocumentIndex>) -> Result<(), StoreError> {
        let mut per_node: BTreeMap<u64, Vec<RankedDocumentIndex>> = BTreeMap::new();
        let mut outcome = Ok(());
        for index in indices {
            match self.mirror.insert(index) {
                Ok(shard) => {
                    if let Some(owner) = self.owner_of[shard] {
                        // `ShardedStore::insert` fills the last slot of the shard it returns.
                        let stored = self.mirror.entry(shard, self.mirror.shard_len(shard) - 1);
                        per_node.entry(owner).or_default().push(stored.into());
                    }
                }
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
            }
        }
        for (node_id, indices) in per_node {
            // `node_id` is an `owner_of` entry: an id of this map.
            let node = self.nodes.get_mut(&node_id).expect("owners are nodes");
            if node.client.upload(indices, vec![]).is_err() {
                self.fail_node(node_id);
            }
        }
        outcome
    }

    fn exec_upload(&mut self, upload: UploadMessage) -> Response {
        match self.insert_and_forward(upload.indices) {
            // The twin stores bodies only when every index was accepted.
            Err(e) => Response::Error(e.into()),
            Ok(()) => {
                for doc in upload.documents {
                    self.documents.insert(doc.document_id, doc);
                }
                Response::Uploaded {
                    documents: self.mirror.len() as u64,
                }
            }
        }
    }

    fn exec_restore(&mut self, bytes: &[u8]) -> Response {
        let indices = match deserialize_store(self.mirror.params(), bytes) {
            Ok(indices) => indices,
            Err(e) => return Response::Error(e.into()),
        };
        let decoded = indices.len() as u64;
        match self.insert_and_forward(indices) {
            // The twin's restore wraps store refusals as persistence errors;
            // match it exactly.
            Err(e) => Response::Error(PersistenceError::Store(e).into()),
            Ok(()) => Response::Restored { documents: decoded },
        }
    }

    fn exec_documents(&mut self, ids: &[u64]) -> Response {
        let mut documents = Vec::with_capacity(ids.len());
        for id in ids {
            match self.documents.get(id) {
                Some(doc) => documents.push(doc.clone()),
                None => return Response::Error(ProtocolError::UnknownDocument(*id)),
            }
        }
        Response::Documents(DocumentReply { documents })
    }

    /// [`Service::call`] at `now`: the seam through which the tests drive
    /// the failure deadline without sleeping.
    fn call_at(&mut self, request: Request, now: Instant) -> Response {
        let telemetry = self.telemetry.clone();
        let _call_span = telemetry.span(Stage::ServiceCall);
        self.telemetry.tally(Counter::RequestsServed, 1);
        self.sweep(now);
        match request {
            Request::Query(message) => {
                let mut replies = self.forward_group(std::slice::from_ref(&message));
                replies.pop().expect("one reply per member")
            }
            Request::BatchQuery(message) => {
                let tops = vec![message.top; message.queries.len()];
                match self.exec_batch_query(message, &tops) {
                    Ok(replies) => Response::BatchSearch(BatchSearchReply { replies }),
                    Err(error) => error,
                }
            }
            Request::Documents(req) => self.exec_documents(&req.document_ids),
            Request::Upload(upload) => self.exec_upload(upload),
            Request::SnapshotIndex => Response::Snapshot(serialize_index_store(&self.mirror)),
            Request::RestoreIndex(bytes) => self.exec_restore(&bytes),
            Request::ServerInfo => self.exec_server_info(),
            Request::Counters => Response::Counters(OperationCounters {
                requests_served: self.telemetry.counter(Counter::RequestsServed)
                    - self.served_baseline,
                ..OperationCounters::default()
            }),
            Request::ResetCounters => {
                self.served_baseline = self.telemetry.counter(Counter::RequestsServed);
                Response::Ack
            }
            Request::MetricsSnapshot => Response::MetricsReport(self.telemetry.snapshot()),
            Request::RegisterNode(reg) => self.exec_register(reg, now),
            Request::NodeHeartbeat(beat) => self.exec_heartbeat(beat.node_id, now),
            Request::EnableCache { .. } | Request::DisableCache | Request::CacheStats => {
                Response::Error(ProtocolError::Unsupported(format!(
                    "{} is a per-node knob; the fleet coordinator serves the cache-off oracle",
                    request.name()
                )))
            }
            Request::Trapdoor(_) | Request::BlindDecrypt(_) => {
                Response::Error(ProtocolError::Unsupported(format!(
                    "{} is served by the data owner, not the fleet coordinator",
                    request.name()
                )))
            }
        }
    }
}

impl Service for Coordinator {
    fn call(&mut self, request: Request) -> Response {
        self.call_at(request, Instant::now())
    }

    /// A coalesced group becomes **one** `BatchQuery` scatter
    /// (`forward_group`), so the nodes run their fused plane pass over it and
    /// each member's reply is the one its own `Query` would have merged.
    /// Requests are counted once per member, deadlines swept once per group.
    fn call_query_group(&mut self, messages: &[QueryMessage]) -> Vec<Response> {
        let telemetry = self.telemetry.clone();
        let _call_span = telemetry.span(Stage::ServiceCall);
        self.telemetry
            .tally(Counter::RequestsServed, messages.len() as u64);
        self.sweep(Instant::now());
        // A member of the wrong length is answered its own error, the rest
        // travel as the fused forward — what `call` per member would do.
        let index_bits = self.mirror.params().index_bits;
        answer_query_group(index_bits, messages, |sound| self.forward_group(sound))
    }

    /// The fleet registry: the coordinator's hub records its framed wire
    /// traffic, codec durations and batcher waits beside the fleet gauges.
    fn telemetry(&self) -> Option<&Telemetry> {
        Some(&self.telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultyLink};
    use crate::hub::{Hub, HubConfig, HubHandle};
    use mkse_core::{DocumentIndexer, QueryBuilder, SchemeKeys};
    use mkse_protocol::{wire, CloudServer, NodeHeartbeat};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const GLOBAL_SHARDS: usize = 4;

    struct Fixture {
        params: SystemParams,
        indices: Vec<RankedDocumentIndex>,
        queries: Vec<QueryMessage>,
    }

    fn fixture() -> Fixture {
        let params = SystemParams::default();
        let mut rng = StdRng::seed_from_u64(10_812);
        let keys = SchemeKeys::generate(&params, &mut rng);
        let indexer = DocumentIndexer::new(&params, &keys);
        let keyword_sets: [&[&str]; 10] = [
            &["cloud", "privacy", "search"],
            &["weather", "forecast"],
            &["cloud", "storage", "pricing"],
            &["encrypted", "archive", "cloud"],
            &["audit", "encryption"],
            &["privacy", "cloud", "data"],
            &["searchable", "encryption"],
            &["cloud", "audit", "logging"],
            &["key", "management", "audit"],
            &["cloud", "migration"],
        ];
        let indices = keyword_sets
            .iter()
            .enumerate()
            .map(|(i, kws)| indexer.index_keywords(i as u64, kws))
            .collect();
        let pool = keys.random_pool_trapdoors(&params);
        let query_sets: [&[&str]; 3] = [&["cloud"], &["audit"], &["cloud", "audit"]];
        let queries = query_sets
            .iter()
            .map(|kws| {
                let trapdoors = keys.trapdoors_for(&params, kws);
                let q = QueryBuilder::new(&params)
                    .add_trapdoors(&trapdoors)
                    .with_randomization(&pool)
                    .build(&mut rng);
                QueryMessage {
                    query: q.bits().clone(),
                    top: None,
                }
            })
            .collect();
        Fixture {
            params,
            indices,
            queries,
        }
    }

    /// A node hub that journals what it executes, so tests can see which
    /// frames the coordinator forwarded.
    fn spawn_node(params: &SystemParams) -> HubHandle {
        Hub::spawn(
            CloudServer::with_shards(params.clone(), 2),
            HubConfig {
                journal: true,
                ..HubConfig::default()
            },
        )
    }

    /// The requests among `names` a node executed, by envelope name, in order.
    fn executed(node: HubHandle, names: &[&str]) -> Vec<&'static str> {
        node.shutdown()
            .journal
            .iter()
            .map(|entry| entry.request.name())
            .filter(|name| names.contains(name))
            .collect()
    }

    /// The read requests a node executed (only ever `BatchQuery`s: the
    /// coordinator forwards a lone query as a one-member batch).
    fn forwarded_reads(node: HubHandle) -> Vec<&'static str> {
        executed(node, &["Query", "BatchQuery"])
    }

    fn quick_fleet(failure_deadline: Duration) -> FleetConfig {
        FleetConfig {
            num_global_shards: GLOBAL_SHARDS,
            failure_deadline,
            node_policy: RetryPolicy {
                max_attempts: 3,
                base_backoff: Duration::from_micros(200),
                backoff_cap: Duration::from_millis(2),
                attempt_timeout: Duration::from_secs(5),
                request_deadline: Duration::from_secs(10),
                jitter_seed: 7,
            },
        }
    }

    fn register(coordinator: &mut Coordinator, node_id: u64, shard_slots: u32) -> ShardAssignment {
        register_at(coordinator, node_id, shard_slots, Instant::now())
    }

    fn register_at(
        coordinator: &mut Coordinator,
        node_id: u64,
        shard_slots: u32,
        now: Instant,
    ) -> ShardAssignment {
        let registration = Request::RegisterNode(NodeRegistration {
            node_id,
            capabilities: NodeCapabilities { shard_slots },
        });
        let reply = coordinator.call_at(registration, now);
        reply.into_shard_assignment().expect("registration granted")
    }

    fn beat_at(coordinator: &mut Coordinator, node_id: u64, now: Instant) -> Response {
        coordinator.call_at(Request::NodeHeartbeat(NodeHeartbeat { node_id }), now)
    }

    /// Drive the same request against fleet and twin; both replies (and their
    /// encoded frames) must be identical.
    fn assert_twin(
        coordinator: &mut Coordinator,
        twin: &mut CloudServer,
        request: Request,
        label: &str,
    ) -> Response {
        assert_twin_at(coordinator, twin, request, label, Instant::now())
    }

    /// [`assert_twin`], with the fleet serving the request at `now`.
    fn assert_twin_at(
        coordinator: &mut Coordinator,
        twin: &mut CloudServer,
        request: Request,
        label: &str,
        now: Instant,
    ) -> Response {
        let fleet = coordinator.call_at(request.clone(), now);
        let single = twin.call(request);
        assert_eq!(fleet, single, "{label}: fleet diverged from twin");
        assert_eq!(
            wire::encode_response(1, &fleet),
            wire::encode_response(1, &single),
            "{label}: frame bytes diverged"
        );
        fleet
    }

    /// Drive a coalesced group through the fleet and its members one
    /// `Service::call` at a time through the twin; replies and frames must be
    /// identical, member by member.
    fn assert_group_twin(
        coordinator: &mut Coordinator,
        twin: &mut CloudServer,
        group: &[QueryMessage],
        label: &str,
    ) {
        let fleet = coordinator.call_query_group(group);
        let single: Vec<Response> = group
            .iter()
            .map(|m| twin.call(Request::Query(m.clone())))
            .collect();
        assert_eq!(fleet, single, "{label}: fused group diverged from twin");
        for (i, (f, t)) in fleet.iter().zip(&single).enumerate() {
            assert_eq!(
                wire::encode_response(1, f),
                wire::encode_response(1, t),
                "{label}: frame bytes of member {i} diverged"
            );
        }
    }

    #[test]
    fn fused_group_is_one_batch_forward_and_twin_identical() {
        let fx = fixture();
        let node1 = spawn_node(&fx.params);
        let node2 = spawn_node(&fx.params);
        let mut coordinator =
            Coordinator::new(fx.params.clone(), quick_fleet(Duration::from_secs(60)));
        coordinator.add_node(1, node1.memory_dialer().connector());
        coordinator.add_node(2, node2.memory_dialer().connector());
        let mut twin = CloudServer::with_shards(fx.params.clone(), GLOBAL_SHARDS);
        let with_top = |i: usize, top| QueryMessage {
            top,
            ..fx.queries[i].clone()
        };

        // An empty mirror answers the whole group locally, like the twin.
        let bounded = [with_top(0, Some(2)), with_top(1, Some(5))];
        assert_group_twin(&mut coordinator, &mut twin, &bounded, "empty mirror");

        register(&mut coordinator, 1, 2);
        register(&mut coordinator, 2, 0);
        let upload = Request::Upload(UploadMessage {
            indices: fx.indices.clone(),
            documents: vec![],
        });
        assert_twin(&mut coordinator, &mut twin, upload, "seed upload");

        // Mixed limits with a duplicated query: one member is unbounded, so
        // the forward is; each member is cut to its own limit at the merge.
        let mixed = [
            with_top(0, None),
            with_top(2, Some(2)),
            with_top(0, Some(5)),
            with_top(2, Some(2)),
        ];
        let served = |c: &Coordinator| c.telemetry.snapshot().counter("requests_served");
        let before = served(&coordinator);
        assert_group_twin(&mut coordinator, &mut twin, &mixed, "mixed tops");
        assert_eq!(served(&coordinator) - before, 4, "counted once per member");
        // All bounded: the forward carries the widest limit, 5.
        assert_group_twin(&mut coordinator, &mut twin, &bounded, "bounded tops");
        // A group of one, and a lone query, are one-member batches.
        assert_group_twin(&mut coordinator, &mut twin, &bounded[..1], "group of one");
        assert_twin(
            &mut coordinator,
            &mut twin,
            Request::Query(bounded[1].clone()),
            "lone query",
        );

        for node in [node1, node2] {
            assert_eq!(
                forwarded_reads(node),
                ["BatchQuery"; 4],
                "one fused forward per group, a lone query included"
            );
        }
    }

    #[test]
    fn fused_group_on_an_uncovered_shard_answers_each_member_the_typed_error() {
        let fx = fixture();
        let node1 = spawn_node(&fx.params);
        let mut coordinator =
            Coordinator::new(fx.params.clone(), quick_fleet(Duration::from_secs(60)));
        coordinator.add_node(1, node1.memory_dialer().connector());
        // One node with room for two of the four shards: 2 and 3 stay unowned.
        register(&mut coordinator, 1, 2);
        coordinator.call(Request::Upload(UploadMessage {
            indices: fx.indices.clone(),
            documents: vec![],
        }));
        let sequential: Vec<Response> = fx.queries[..2]
            .iter()
            .map(|q| coordinator.call(Request::Query(q.clone())))
            .collect();
        assert!(
            matches!(
                sequential[0],
                Response::Error(ProtocolError::Unsupported(_))
            ),
            "an uncovered shard is a typed error, got {:?}",
            sequential[0]
        );
        assert_eq!(coordinator.call_query_group(&fx.queries[..2]), sequential);
        assert!(forwarded_reads(node1).is_empty(), "nothing was scattered");
    }

    /// A node whose link dies under the scatter's own submit: the failure
    /// rides inside its flight while the round's other flights are submitted
    /// and completed, then the node is failed over and the round repeats —
    /// twin-identical, and every node client (the dead one's included) still
    /// obeys the conservation law.
    #[test]
    fn node_killed_at_submit_drains_the_round_then_fails_over() {
        let fx = fixture();
        let hubs: Vec<HubHandle> = (0..3).map(|_| spawn_node(&fx.params)).collect();
        let mut coordinator =
            Coordinator::new(fx.params.clone(), quick_fleet(Duration::from_secs(60)));
        let upload = UploadMessage {
            indices: fx.indices.clone(),
            documents: vec![],
        };
        // Node 2 serves shard 2 alone: its link carries that shard's slice of
        // the seed upload, one whole query forward (a one-member batch), and
        // half of the next.
        let forward = Request::Upload(UploadMessage {
            indices: (fx.indices.iter().skip(2).step_by(GLOBAL_SHARDS).cloned()).collect(),
            documents: vec![],
        });
        let lone = Request::BatchQuery(BatchQueryMessage {
            queries: vec![fx.queries[0].query.clone()],
            top: fx.queries[0].top,
        });
        let query_len = wire::encode_request(1, &lone).len();
        let budget = (wire::encode_request(1, &forward).len() + query_len + query_len / 2) as u64;
        for (hub, node_id) in hubs.iter().zip(1u64..) {
            let dialer = hub.memory_dialer();
            coordinator.add_node(
                node_id,
                Box::new(move |ordinal| {
                    let (reader, writer) = dialer.connect().split();
                    let kill_after_bytes = match (node_id, ordinal) {
                        (2, 0) => Some(budget),
                        (2, _) => Some(0),
                        _ => None,
                    };
                    let plan = FaultPlan {
                        kill_after_bytes,
                        ..FaultPlan::healthy(node_id)
                    };
                    let (r, w, _h) = FaultyLink::wrap(Box::new(reader), Box::new(writer), plan);
                    Ok((Box::new(r) as _, Box::new(w) as _))
                }),
            );
        }
        let mut twin = CloudServer::with_shards(fx.params.clone(), GLOBAL_SHARDS);
        // Ascending grants up to capacity, the remainder to the newcomer.
        let grants =
            [(1, 2), (2, 1), (3, 0)].map(|(id, slots)| register(&mut coordinator, id, slots));
        let shards = grants.each_ref().map(|grant| grant.shards.clone());
        assert_eq!(shards, [vec![0, 1], vec![2], vec![3]]);
        let epochs = grants.map(|grant| grant.epoch);
        assert!(
            epochs.is_sorted_by(|a, b| a < b),
            "every layout change bumps the epoch"
        );
        assert_twin(&mut coordinator, &mut twin, Request::Upload(upload), "seed");

        for (i, q) in fx.queries.iter().enumerate() {
            assert_twin(
                &mut coordinator,
                &mut twin,
                Request::Query(q.clone()),
                &format!("query {i}"),
            );
        }
        assert_eq!(coordinator.live_nodes(), vec![1, 3]);
        assert_eq!(coordinator.telemetry.snapshot().counter("failovers"), 1);
        assert_twin(&mut coordinator, &mut twin, Request::ServerInfo, "corpus");

        for (id, node) in &coordinator.nodes {
            let stats = node.client.stats();
            assert_eq!(
                stats.attempts,
                stats.successes + stats.sheds + stats.link_faults,
                "node {id}: a flight was left undrained: {stats:?}"
            );
        }
        let dead = coordinator.nodes[&2].client.stats();
        assert_eq!(dead.link_faults, 3, "the torn submit plus two dead redials");
        // Node 3 answered the killed round *and* its repeat.
        let survivor = coordinator.nodes[&3].client.stats();
        assert_eq!(survivor.successes, survivor.attempts);
        assert_eq!(
            forwarded_reads(hubs.into_iter().nth(2).unwrap()).len(),
            fx.queries.len() + 1
        );
    }

    /// Time is driven through `call_at`: nothing sleeps.
    #[test]
    fn missed_deadline_rehomes_shards_and_preserves_replies() {
        let fx = fixture();
        let node1 = spawn_node(&fx.params);
        let node2 = spawn_node(&fx.params);
        let deadline = Duration::from_millis(800);
        let mut coordinator = Coordinator::new(fx.params.clone(), quick_fleet(deadline));
        coordinator.add_node(1, node1.memory_dialer().connector());
        coordinator.add_node(2, node2.memory_dialer().connector());
        let mut twin = CloudServer::with_shards(fx.params.clone(), GLOBAL_SHARDS);
        let start = Instant::now();
        let at = |ms| start + Duration::from_millis(ms);

        // Upload before any node registers: the corpus lives in the mirror
        // and ships at registration time.
        let upload = Request::Upload(UploadMessage {
            indices: fx.indices.clone(),
            documents: vec![],
        });
        assert_twin_at(
            &mut coordinator,
            &mut twin,
            upload,
            "pre-node upload",
            at(0),
        );
        let a1 = register_at(&mut coordinator, 1, 0, at(0));
        assert_eq!(a1.shards, vec![0, 1, 2, 3], "first node takes everything");
        let a2 = register_at(&mut coordinator, 2, 0, at(0));
        assert!(a2.shards.is_empty(), "nothing left for the second node");
        for (i, q) in fx.queries.iter().enumerate() {
            assert_twin_at(
                &mut coordinator,
                &mut twin,
                Request::Query(q.clone()),
                &format!("pre-failover query {i}"),
                at(0),
            );
        }

        // Node 2 keeps beating; node 1 goes silent past the deadline and the
        // next request sweeps it out — its shards re-home onto node 2 from
        // the mirror.
        assert!(
            matches!(
                beat_at(&mut coordinator, 2, at(600)),
                Response::ShardAssignment(_)
            ),
            "live node's beat is answered"
        );
        for (i, q) in fx.queries.iter().enumerate() {
            assert_twin_at(
                &mut coordinator,
                &mut twin,
                Request::Query(q.clone()),
                &format!("post-failover query {i}"),
                at(1_000),
            );
        }
        assert_eq!(coordinator.live_nodes(), vec![2]);
        assert_twin_at(
            &mut coordinator,
            &mut twin,
            Request::ServerInfo,
            "corpus pinned after failover",
            at(1_000),
        );

        let snapshot = coordinator.telemetry_handle().snapshot();
        assert_eq!(snapshot.counter("heartbeats_missed"), 1);
        assert_eq!(snapshot.counter("failovers"), 1);
        assert_eq!(snapshot.counter("shards_reassigned"), GLOBAL_SHARDS as u64);
        assert_eq!(snapshot.gauge("nodes_live"), 1);
        assert_eq!(snapshot.gauge("nodes_registered"), 2);

        // The dead node's beat is refused until it re-registers; after
        // re-registration it is live again (with no shards to serve).
        let refused = beat_at(&mut coordinator, 1, at(1_000));
        assert!(
            matches!(refused, Response::Error(ProtocolError::Unsupported(_))),
            "dead node must re-register, got {refused:?}"
        );
        let rejoined = register_at(&mut coordinator, 1, 0, at(1_000));
        assert!(rejoined.shards.is_empty());
        assert_eq!(coordinator.live_nodes(), vec![1, 2]);

        node1.shutdown();
        node2.shutdown();
    }

    /// The refresh contract at its boundary: a node silent for exactly
    /// `failure_deadline` is alive, one nanosecond more is dead — in the
    /// predicate and through the sweep at the top of a call.
    #[test]
    fn the_failure_deadline_enumerated() {
        let deadline = Duration::from_millis(800);
        let beat = Instant::now();
        let ns = Duration::from_nanos;
        for (silence, dead) in [
            (Duration::ZERO, false),
            (deadline - ns(1), false),
            (deadline, false),
            (deadline + ns(1), true),
        ] {
            assert_eq!(expired(beat, beat + silence, deadline), dead, "{silence:?}");
            let mut coordinator = Coordinator::new(SystemParams::default(), quick_fleet(deadline));
            // An empty mirror ships nothing, so the node is never dialed.
            coordinator.add_node(1, Box::new(|_| Err(std::io::Error::other("never dialed"))));
            register_at(&mut coordinator, 1, 0, beat);
            coordinator.call_at(Request::Counters, beat + silence);
            assert_eq!(coordinator.live_nodes().is_empty(), dead, "{silence:?}");
        }
    }

    /// One ship step: whether a node joins a populated fleet or inherits a
    /// dead node's shards, every non-empty shard reaches it as exactly one
    /// `RestoreIndex` — never an `Upload`, which is what a *forward* is — and
    /// an empty shard ships nothing.
    #[test]
    fn a_shard_ships_as_exactly_one_restore_index() {
        let fx = fixture();
        let node1 = spawn_node(&fx.params);
        let node2 = spawn_node(&fx.params);
        let mut coordinator =
            Coordinator::new(fx.params.clone(), quick_fleet(Duration::from_secs(60)));
        coordinator.add_node(1, node1.memory_dialer().connector());
        coordinator.add_node(2, node2.memory_dialer().connector());
        let mut twin = CloudServer::with_shards(fx.params.clone(), GLOBAL_SHARDS);
        let upload = |indices: &[RankedDocumentIndex]| {
            Request::Upload(UploadMessage {
                indices: indices.to_vec(),
                documents: vec![],
            })
        };

        // Cold join: three documents arrive before any node, so shards 0–2
        // hold one each and shard 3 is empty when node 1 takes all four.
        assert_twin(
            &mut coordinator,
            &mut twin,
            upload(&fx.indices[..3]),
            "cold",
        );
        assert_eq!(register(&mut coordinator, 1, 0).shards, vec![0, 1, 2, 3]);
        assert!(register(&mut coordinator, 2, 0).shards.is_empty());
        // The rest arrives while node 1 owns everything: one forward.
        assert_twin(
            &mut coordinator,
            &mut twin,
            upload(&fx.indices[3..]),
            "warm",
        );
        assert_twin(&mut coordinator, &mut twin, Request::ServerInfo, "joined");

        // Reading node 1's journal shuts its hub down — the machine is lost.
        // The next query finds out and re-homes all four shards, shipped and
        // forwarded documents alike, onto node 2.
        assert_eq!(
            executed(node1, &["RestoreIndex", "Upload"]),
            ["RestoreIndex", "RestoreIndex", "RestoreIndex", "Upload"],
            "cold join: one restore per non-empty shard, then the forward"
        );
        for (i, q) in fx.queries.iter().enumerate() {
            assert_twin(
                &mut coordinator,
                &mut twin,
                Request::Query(q.clone()),
                &format!("post-failover query {i}"),
            );
        }
        assert_eq!(coordinator.live_nodes(), vec![2]);
        // The nodes' summed document counts still equal the mirror's.
        assert_twin(&mut coordinator, &mut twin, Request::ServerInfo, "re-homed");
        assert_eq!(
            executed(node2, &["RestoreIndex", "Upload"]),
            ["RestoreIndex"; GLOBAL_SHARDS],
            "failover: one restore per shard, nothing else"
        );
    }

    /// A node whose data link is dead on arrival fails during registration:
    /// the corpus ships at registration time, straight into the dead link, so
    /// the registration is refused and the node failed over with nothing to
    /// re-home. A healthy node then takes every shard, twin-identical.
    #[test]
    fn a_node_killed_during_registration_is_refused_and_the_fleet_serves_on() {
        let fx = fixture();
        let node2 = spawn_node(&fx.params);
        let mut coordinator =
            Coordinator::new(fx.params.clone(), quick_fleet(Duration::from_secs(60)));
        coordinator.add_node(
            1,
            Box::new(|_| {
                let (reader, writer) = crate::link::memory_duplex().0.split();
                let plan = FaultPlan {
                    kill_after_bytes: Some(0),
                    ..FaultPlan::healthy(1)
                };
                let (r, w, _h) = FaultyLink::wrap(Box::new(reader), Box::new(writer), plan);
                Ok((Box::new(r) as _, Box::new(w) as _))
            }),
        );
        coordinator.add_node(2, node2.memory_dialer().connector());
        let mut twin = CloudServer::with_shards(fx.params.clone(), GLOBAL_SHARDS);
        let upload = Request::Upload(UploadMessage {
            indices: fx.indices.clone(),
            documents: vec![],
        });
        assert_twin(&mut coordinator, &mut twin, upload, "pre-node upload");

        let registration = Request::RegisterNode(NodeRegistration {
            node_id: 1,
            capabilities: NodeCapabilities::default(),
        });
        let refused = coordinator.call(registration);
        assert!(
            matches!(refused, Response::Error(ProtocolError::Unsupported(_))),
            "registration over a dead data link must fail visibly, got {refused:?}"
        );
        let snapshot = coordinator.telemetry_handle().snapshot();
        assert_eq!(snapshot.counter("failovers"), 1);
        assert_eq!(snapshot.counter("shards_reassigned"), 0);

        assert_eq!(register(&mut coordinator, 2, 0).shards, vec![0, 1, 2, 3]);
        assert_eq!(coordinator.live_nodes(), vec![2]);
        for (i, q) in fx.queries.iter().enumerate() {
            let query = Request::Query(q.clone());
            assert_twin(&mut coordinator, &mut twin, query, &format!("query {i}"));
        }
        assert_twin(&mut coordinator, &mut twin, Request::ServerInfo, "corpus");
        node2.shutdown();
    }

    #[test]
    fn foreign_and_unknown_operations_are_refused() {
        let fx = fixture();
        let mut coordinator =
            Coordinator::new(fx.params.clone(), quick_fleet(Duration::from_secs(60)));

        let unknown = coordinator.call(Request::RegisterNode(NodeRegistration {
            node_id: 99,
            capabilities: NodeCapabilities::default(),
        }));
        assert!(
            matches!(unknown, Response::Error(ProtocolError::Unsupported(_))),
            "no connector, no registration: {unknown:?}"
        );
        let unregistered = beat_at(&mut coordinator, 99, Instant::now());
        assert!(matches!(
            unregistered,
            Response::Error(ProtocolError::Unsupported(_))
        ));
        // An empty fleet still answers an empty corpus truthfully.
        let reply = coordinator.call(Request::Query(fx.queries[0].clone()));
        let reply = reply.into_search().expect("empty fleet, empty corpus");
        assert!(reply.matches.is_empty());
    }

    /// The beat interval is derived from the deadline, not configured: a
    /// default fleet (2 s deadline) asks for a beat every 500 ms.
    #[test]
    fn a_default_fleet_asks_for_a_beat_every_500_ms() {
        let fx = fixture();
        let mut coordinator = Coordinator::new(fx.params.clone(), FleetConfig::default());
        // An empty mirror ships nothing, so the node is never dialed.
        coordinator.add_node(1, Box::new(|_| Err(std::io::Error::other("never dialed"))));
        let assignment = register(&mut coordinator, 1, 0);
        assert_eq!(assignment.failure_deadline_ms, 2_000);
        assert_eq!(assignment.heartbeat_interval_ms, 500);
    }
}
