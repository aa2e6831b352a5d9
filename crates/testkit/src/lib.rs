//! # mkse-testkit — what every byte-equivalence oracle stands on, written once
//!
//! The house invariant — every server answers exactly what the sequential
//! Eq. 3 / Algorithm 1 scan answers — is held by suites that all need the same
//! things: a seeded corpus and its queries, a sequential `CloudServer` twin,
//! links that die on a seeded schedule, the byte lengths kill budgets are cut
//! from, a fleet over in-process nodes, and the journal replay that turns a
//! concurrent run into a sequential one. Each is declared here once and used
//! wherever it holds, by the suites under `tests/` and the session demos under
//! `examples/`.
//!
//! - [`scheme`] — the one corpus the suites share: a `DataOwner`'s twelve
//!   documents, seven queries and three extra uploads.
//! - [`fixture`] — a seeded `DataOwner` corpus: texts, query keyword sets and
//!   extra uploads in, a [`Fixture`] out; [`Fixture::bare`] is one of bare
//!   indices; [`Fixture::server`] is its twin.
//! - [`chaos_connector`] — a connector over an in-process dialer behind a
//!   seeded `FaultyLink`: the oracle matrix's `chaos[…]` rows run the script
//!   over it, and a [`Fleet`] dooms its data links with it.
//! - [`frame_len`], [`forwarded_query_len`], [`forward_len`], [`ship_len`] —
//!   the frames a fleet puts on its node links, to the byte.
//! - [`Fleet`] — a coordinator behind a hub over `NodeRunner`s, data links
//!   optionally doomed on a byte budget; [`Fleet::in_process`] keeps the
//!   coordinator in process for the oracle matrix's `fleet[…]` rows, which
//!   hold it to the script's model op by op — healthy, and with node kills
//!   mid-query and mid-failover.
//! - [`replay_journal`], [`assert_replies_match_replay`],
//!   [`assert_conservation`], [`counter`], [`gauge`] — the oracles' judges.
//! - [`Script`] — the oracle matrix's seeded ops on a served index over a
//!   [`Fixture`]; [`Script::resolve`] turns them into [`Step`]s, each op's
//!   requests and what the reference answers: `CloudIndex` for matches, and
//!   a model of the serving state each op changes — `OperationCounters`,
//!   `CacheStats`, each reply's `CacheReport` and `ServerInfo` — at a row's
//!   shard count. [`fleet_view`] states once what a fleet answers
//!   differently; [`assert_replies`] holds a row's replies to the steps',
//!   frame for frame, and [`at`] names the seed, row and op of a failure.

#![forbid(unsafe_code)]

mod script;

pub use script::{assert_replies, at, fleet_view, Cut, Op, Ranked, Script, Step};

use mkse_core::{BitIndex, QueryBuilder, RankedDocumentIndex, SystemParams, Telemetry};
use mkse_net::{
    Connector, Coordinator, FaultHandle, FaultPlan, FaultyLink, FleetConfig, Hub, HubConfig,
    HubHandle, JournalEntry, MemoryDialer, NodeConfig, NodeRunner, ResilienceStats, RetryPolicy,
};
use mkse_protocol::{
    wire, BatchQueryMessage, CloudServer, DataOwner, NodeCapabilities, NodeRegistration,
    OwnerConfig, QueryMessage, Request, Response, Service, UploadMessage,
};
use mkse_textproc::Document;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Round-robin global shards of every [`Fleet`]: upload position `i` lands on
/// shard `i % GLOBAL_SHARDS`.
pub const GLOBAL_SHARDS: usize = 4;

// --- the corpus and its twin --------------------------------------------------

/// A seeded corpus: the public parameters, the queries a suite sends, the
/// seed upload and the extra single-document uploads it holds back.
pub struct Fixture {
    pub params: SystemParams,
    pub queries: Vec<QueryMessage>,
    pub seed_upload: UploadMessage,
    pub extra_uploads: Vec<UploadMessage>,
}

const TEXTS: [&str; 12] = [
    "cloud privacy search encryption audit",
    "weather forecast rain and wind",
    "cloud storage pricing enterprise",
    "encrypted archive migration cloud",
    "audit of encryption key management",
    "cafeteria menu and office plants",
    "privacy impact assessment cloud data",
    "phishing incident report credentials",
    "searchable encryption design notes",
    "cloud audit logging pipeline",
    "intrusion detection firewall logs",
    "cloud storage audit for privacy",
];

const KEYWORDS: [&[&str]; 7] = [
    &["cloud"],
    &["audit"],
    &["cloud", "audit"],
    &["privacy"],
    &["encryption"],
    &["cloud", "storage"],
    &["weather"],
];

/// Two new documents (ids 1000 and 1001), then one re-sending a stored id.
const EXTRAS: [(u64, &str); 3] = [(1000, "late audit"), (1001, "cloud privacy"), (0, "again")];

/// The corpus the suites share: a `DataOwner`'s documents (fewer than the
/// oracle matrix's widest shard count), ciphertexts and randomized queries
/// at the paper's geometry, built once per test binary.
pub fn scheme() -> &'static Fixture {
    static SCHEME: OnceLock<Fixture> = OnceLock::new();
    SCHEME.get_or_init(|| fixture(4242, &TEXTS, &KEYWORDS, &EXTRAS))
}

/// A `DataOwner` seeded with `seed` prepares `texts` (document `i` is
/// `texts[i]`) as the seed upload, then each `(id, text)` of `extras` as an
/// upload of its own, then one randomized query per keyword set. The order
/// of those draws is part of every suite's pinned bytes.
pub fn fixture(
    seed: u64,
    texts: &[&str],
    keyword_sets: &[&[&str]],
    extras: &[(u64, &str)],
) -> Fixture {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut owner = DataOwner::new(OwnerConfig::fast_for_tests(), &mut rng);
    let mut prepare = |docs: &[Document], rng: &mut StdRng| {
        let (indices, documents) = owner.prepare_documents(docs, rng);
        UploadMessage { indices, documents }
    };
    let docs: Vec<Document> = (texts.iter().enumerate())
        .map(|(i, text)| Document::from_text(i as u64, text))
        .collect();
    let seed_upload = prepare(&docs, &mut rng);
    let extra_uploads = (extras.iter())
        .map(|&(id, text)| prepare(&[Document::from_text(id, text)], &mut rng))
        .collect();
    let pool = owner.random_pool_trapdoors();
    let queries = (keyword_sets.iter())
        .map(|keywords| {
            let trapdoors = owner.scheme_keys().trapdoors_for(owner.params(), keywords);
            let query = QueryBuilder::new(owner.params())
                .add_trapdoors(&trapdoors)
                .with_randomization(&pool)
                .build(&mut rng);
            QueryMessage {
                query: query.bits().clone(),
                top: None,
            }
        })
        .collect();
    Fixture {
        params: owner.params().clone(),
        queries,
        seed_upload,
        extra_uploads,
    }
}

impl Fixture {
    /// A corpus of bare indices, without ciphertexts, sent `queries` uncut.
    /// It holds back copies of the first two indices under fresh ids, then
    /// the first one again.
    pub fn bare(
        params: SystemParams,
        queries: Vec<BitIndex>,
        indices: Vec<RankedDocumentIndex>,
    ) -> Fixture {
        let upload = |indices| UploadMessage {
            indices,
            documents: vec![],
        };
        let mut extra_uploads = Vec::new();
        for (k, index) in indices[..2].iter().enumerate() {
            let copy = RankedDocumentIndex {
                document_id: (1 << 41) + k as u64,
                ..index.clone()
            };
            extra_uploads.push(upload(vec![copy]));
        }
        extra_uploads.push(upload(vec![indices[0].clone()]));
        let queries = (queries.into_iter())
            .map(|query| QueryMessage { query, top: None })
            .collect();
        Fixture {
            params,
            queries,
            seed_upload: upload(indices),
            extra_uploads,
        }
    }

    /// The sequential twin: `shards` shards holding the seed upload, with a
    /// 64-entry-per-shard result cache when `cache` is set — initialized
    /// exactly as the server a hub under test owns.
    pub fn server(&self, shards: usize, cache: bool) -> CloudServer {
        let mut server = CloudServer::with_shards(self.params.clone(), shards);
        server
            .call(Request::Upload(self.seed_upload.clone()))
            .into_uploaded()
            .expect("seed upload");
        if cache {
            let enable = Request::EnableCache {
                capacity_per_shard: 64,
            };
            server.call(enable).into_ack().expect("cache on");
        }
        server
    }
}

// --- connectors ---------------------------------------------------------------

/// A connector that resolves its dialer on first use, so node runners can be
/// spawned before the coordinator hub they dial exists.
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

/// A connector that wraps every fresh connection `dialer` makes in a
/// [`FaultyLink`] playing `plan_for(ordinal)`, counting injected faults into
/// `registry` (if any) and collecting the fault handles into `handles`.
pub fn chaos_connector(
    dialer: MemoryDialer,
    mut plan_for: impl FnMut(u64) -> FaultPlan + Send + 'static,
    registry: Option<Telemetry>,
    handles: Arc<Mutex<Vec<FaultHandle>>>,
) -> Connector {
    Box::new(move |ordinal| {
        let (reader, writer) = dialer.connect().split();
        let (r, w, h) = FaultyLink::wrap_with_telemetry(
            Box::new(reader),
            Box::new(writer),
            plan_for(ordinal),
            registry.clone(),
        );
        handles.lock().unwrap().push(h);
        Ok((Box::new(r) as _, Box::new(w) as _))
    })
}

/// The "machine lost" plan for [`chaos_connector`]: link 0 dies after
/// `budget` written bytes and every later link is dead on arrival, so once
/// the budget fires the node is gone for good. `None` is a healthy link. No
/// rate is set, so the plan's seed is never drawn from.
fn doomed_plan(budget: Option<u64>) -> impl FnMut(u64) -> FaultPlan + Send {
    move |ordinal| FaultPlan {
        kill_after_bytes: budget.map(|budget| if ordinal == 0 { budget } else { 0 }),
        ..FaultPlan::healthy(0)
    }
}

// --- frame lengths: kill budgets computable to the byte -----------------------

/// The framed bytes of `request` (length prefix included).
pub fn frame_len(request: &Request) -> u64 {
    wire::encode_request(1, request).len() as u64
}

/// The frame a client's lone query puts on a node's link: the coordinator
/// forwards it as a one-member `BatchQuery`.
pub fn forwarded_query_len(query: &QueryMessage) -> u64 {
    frame_len(&Request::BatchQuery(BatchQueryMessage {
        queries: vec![query.query.clone()],
        top: query.top,
    }))
}

/// The indices that land on the given global shards: round-robin placement
/// assigns upload position `i` to shard `i % GLOBAL_SHARDS`, so the
/// coordinator's per-node forward (and its failover ship of one shard)
/// carries exactly these.
fn shard_slice(indices: &[RankedDocumentIndex], shards: &[usize]) -> Vec<RankedDocumentIndex> {
    (indices.iter().enumerate())
        .filter(|(i, _)| shards.contains(&(i % GLOBAL_SHARDS)))
        .map(|(_, index)| index.clone())
        .collect()
}

/// The upload forward a node serving `shards` receives for `indices`.
pub fn forward_len(indices: &[RankedDocumentIndex], shards: &[usize]) -> u64 {
    frame_len(&Request::Upload(UploadMessage {
        indices: shard_slice(indices, shards),
        documents: vec![],
    }))
}

/// The one frame a ship of `shard` puts on the wire: the shard's documents,
/// in slot order, as a `RestoreIndex` of their snapshot bytes.
pub fn ship_len(params: &SystemParams, indices: &[RankedDocumentIndex], shard: usize) -> u64 {
    let snapshot = mkse_core::serialize_store(params, &shard_slice(indices, &[shard]));
    frame_len(&Request::RestoreIndex(snapshot))
}

// --- the fleet ----------------------------------------------------------------

/// One node of a [`Fleet`]: `(node_id, shard_slots, kill_budget)`, where a
/// budget dooms the coordinator's data link to the node — it dies after that
/// many written bytes, and every reconnect is dead on arrival — and `None`
/// leaves it clean.
pub type NodeSpec = (u64, u32, Option<u64>);

/// The fleet policy every suite runs: [`GLOBAL_SHARDS`] shards, deaths only
/// from dead links (the deadline is never reached), and a node policy whose
/// seeded jitter keeps a kill schedule reproducible.
fn fleet_config() -> FleetConfig {
    FleetConfig {
        num_global_shards: GLOBAL_SHARDS,
        failure_deadline: Duration::from_secs(120),
        node_policy: RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_micros(200),
            backoff_cap: Duration::from_millis(2),
            attempt_timeout: Duration::from_secs(5),
            request_deadline: Duration::from_secs(30),
            jitter_seed: 0xF1EE7,
        },
    }
}

/// A running fleet: a coordinator behind a hub, one `NodeRunner` per
/// [`NodeSpec`] (not yet registered: suites register them, in the order and
/// at the moment their scenario needs) and the coordinator's registry. Every
/// fleet runs one policy: [`GLOBAL_SHARDS`] shards, deaths only from dead
/// links.
pub struct Fleet {
    pub hub: HubHandle,
    pub runners: Vec<NodeRunner>,
    pub telemetry: Telemetry,
}

impl Fleet {
    /// Spawn the fleet behind a hub of the default configuration.
    pub fn spawn(params: &SystemParams, nodes: &[NodeSpec]) -> Fleet {
        let slot = Arc::new(Mutex::new(None));
        let (coordinator, runners, _) = assemble(params, nodes, &slot);
        let telemetry = coordinator.telemetry_handle();
        let hub = Hub::spawn(coordinator, HubConfig::default());
        *slot.lock().unwrap() = Some(hub.memory_dialer());
        Fleet {
            hub,
            runners,
            telemetry,
        }
    }

    /// The same fleet with its coordinator kept in process, every node
    /// registered in spec order by a direct call, then `corpus` uploaded —
    /// for suites that call the coordinator itself. The runners are returned
    /// to be shut down, and the node links' fault handles in dial order.
    pub fn in_process(
        params: &SystemParams,
        nodes: &[NodeSpec],
        corpus: &UploadMessage,
    ) -> (Coordinator, Vec<NodeRunner>, Arc<Mutex<Vec<FaultHandle>>>) {
        let (mut coordinator, runners, handles) =
            assemble(params, nodes, &Arc::new(Mutex::new(None)));
        for &(node_id, shard_slots, _) in nodes {
            let registration = NodeRegistration {
                node_id,
                capabilities: NodeCapabilities { shard_slots },
            };
            assert!(matches!(
                coordinator.call(Request::RegisterNode(registration)),
                Response::ShardAssignment(_)
            ));
        }
        assert!(matches!(
            coordinator.call(Request::Upload(corpus.clone())),
            Response::Uploaded { .. }
        ));
        (coordinator, runners, handles)
    }
}

/// Node runners whose control links dial whatever hub `slot` holds, and a
/// coordinator that knows how to dial each of them.
fn assemble(
    params: &SystemParams,
    nodes: &[NodeSpec],
    slot: &Arc<Mutex<Option<MemoryDialer>>>,
) -> (Coordinator, Vec<NodeRunner>, Arc<Mutex<Vec<FaultHandle>>>) {
    let handles = Arc::new(Mutex::new(Vec::new()));
    let mut coordinator = Coordinator::new(params.clone(), fleet_config());
    let runners = (nodes.iter())
        .map(|&(node_id, shard_slots, budget)| {
            let config = NodeConfig {
                node_id,
                capabilities: NodeCapabilities { shard_slots },
            };
            let runner = NodeRunner::spawn(params.clone(), config, late_connector(slot.clone()));
            let link = chaos_connector(runner.dialer(), doomed_plan(budget), None, handles.clone());
            coordinator.add_node(node_id, link);
            runner
        })
        .collect();
    (coordinator, runners, handles)
}

// --- the judges ---------------------------------------------------------------

/// Replay a hub's execution journal on a sequential twin, one
/// `Service::call` at a time, and return the expected reply per request id.
/// Fleet-control traffic (registration, heartbeats, metrics) is coordinator
/// plumbing with no twin counterpart and no effect on index state: the twin
/// still serves it, so its `requests_served` keeps counting what the hub
/// served, but no reply to it is expected. A `CloudServer` hub journals such
/// a request only when a flipped bit made one.
pub fn replay_journal(
    twin: &mut impl Service,
    journal: &[JournalEntry],
) -> BTreeMap<u64, Response> {
    let mut expected = BTreeMap::new();
    for entry in journal {
        let reply = twin.call(entry.request.clone());
        if !matches!(
            entry.request,
            Request::RegisterNode(_) | Request::NodeHeartbeat(_) | Request::MetricsSnapshot
        ) {
            expected.insert(entry.request_id, reply);
        }
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

/// The resilient client's conservation law: every attempt is accounted to
/// exactly one outcome, `attempts == successes + sheds + link_faults`.
pub fn assert_conservation(stats: &ResilienceStats, who: &str) {
    assert_eq!(
        stats.attempts,
        stats.successes + stats.sheds + stats.link_faults,
        "{who}: conservation law violated: {stats:?}"
    );
}

/// A counter of the registry, by name.
pub fn counter(telemetry: &Telemetry, name: &str) -> u64 {
    telemetry.snapshot().counter(name)
}

/// A gauge of the registry, by name.
pub fn gauge(telemetry: &Telemetry, name: &str) -> u64 {
    telemetry.snapshot().gauge(name)
}
