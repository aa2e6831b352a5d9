//! The per-layer side of the benchmark, measured from outside the program:
//! harness spans around client calls, the eight-rung ladder, and timed calls
//! into public codec, framing, batch and insert functions.

use crate::deploy::{Caller, Deployment};
use crate::inputs::Inputs;
use crate::json::{object, Value};
use crate::oracle::{self, digest};
use crate::spec::{self, ClientKind};
use crate::stats::percentile;
use mkse_core::telemetry::TelemetryLevel;
use mkse_core::{QueryIndex, SearchEngine};
use mkse_net::FrameBuffer;
use mkse_protocol::{
    wire, BatchQueryMessage, CacheReport, Client, CloudServer, QueryMessage, Request, Response,
    SearchReply, SearchResultEntry, Service, UploadMessage,
};
use std::hint::black_box;
use std::io::Write as _;
use std::time::Instant;

/// One harness span. `"query"` is a request's root; every other name is a
/// child of the root with the same request id.
pub struct Span {
    pub name: &'static str,
    pub request_id: u64,
    pub start: Instant,
    pub end: Instant,
}

/// In-memory span buffer of one client thread; written out at exit.
pub struct SpanLog {
    enabled: bool,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(enabled: bool) -> SpanLog {
        SpanLog {
            enabled,
            spans: Vec::new(),
        }
    }

    #[inline]
    pub fn record(&mut self, name: &'static str, request_id: u64, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.push(Span {
                name,
                request_id,
                start,
                end,
            });
        }
    }
}

/// Total nanoseconds and count of the spans called `name`.
pub fn span_total(logs: &[&SpanLog], name: &str) -> (u64, u64) {
    let mut total = 0;
    let mut count = 0;
    for span in logs.iter().flat_map(|log| &log.spans) {
        if span.name == name {
            total += (span.end - span.start).as_nanos() as u64;
            count += 1;
        }
    }
    (total, count)
}

/// Write every span as one JSON line: name, start and end (ns since `epoch`),
/// request id, client, parent.
pub fn write_spans(
    path: &std::path::Path,
    logs: &[&SpanLog],
    epoch: Instant,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (client, log) in logs.iter().enumerate() {
        for span in &log.spans {
            let parent = if span.name == "query" {
                Value::Null
            } else {
                Value::Str("query".to_string())
            };
            let line = object([
                ("name", Value::Str(span.name.to_string())),
                (
                    "start_ns",
                    Value::Num((span.start - epoch).as_nanos() as f64),
                ),
                ("end_ns", Value::Num((span.end - epoch).as_nanos() as f64)),
                ("request_id", Value::Num(span.request_id as f64)),
                ("client", Value::Num(client as f64)),
                ("parent", parent),
            ]);
            writeln!(out, "{}", line.render())?;
        }
    }
    out.flush()
}

/// What the ladder and the timed calls measured.
pub struct Ladder {
    /// p50 per rung, nanoseconds, in [`spec::RUNGS`] order.
    pub p50_ns: [u64; 8],
    pub insert_us_per_doc: f64,
    pub batch16_us_per_query: f64,
    /// A real reply (to the first stream query) for the codec timings.
    pub sample_reply: Response,
    pub attempted: u64,
    pub failed: u64,
}

/// The oracle's view of the ladder: what every pool query must answer, and
/// how many rung replies did not.
struct Judge<'a> {
    inputs: &'a Inputs,
    expected: &'a [u64],
    failed: u64,
}

impl Judge<'_> {
    /// Run `stream` through `answer` one query at a time and return the p50
    /// in nanoseconds; the first 5% are warm-up. `idle` runs before each
    /// clock starts (fleet rungs beat there); after each clock stops `dress`
    /// turns the answer into the envelope reply the oracle judges.
    fn rung<T>(
        &mut self,
        stream: &[u32],
        mut idle: impl FnMut(),
        mut answer: impl FnMut(&QueryMessage) -> T,
        mut dress: impl FnMut(T) -> Option<Response>,
    ) -> u64 {
        let warmup = (stream.len() as f64 * spec::WARMUP_SHARE) as usize;
        let mut samples = Vec::with_capacity(stream.len());
        for (n, &i) in stream.iter().enumerate() {
            let message = &self.inputs.pool[i as usize];
            idle();
            let started = Instant::now();
            let answered = black_box(answer(message));
            let elapsed = started.elapsed().as_nanos() as u64;
            if n >= warmup {
                samples.push(elapsed);
            }
            let got = dress(answered).as_ref().map_or(oracle::FAILED, digest);
            if got != self.expected[i as usize] {
                self.failed += 1;
            }
        }
        samples.sort_unstable();
        percentile(&samples, 50.0)
    }
}

/// The same query stream, one closed-loop caller, through eight rungs:
/// `SearchEngine` → `Service::call` → framed `Client` → hub over a memory
/// link → hub over TCP → `ResilientClient` → 1-node fleet → 3-node fleet.
/// Fleet rungs run the first `fleet_queries` of the stream.
pub fn ladder(inputs: &Inputs, expected: &[u64], stream: &[u32], fleet_queries: usize) -> Ladder {
    let indices = inputs.indexed_corpus();
    let fleet_stream = &stream[..fleet_queries.min(stream.len())];
    let mut judge = Judge {
        inputs,
        expected,
        failed: 0,
    };
    let mut p50_ns = [0u64; 8];

    {
        let mut engine = SearchEngine::sharded(inputs.params.clone(), spec::SERVER_SHARDS);
        engine
            .insert_all(indices.iter().cloned())
            .expect("engine insert");
        p50_ns[0] = judge.rung(
            stream,
            || {},
            |m| {
                let query = QueryIndex::from_bits(m.query.clone());
                engine.search_top(&query, m.top.unwrap_or(usize::MAX))
            },
            // The bare matches dressed as the reply the service would build,
            // so the one oracle judges this rung too.
            |matches| {
                let matches = matches
                    .into_iter()
                    .map(|found| SearchResultEntry {
                        document_id: found.document_id,
                        rank: found.rank,
                        metadata: engine
                            .document_index(found.document_id)
                            .map(|index| index.levels.clone())
                            .unwrap_or_default(),
                    })
                    .collect();
                Some(Response::Search(SearchReply {
                    matches,
                    cache: CacheReport::default(),
                }))
            },
        );
    }

    let mut server = CloudServer::with_shards(inputs.params.clone(), spec::SERVER_SHARDS);
    let upload = Request::Upload(UploadMessage {
        indices: indices.clone(),
        documents: vec![],
    });
    let started = Instant::now();
    let ack = server.call(upload);
    let insert_us_per_doc = started.elapsed().as_secs_f64() * 1e6 / indices.len() as f64;
    assert!(
        matches!(ack, Response::Uploaded { .. }),
        "service rung seed"
    );
    p50_ns[1] = judge.rung(
        stream,
        || {},
        |m| server.call(Request::Query(m.clone())),
        Some,
    );

    // 16-query batches through the same front door.
    let mut batch_attempted = 0u64;
    let batches = (stream.len() / 16).max(1);
    let started = Instant::now();
    let mut batch_replies = Vec::with_capacity(batches);
    for chunk in stream.chunks(16).take(batches) {
        let request = Request::BatchQuery(BatchQueryMessage {
            queries: chunk
                .iter()
                .map(|&i| inputs.pool[i as usize].query.clone())
                .collect(),
            top: Some(spec::TOP_K),
        });
        batch_replies.push(server.call(request));
        batch_attempted += chunk.len() as u64;
    }
    let batch16_us_per_query = started.elapsed().as_secs_f64() * 1e6 / batch_attempted as f64;
    for (chunk, reply) in stream.chunks(16).zip(batch_replies) {
        let replies = match reply {
            Response::BatchSearch(batch) if batch.replies.len() == chunk.len() => batch.replies,
            _ => {
                judge.failed += chunk.len() as u64;
                continue;
            }
        };
        for (&i, reply) in chunk.iter().zip(replies) {
            if digest(&Response::Search(reply)) != expected[i as usize] {
                judge.failed += 1;
            }
        }
    }

    let sample_reply = server.call(Request::Query(inputs.pool[stream[0] as usize].clone()));

    let mut codec = Client::new(server);
    p50_ns[2] = judge.rung(
        stream,
        || {},
        |m| codec.call(&Request::Query(m.clone())),
        Result::ok,
    );
    drop(codec);

    // The hub and fleet rungs: a seeded deployment each, one client.
    type Connect = fn(&Deployment) -> Caller;
    let hub_rungs: [(usize, &[u32], Connect); 5] = [
        (0, stream, |d| d.connect_memory()),
        (0, stream, |d| d.connect(ClientKind::Net, 0)),
        (0, stream, |d| d.connect(ClientKind::Resilient, 0)),
        (1, fleet_stream, |d| d.connect(ClientKind::Resilient, 0)),
        (3, fleet_stream, |d| d.connect(ClientKind::Resilient, 0)),
    ];
    for (slot, (fleet_nodes, stream, connect)) in (3..).zip(hub_rungs) {
        let mut deployment = Deployment::spawn(inputs, fleet_nodes, TelemetryLevel::Off);
        let mut caller = connect(&deployment);
        let mut stored = 0;
        for chunk in indices.chunks(spec::SEED_CHUNK) {
            deployment.seed(&mut caller, chunk.to_vec(), &mut stored);
        }
        p50_ns[slot] = judge.rung(
            stream,
            || deployment.beater.beat_if_due(),
            |m| caller.call(&Request::Query(m.clone())),
            Result::ok,
        );
        drop(caller);
        deployment.shutdown();
    }

    Ladder {
        p50_ns,
        insert_us_per_doc,
        batch16_us_per_query,
        sample_reply,
        attempted: 6 * stream.len() as u64 + 2 * fleet_stream.len() as u64 + batch_attempted,
        failed: judge.failed,
    }
}

/// Mean nanoseconds of the public codec and framing calls on a real query
/// frame and a real reply frame: `encode_request`, `decode_request`,
/// `encode_response`, `decode_response`, `FrameBuffer` reassembly.
pub fn timed_wire_calls(request: &Request, response: &Response) -> [f64; 5] {
    const CALLS: u32 = 20_000;
    let request_frame = wire::encode_request(1, request);
    let response_frame = wire::encode_response(1, response);
    let mean = |f: &mut dyn FnMut()| {
        let started = Instant::now();
        for _ in 0..CALLS {
            f();
        }
        started.elapsed().as_nanos() as f64 / f64::from(CALLS)
    };
    let mut frames = FrameBuffer::new(u64::from(u32::MAX));
    [
        mean(&mut || {
            black_box(wire::encode_request(black_box(1), black_box(request)));
        }),
        mean(&mut || {
            black_box(wire::decode_request(black_box(&request_frame[4..])).expect("own frame"));
        }),
        mean(&mut || {
            black_box(wire::encode_response(black_box(1), black_box(response)));
        }),
        mean(&mut || {
            black_box(wire::decode_response(black_box(&response_frame[4..])).expect("own frame"));
        }),
        mean(&mut || {
            frames
                .extend(black_box(&response_frame))
                .expect("own frame");
            black_box(frames.pop().expect("own frame").expect("complete frame"));
        }),
    ]
}
