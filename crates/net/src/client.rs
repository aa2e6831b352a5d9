//! The link form of the one pipelined client: [`NetClient`] is
//! `mkse_protocol::Client` over a [`Link`] — the two halves of a TCP stream or
//! of an in-process [`crate::MemoryLink`]. Request ids, the outbox, the inbox
//! correlated by id, [`mkse_protocol::WireStats`] and the reply reassembly
//! ([`crate::FrameBuffer`] → `decode_response`) are the in-process client's,
//! byte for byte; only the bytes move differently: a flush sends, and
//! `wait_take` receives until the wanted id arrives or the deadline passes.
//!
//! The raw link client answers with bare [`mkse_protocol::Response`]s and
//! takes a timeout per wait; the typed calls ([`mkse_protocol::TypedCalls`])
//! come with the retrying client, [`crate::ResilientClient`], which holds one
//! of these per connection.

pub use mkse_protocol::{ClientError, Link};

/// A pipelined client over a split link: submit many requests, flush once,
/// correlate replies by request id out of order.
pub type NetClient = mkse_protocol::Client<Link>;
