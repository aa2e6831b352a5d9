//! Communication-cost accounting (Table 1) — analytic **and** measured.
//!
//! Every message an actor sends is recorded in a [`CostLedger`] as `(sender, receiver, phase,
//! bits)`. The ledger can then be summarized exactly the way Table 1 presents the costs: bits
//! *sent by* each party, per protocol phase (trapdoor / search / decrypt).
//!
//! Since the envelope redesign the ledger additionally tracks **measured framed
//! wire traffic**: every exchange that travels through [`crate::Client`] crosses
//! the [`crate::wire`] codec, and the observed frame counts and framed byte sizes
//! are recorded as [`WireTransmission`]s next to the analytic records. The
//! analytic bits reproduce the paper's Table 1 formulas; the wire bits are what
//! the same exchange actually costs on a real transport (length prefix, version
//! byte, request id, byte-aligned bodies included).

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The three protocol roles.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Party {
    /// A querying user.
    User,
    /// The data owner (or its active delegate).
    DataOwner,
    /// The cloud server.
    Server,
}

impl std::fmt::Display for Party {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Party::User => write!(f, "user"),
            Party::DataOwner => write!(f, "data owner"),
            Party::Server => write!(f, "server"),
        }
    }
}

/// The three phases Table 1 breaks the communication down into.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Learning the trapdoor (user ↔ data owner).
    Trapdoor,
    /// Sending the query and receiving results/documents (user ↔ server).
    Search,
    /// Learning the decryption key through blinding (user ↔ data owner).
    Decrypt,
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Phase::Trapdoor => write!(f, "trapdoor"),
            Phase::Search => write!(f, "search"),
            Phase::Decrypt => write!(f, "decrypt"),
        }
    }
}

/// One recorded transmission.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Transmission {
    /// Sending party (the one Table 1 charges the bits to).
    pub from: Party,
    /// Receiving party.
    pub to: Party,
    /// Protocol phase.
    pub phase: Phase,
    /// Message size in bits.
    pub bits: u64,
}

/// One measured framed exchange: frames and framed bytes that actually crossed
/// the [`crate::wire`] codec, attributed like a [`Transmission`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireTransmission {
    /// Sending party (the one the framed bytes are charged to).
    pub from: Party,
    /// Receiving party.
    pub to: Party,
    /// Protocol phase.
    pub phase: Phase,
    /// Frames shipped in this exchange direction.
    pub frames: u64,
    /// Framed bytes shipped (length prefix + header + body).
    pub bytes: u64,
}

#[derive(Default, Debug)]
struct LedgerInner {
    transmissions: Vec<Transmission>,
    wire: Vec<WireTransmission>,
}

/// A shared, thread-safe ledger of every transmission in a protocol run.
///
/// Cloning the ledger clones the handle, not the data, so every actor can hold one.
#[derive(Clone, Default, Debug)]
pub struct CostLedger {
    inner: Arc<Mutex<LedgerInner>>,
}

impl CostLedger {
    /// Create an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one transmission (analytic Table 1 bits).
    pub fn record(&self, from: Party, to: Party, phase: Phase, bits: u64) {
        self.inner.lock().transmissions.push(Transmission {
            from,
            to,
            phase,
            bits,
        });
    }

    /// Record one measured framed exchange (frames + framed bytes observed at
    /// the [`crate::wire`] codec).
    pub fn record_wire(&self, from: Party, to: Party, phase: Phase, frames: u64, bytes: u64) {
        if frames == 0 && bytes == 0 {
            return;
        }
        self.inner.lock().wire.push(WireTransmission {
            from,
            to,
            phase,
            frames,
            bytes,
        });
    }

    /// All transmissions recorded so far.
    pub fn transmissions(&self) -> Vec<Transmission> {
        self.inner.lock().transmissions.clone()
    }

    /// All measured framed exchanges recorded so far.
    #[cfg(test)]
    fn wire_transmissions(&self) -> Vec<WireTransmission> {
        self.inner.lock().wire.clone()
    }

    /// Fold another ledger's records (both analytic and measured) into this one.
    /// Merging a ledger into itself (same handle or a clone of it) is a no-op —
    /// clones share data, so there is nothing to fold and locking twice would
    /// deadlock.
    pub fn merge_from(&self, other: &CostLedger) {
        if Arc::ptr_eq(&self.inner, &other.inner) {
            return;
        }
        let other = other.inner.lock();
        let mut inner = self.inner.lock();
        inner.transmissions.extend_from_slice(&other.transmissions);
        inner.wire.extend_from_slice(&other.wire);
    }

    /// Total bits *sent* by `party` in `phase` — one cell of Table 1.
    pub fn bits_sent(&self, party: Party, phase: Phase) -> u64 {
        self.inner
            .lock()
            .transmissions
            .iter()
            .filter(|t| t.from == party && t.phase == phase)
            .map(|t| t.bits)
            .sum()
    }

    /// Total bits sent by `party` across all phases.
    #[cfg(test)]
    fn total_bits_sent(&self, party: Party) -> u64 {
        self.inner
            .lock()
            .transmissions
            .iter()
            .filter(|t| t.from == party)
            .map(|t| t.bits)
            .sum()
    }

    /// Total traffic in the run.
    pub fn total_bits(&self) -> u64 {
        self.inner.lock().transmissions.iter().map(|t| t.bits).sum()
    }

    /// Measured framed bits *sent* by `party` in `phase` (8 × framed bytes) —
    /// the measured counterpart of [`CostLedger::bits_sent`].
    pub fn wire_bits_sent(&self, party: Party, phase: Phase) -> u64 {
        8 * self
            .inner
            .lock()
            .wire
            .iter()
            .filter(|t| t.from == party && t.phase == phase)
            .map(|t| t.bytes)
            .sum::<u64>()
    }

    /// Measured frames sent by `party` in `phase`.
    pub fn wire_frames_sent(&self, party: Party, phase: Phase) -> u64 {
        self.inner
            .lock()
            .wire
            .iter()
            .filter(|t| t.from == party && t.phase == phase)
            .map(|t| t.frames)
            .sum()
    }

    /// Total measured framed bits in the run.
    #[cfg(test)]
    fn total_wire_bits(&self) -> u64 {
        8 * self.inner.lock().wire.iter().map(|t| t.bytes).sum::<u64>()
    }

    /// A `(party, phase) → bits` table — the full Table 1 grid.
    pub fn table(&self) -> BTreeMap<(Party, Phase), u64> {
        let mut out = BTreeMap::new();
        for t in self.inner.lock().transmissions.iter() {
            *out.entry((t.from, t.phase)).or_insert(0) += t.bits;
        }
        out
    }

    /// Render the grid as alignment-friendly text rows (used by the experiment binaries).
    /// When measured framed traffic was recorded, a second grid with the wire
    /// measurements follows the analytic one.
    pub fn render_table(&self) -> String {
        let table = self.table();
        let mut out =
            String::from("party        | trapdoor (bits) | search (bits) | decrypt (bits)\n");
        for party in [Party::User, Party::DataOwner, Party::Server] {
            let cell = |phase| table.get(&(party, phase)).copied().unwrap_or(0);
            out.push_str(&format!(
                "{:<12} | {:>15} | {:>13} | {:>14}\n",
                party.to_string(),
                cell(Phase::Trapdoor),
                cell(Phase::Search),
                cell(Phase::Decrypt)
            ));
        }
        if !self.inner.lock().wire.is_empty() {
            out.push_str(
                "measured framed wire (sent):\n\
                 party        | trapdoor (bits) | search (bits) | decrypt (bits) | frames\n",
            );
            for party in [Party::User, Party::DataOwner, Party::Server] {
                let frames: u64 = [Phase::Trapdoor, Phase::Search, Phase::Decrypt]
                    .iter()
                    .map(|&p| self.wire_frames_sent(party, p))
                    .sum();
                out.push_str(&format!(
                    "{:<12} | {:>15} | {:>13} | {:>14} | {:>6}\n",
                    party.to_string(),
                    self.wire_bits_sent(party, Phase::Trapdoor),
                    self.wire_bits_sent(party, Phase::Search),
                    self.wire_bits_sent(party, Phase::Decrypt),
                    frames
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_sums_by_party_and_phase() {
        let ledger = CostLedger::new();
        ledger.record(Party::User, Party::DataOwner, Phase::Trapdoor, 96);
        ledger.record(Party::DataOwner, Party::User, Phase::Trapdoor, 1024);
        ledger.record(Party::User, Party::Server, Phase::Search, 448);
        ledger.record(Party::Server, Party::User, Phase::Search, 10_000);
        ledger.record(Party::User, Party::DataOwner, Phase::Decrypt, 1024);
        ledger.record(Party::DataOwner, Party::User, Phase::Decrypt, 1024);

        assert_eq!(ledger.bits_sent(Party::User, Phase::Trapdoor), 96);
        assert_eq!(ledger.bits_sent(Party::User, Phase::Search), 448);
        assert_eq!(ledger.bits_sent(Party::Server, Phase::Search), 10_000);
        assert_eq!(ledger.bits_sent(Party::Server, Phase::Trapdoor), 0);
        assert_eq!(ledger.total_bits_sent(Party::User), 96 + 448 + 1024);
        assert_eq!(ledger.total_bits(), 96 + 1024 + 448 + 10_000 + 1024 + 1024);
        assert_eq!(ledger.transmissions().len(), 6);
    }

    #[test]
    fn table_and_render() {
        let ledger = CostLedger::new();
        ledger.record(Party::User, Party::Server, Phase::Search, 448);
        let table = ledger.table();
        assert_eq!(table.get(&(Party::User, Phase::Search)), Some(&448));
        let rendered = ledger.render_table();
        assert!(rendered.contains("user"));
        assert!(rendered.contains("448"));
        assert!(rendered.contains("server"));
    }

    #[test]
    fn wire_records_are_tracked_separately_from_analytic_bits() {
        let ledger = CostLedger::new();
        ledger.record(Party::User, Party::Server, Phase::Search, 448);
        ledger.record_wire(Party::User, Party::Server, Phase::Search, 2, 130);
        ledger.record_wire(Party::Server, Party::User, Phase::Search, 2, 4000);
        // Zero-size wire records are dropped, not stored.
        ledger.record_wire(Party::User, Party::Server, Phase::Decrypt, 0, 0);

        assert_eq!(ledger.bits_sent(Party::User, Phase::Search), 448);
        assert_eq!(ledger.wire_bits_sent(Party::User, Phase::Search), 8 * 130);
        assert_eq!(ledger.wire_frames_sent(Party::User, Phase::Search), 2);
        assert_eq!(
            ledger.wire_bits_sent(Party::Server, Phase::Search),
            8 * 4000
        );
        assert_eq!(ledger.total_wire_bits(), 8 * (130 + 4000));
        assert_eq!(ledger.wire_transmissions().len(), 2);
        // The render gains the measured grid only when wire records exist.
        assert!(ledger.render_table().contains("measured framed wire"));

        let merged = CostLedger::new();
        merged.merge_from(&ledger);
        assert_eq!(merged.total_wire_bits(), ledger.total_wire_bits());
        assert_eq!(merged.total_bits(), ledger.total_bits());

        // Merging a ledger into itself (directly or via a shared clone) must be
        // a no-op, not a deadlock or a duplication.
        let clone = merged.clone();
        merged.merge_from(&clone);
        merged.merge_from(&merged);
        assert_eq!(merged.total_bits(), ledger.total_bits());
        assert_eq!(merged.wire_transmissions().len(), 2);
    }

    #[test]
    fn ledger_handles_are_shared() {
        let a = CostLedger::new();
        let b = a.clone();
        a.record(Party::User, Party::Server, Phase::Search, 10);
        assert_eq!(b.total_bits(), 10);
    }

    #[test]
    fn display_impls() {
        assert_eq!(Party::User.to_string(), "user");
        assert_eq!(Party::DataOwner.to_string(), "data owner");
        assert_eq!(Party::Server.to_string(), "server");
        assert_eq!(Phase::Trapdoor.to_string(), "trapdoor");
        assert_eq!(Phase::Search.to_string(), "search");
        assert_eq!(Phase::Decrypt.to_string(), "decrypt");
    }
}
