//! Communication-cost accounting (Table 1) — analytic **and** measured.
//!
//! A [`CostLedger`] is Table 1's grid for one protocol run: per sending party
//! and protocol phase (trapdoor / search / decrypt), the bits the paper's
//! formulas charge for what that party sent. Every exchange that travels
//! through [`crate::Client`] also crosses the [`crate::wire`] codec, so each
//! cell carries the measured framed traffic of the same messages beside the
//! analytic bits: frames and framed bytes (length prefix, version byte, request
//! id and byte-aligned bodies included).

use serde::{Deserialize, Serialize};

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

/// What one party sent in one phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Cell {
    /// Analytic Table 1 bits.
    bits: u64,
    /// Measured frames.
    frames: u64,
    /// Measured framed bytes.
    wire_bytes: u64,
}

/// The Table 1 grid of one protocol run: analytic bits and measured framed
/// traffic, per sending party and phase (the party Table 1 charges them to).
/// A value: a round records into its own ledger, and a session folds each
/// round's into its running total with [`CostLedger::merge_from`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CostLedger {
    /// Indexed by [`Party`], then [`Phase`].
    cells: [[Cell; 3]; 3],
}

const PARTIES: [Party; 3] = [Party::User, Party::DataOwner, Party::Server];
const PHASES: [Phase; 3] = [Phase::Trapdoor, Phase::Search, Phase::Decrypt];

impl CostLedger {
    /// Create an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    fn cell(&self, party: Party, phase: Phase) -> &Cell {
        &self.cells[party as usize][phase as usize]
    }

    fn cell_mut(&mut self, party: Party, phase: Phase) -> &mut Cell {
        &mut self.cells[party as usize][phase as usize]
    }

    /// Record one message `from` sent in `phase` (analytic Table 1 bits).
    pub fn record(&mut self, from: Party, phase: Phase, bits: u64) {
        self.cell_mut(from, phase).bits += bits;
    }

    /// Record the framed traffic `from` sent in `phase`: frames and framed
    /// bytes observed at the [`crate::wire`] codec.
    pub fn record_wire(&mut self, from: Party, phase: Phase, frames: u64, bytes: u64) {
        let cell = self.cell_mut(from, phase);
        cell.frames += frames;
        cell.wire_bytes += bytes;
    }

    /// Add another ledger's counts, analytic and measured, to this one.
    pub fn merge_from(&mut self, other: &CostLedger) {
        for (mine, theirs) in self
            .cells
            .iter_mut()
            .flatten()
            .zip(other.cells.iter().flatten())
        {
            mine.bits += theirs.bits;
            mine.frames += theirs.frames;
            mine.wire_bytes += theirs.wire_bytes;
        }
    }

    /// Total bits *sent* by `party` in `phase` — one cell of Table 1.
    pub fn bits_sent(&self, party: Party, phase: Phase) -> u64 {
        self.cell(party, phase).bits
    }

    /// Total traffic in the run.
    pub fn total_bits(&self) -> u64 {
        self.cells.iter().flatten().map(|cell| cell.bits).sum()
    }

    /// Measured framed bits *sent* by `party` in `phase` (8 × framed bytes) —
    /// the measured counterpart of [`CostLedger::bits_sent`].
    pub fn wire_bits_sent(&self, party: Party, phase: Phase) -> u64 {
        8 * self.cell(party, phase).wire_bytes
    }

    /// Measured frames sent by `party` in `phase`.
    pub fn wire_frames_sent(&self, party: Party, phase: Phase) -> u64 {
        self.cell(party, phase).frames
    }

    /// Render the grid as alignment-friendly text rows (used by the experiment binaries).
    /// When measured framed traffic was recorded, a second grid with the wire
    /// measurements follows the analytic one.
    pub fn render_table(&self) -> String {
        let mut out =
            String::from("party        | trapdoor (bits) | search (bits) | decrypt (bits)\n");
        for party in PARTIES {
            let [trapdoor, search, decrypt] = PHASES.map(|phase| self.bits_sent(party, phase));
            out.push_str(&format!(
                "{:<12} | {trapdoor:>15} | {search:>13} | {decrypt:>14}\n",
                party.to_string(),
            ));
        }
        let measured = |cell: &Cell| cell.frames > 0 || cell.wire_bytes > 0;
        if self.cells.iter().flatten().any(measured) {
            out.push_str(
                "measured framed wire (sent):\n\
                 party        | trapdoor (bits) | search (bits) | decrypt (bits) | frames\n",
            );
            for party in PARTIES {
                let [trapdoor, search, decrypt] =
                    PHASES.map(|phase| self.wire_bits_sent(party, phase));
                let frames: u64 = PHASES
                    .map(|phase| self.wire_frames_sent(party, phase))
                    .iter()
                    .sum();
                out.push_str(&format!(
                    "{:<12} | {trapdoor:>15} | {search:>13} | {decrypt:>14} | {frames:>6}\n",
                    party.to_string(),
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
        let mut ledger = CostLedger::new();
        ledger.record(Party::User, Phase::Trapdoor, 96);
        ledger.record(Party::DataOwner, Phase::Trapdoor, 1024);
        ledger.record(Party::User, Phase::Search, 448);
        ledger.record(Party::Server, Phase::Search, 10_000);
        ledger.record(Party::User, Phase::Decrypt, 1024);
        ledger.record(Party::DataOwner, Phase::Decrypt, 1024);
        ledger.record(Party::User, Phase::Search, 448);

        assert_eq!(ledger.bits_sent(Party::User, Phase::Trapdoor), 96);
        assert_eq!(ledger.bits_sent(Party::User, Phase::Search), 2 * 448);
        assert_eq!(ledger.bits_sent(Party::Server, Phase::Search), 10_000);
        assert_eq!(ledger.bits_sent(Party::Server, Phase::Trapdoor), 0);
        assert_eq!(
            ledger.total_bits(),
            96 + 1024 + 2 * 448 + 10_000 + 1024 + 1024
        );
    }

    #[test]
    fn table_and_render() {
        let mut ledger = CostLedger::new();
        ledger.record(Party::User, Phase::Search, 448);
        let rendered = ledger.render_table();
        assert!(rendered.contains("user"));
        assert!(rendered.contains("448"));
        assert!(rendered.contains("server"));
        assert!(!rendered.contains("measured framed wire"));
    }

    #[test]
    fn wire_records_are_tracked_separately_from_analytic_bits() {
        let mut ledger = CostLedger::new();
        ledger.record(Party::User, Phase::Search, 448);
        ledger.record_wire(Party::User, Phase::Search, 2, 130);
        ledger.record_wire(Party::Server, Phase::Search, 2, 4000);
        ledger.record_wire(Party::User, Phase::Decrypt, 0, 0);

        assert_eq!(ledger.bits_sent(Party::User, Phase::Search), 448);
        assert_eq!(ledger.wire_bits_sent(Party::User, Phase::Search), 8 * 130);
        assert_eq!(ledger.wire_frames_sent(Party::User, Phase::Search), 2);
        assert_eq!(
            ledger.wire_bits_sent(Party::Server, Phase::Search),
            8 * 4000
        );
        assert_eq!(ledger.wire_bits_sent(Party::User, Phase::Decrypt), 0);
        // The render gains the measured grid only when wire records exist.
        assert!(ledger.render_table().contains("measured framed wire"));

        // Merging adds every cell, analytic and measured.
        let mut merged = CostLedger::new();
        merged.merge_from(&ledger);
        assert_eq!(merged, ledger);
        merged.merge_from(&ledger);
        assert_eq!(merged.total_bits(), 2 * ledger.total_bits());
        assert_eq!(
            merged.wire_bits_sent(Party::Server, Phase::Search),
            2 * 8 * 4000
        );
        assert_eq!(merged.wire_frames_sent(Party::User, Phase::Search), 4);
    }

    #[test]
    fn ledger_clones_are_independent_values() {
        let mut a = CostLedger::new();
        let b = a.clone();
        a.record(Party::User, Phase::Search, 10);
        assert_eq!((a.total_bits(), b.total_bits()), (10, 0));
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
