//! Deterministic link-fault injection: [`FaultyLink`] wraps any
//! [`LinkReader`]/[`LinkWriter`] pair (TCP or `MemoryLink`) and executes a
//! seeded [`FaultPlan`] — kill-after-N-bytes, torn writes, injected delays,
//! corrupted bytes — so chaos runs are replayable from their seed.
//!
//! ## Determinism
//!
//! Each half owns its own xoshiro stream (derived from [`FaultPlan::seed`]
//! via SplitMix64, like `StdRng::seed_from_u64`), and draws from it **once
//! per byte-moving operation** — never per poll tick, so `WouldBlock`
//! timeouts (whose count is timing-dependent) cannot shift the schedule.
//! Driving a half through the same operation sequence therefore reproduces
//! the same fault schedule, which [`FaultHandle::log`] records and the
//! oracle matrix's `chaos[replay]` row asserts.
//!
//! ## What faults where
//!
//! Corruption and torn writes apply only to the **write** path. The threat
//! model is an honest-but-curious server over a faulty network: a corrupted
//! *request* surfaces as a decode fault (or, rarely, a different valid
//! request) on the server — either way the journal records what actually
//! executed, so the equivalence oracle still holds. Corrupting the *read*
//! path instead could silently rewrite a reply into different valid bytes
//! and break the byte-identical oracle without modeling anything a real
//! deployment (checksummed, authenticated transport) would permit. The read
//! path gets delays and the shared link kill only.

use crate::link::{LinkReader, LinkWriter};
use mkse_core::telemetry::{Counter, Telemetry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A seeded, deterministic fault schedule for one wrapped link. Rates are
/// per-mille (0 = never, 1000 = every operation); all default to zero, so
/// `FaultPlan::healthy(seed)` wraps a link without perturbing it.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    /// Seed of the plan's xoshiro streams; the same seed over the same
    /// operation sequence reproduces the same schedule.
    pub seed: u64,
    /// Kill the whole link once this many bytes were written through it:
    /// the killing write delivers a truncated prefix, then both halves fail
    /// (`BrokenPipe` on writes, EOF on reads) forever.
    pub kill_after_bytes: Option<u64>,
    /// Per-mille chance a write is torn: a random strict prefix is
    /// delivered, then the link dies as above.
    pub torn_write_per_mille: u32,
    /// Per-mille chance a write has one random bit flipped before delivery
    /// (the full frame still arrives — corruption, not truncation).
    pub corrupt_write_per_mille: u32,
    /// Per-mille chance an operation is delayed before executing.
    pub delay_per_mille: u32,
    /// Upper bound on one injected delay, in microseconds.
    pub max_delay_micros: u64,
}

impl FaultPlan {
    /// A plan that injects nothing — wrapping becomes a transparent pass.
    pub fn healthy(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            kill_after_bytes: None,
            torn_write_per_mille: 0,
            corrupt_write_per_mille: 0,
            delay_per_mille: 0,
            max_delay_micros: 0,
        }
    }
}

/// One injected fault, in the order it fired. Offsets are absolute byte
/// positions in the half's stream, so two logs are comparable across runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// An operation was delayed by this many microseconds.
    Delay {
        /// Injected sleep, µs.
        micros: u64,
    },
    /// A write delivered only a prefix, then the link died.
    TornWrite {
        /// Bytes the caller asked to write.
        requested: u64,
        /// Bytes actually delivered before the kill.
        delivered: u64,
    },
    /// One bit of a write was flipped before delivery.
    CorruptBit {
        /// Absolute offset (in the write stream) of the flipped byte.
        offset: u64,
        /// Which bit (0–7) was flipped.
        bit: u8,
    },
    /// The link reached its byte budget and died.
    Killed {
        /// Total bytes delivered by the write half when the link died.
        after_bytes: u64,
    },
}

/// State both halves share: the kill switch, byte odometer, and fault log.
struct FaultShared {
    dead: AtomicBool,
    bytes_written: AtomicU64,
    faults: AtomicU64,
    log: Mutex<Vec<FaultEvent>>,
    telemetry: Option<Telemetry>,
}

impl FaultShared {
    fn record(&self, event: FaultEvent) {
        self.faults.fetch_add(1, Ordering::Relaxed);
        if let Some(tel) = &self.telemetry {
            tel.add(Counter::FaultsInjected, 1);
        }
        self.log
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(event);
    }
}

/// Observer handle for one wrapped link: fault count and replayable log.
#[derive(Clone)]
pub struct FaultHandle {
    shared: Arc<FaultShared>,
}

impl FaultHandle {
    /// Faults injected so far (all kinds).
    pub fn faults(&self) -> u64 {
        self.shared.faults.load(Ordering::Relaxed)
    }

    /// Whether the link was killed (budget, torn write).
    #[cfg(test)]
    fn is_dead(&self) -> bool {
        self.shared.dead.load(Ordering::Relaxed)
    }

    /// The fault schedule as it actually fired, for replay comparison.
    pub fn log(&self) -> Vec<FaultEvent> {
        self.shared
            .log
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

/// Constructor namespace: [`FaultyLink::wrap`] produces the faulty halves.
pub struct FaultyLink;

impl FaultyLink {
    /// Wrap a split link in a fault plan. Returns the faulty halves plus the
    /// [`FaultHandle`] observing them.
    pub fn wrap(
        reader: Box<dyn LinkReader>,
        writer: Box<dyn LinkWriter>,
        plan: FaultPlan,
    ) -> (FaultyReader, FaultyWriter, FaultHandle) {
        Self::wrap_with_telemetry(reader, writer, plan, None)
    }

    /// Like [`FaultyLink::wrap`], also counting every injected fault into
    /// `telemetry` as [`Counter::FaultsInjected`].
    pub fn wrap_with_telemetry(
        reader: Box<dyn LinkReader>,
        writer: Box<dyn LinkWriter>,
        plan: FaultPlan,
        telemetry: Option<Telemetry>,
    ) -> (FaultyReader, FaultyWriter, FaultHandle) {
        let shared = Arc::new(FaultShared {
            dead: AtomicBool::new(false),
            bytes_written: AtomicU64::new(0),
            faults: AtomicU64::new(0),
            log: Mutex::new(Vec::new()),
            telemetry,
        });
        let handle = FaultHandle {
            shared: shared.clone(),
        };
        // Distinct streams per half: the halves live on different threads,
        // so sharing one stream would make the schedule depend on thread
        // interleaving. The write stream uses the seed as-is; the read
        // stream is domain-separated by a fixed constant.
        let writer = FaultyWriter {
            inner: writer,
            plan,
            rng: StdRng::seed_from_u64(plan.seed),
            shared: shared.clone(),
        };
        let reader = FaultyReader {
            inner: reader,
            plan,
            rng: StdRng::seed_from_u64(plan.seed ^ 0x9e37_79b9_7f4a_7c15),
            shared,
        };
        (reader, writer, handle)
    }
}

fn maybe_delay(plan: &FaultPlan, rng: &mut StdRng, shared: &FaultShared) {
    if plan.delay_per_mille > 0 && rng.gen_range(0u32..1000) < plan.delay_per_mille {
        let micros = rng.gen_range(0u64..=plan.max_delay_micros.max(1));
        shared.record(FaultEvent::Delay { micros });
        std::thread::sleep(Duration::from_micros(micros));
    }
}

/// Write half with the plan applied: delays, bit flips, torn writes, kills.
pub struct FaultyWriter {
    inner: Box<dyn LinkWriter>,
    plan: FaultPlan,
    rng: StdRng,
    shared: Arc<FaultShared>,
}

impl LinkWriter for FaultyWriter {
    fn send_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        if self.shared.dead.load(Ordering::Relaxed) {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        maybe_delay(&self.plan, &mut self.rng, &self.shared);

        let written_before = self.shared.bytes_written.load(Ordering::Relaxed);

        // Byte budget: the killing write delivers only what the budget
        // allows, then the link dies in both directions.
        if let Some(budget) = self.plan.kill_after_bytes {
            if written_before + bytes.len() as u64 > budget {
                let room = budget.saturating_sub(written_before) as usize;
                if room > 0 {
                    let _ = self.inner.send_all(&bytes[..room]);
                }
                let after_bytes = written_before + room as u64;
                self.shared
                    .bytes_written
                    .store(after_bytes, Ordering::Relaxed);
                self.shared.dead.store(true, Ordering::Relaxed);
                self.shared.record(FaultEvent::Killed { after_bytes });
                return Err(io::ErrorKind::BrokenPipe.into());
            }
        }

        // Torn write: a random strict prefix lands, then the link dies.
        if self.plan.torn_write_per_mille > 0
            && self.rng.gen_range(0u32..1000) < self.plan.torn_write_per_mille
        {
            let delivered = self.rng.gen_range(0usize..bytes.len().max(1));
            if delivered > 0 {
                let _ = self.inner.send_all(&bytes[..delivered]);
            }
            let after_bytes = written_before + delivered as u64;
            self.shared
                .bytes_written
                .store(after_bytes, Ordering::Relaxed);
            self.shared.dead.store(true, Ordering::Relaxed);
            self.shared.record(FaultEvent::TornWrite {
                requested: bytes.len() as u64,
                delivered: delivered as u64,
            });
            return Err(io::ErrorKind::BrokenPipe.into());
        }

        // Bit corruption: the full write lands, one bit flipped.
        if !bytes.is_empty()
            && self.plan.corrupt_write_per_mille > 0
            && self.rng.gen_range(0u32..1000) < self.plan.corrupt_write_per_mille
        {
            let at = self.rng.gen_range(0usize..bytes.len());
            let bit = self.rng.gen_range(0u8..8);
            let mut corrupted = bytes.to_vec();
            corrupted[at] ^= 1 << bit;
            self.shared.record(FaultEvent::CorruptBit {
                offset: written_before + at as u64,
                bit,
            });
            let result = self.inner.send_all(&corrupted);
            self.shared
                .bytes_written
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
            return result;
        }

        let result = self.inner.send_all(bytes);
        self.shared
            .bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        result
    }
}

/// Read half with the plan applied: delays plus the shared kill (reported as
/// EOF, like a peer reset). Never corrupts delivered bytes — see the module
/// docs for why.
pub struct FaultyReader {
    inner: Box<dyn LinkReader>,
    plan: FaultPlan,
    rng: StdRng,
    shared: Arc<FaultShared>,
}

impl LinkReader for FaultyReader {
    fn recv(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.shared.dead.load(Ordering::Relaxed) {
            return Ok(0);
        }
        match self.inner.recv(buf) {
            // Draw only on byte-delivering reads: poll-tick timeouts are
            // timing-dependent and must not advance the schedule.
            Ok(n) if n > 0 => {
                maybe_delay(&self.plan, &mut self.rng, &self.shared);
                Ok(n)
            }
            other => other,
        }
    }

    fn set_recv_timeout(&mut self, timeout: Duration) -> io::Result<()> {
        self.inner.set_recv_timeout(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::memory_duplex;

    /// Sink writer capturing everything delivered through the fault layer.
    struct Sink(Arc<Mutex<Vec<u8>>>);

    impl LinkWriter for Sink {
        fn send_all(&mut self, bytes: &[u8]) -> io::Result<()> {
            self.0
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .extend_from_slice(bytes);
            Ok(())
        }
    }

    fn faulty_sink(plan: FaultPlan) -> (FaultyWriter, FaultHandle, Arc<Mutex<Vec<u8>>>) {
        let delivered = Arc::new(Mutex::new(Vec::new()));
        let (client, _server) = memory_duplex();
        let (reader, _writer) = client.split();
        let (_r, w, handle) =
            FaultyLink::wrap(Box::new(reader), Box::new(Sink(delivered.clone())), plan);
        (w, handle, delivered)
    }

    #[test]
    fn healthy_plan_is_a_transparent_pass() {
        let (mut w, handle, delivered) = faulty_sink(FaultPlan::healthy(7));
        for chunk in [&b"alpha"[..], &b"beta"[..], &b"gamma"[..]] {
            w.send_all(chunk).unwrap();
        }
        assert_eq!(&*delivered.lock().unwrap(), b"alphabetagamma");
        assert_eq!(handle.faults(), 0);
        assert!(!handle.is_dead());
    }

    #[test]
    fn same_seed_same_op_sequence_reproduces_the_same_schedule() {
        let plan = FaultPlan {
            torn_write_per_mille: 120,
            corrupt_write_per_mille: 150,
            delay_per_mille: 100,
            max_delay_micros: 5,
            ..FaultPlan::healthy(20812)
        };
        let run = |plan: FaultPlan| {
            let (mut w, handle, delivered) = faulty_sink(plan);
            for i in 0..200u32 {
                let chunk = vec![i as u8; 32 + (i as usize % 17)];
                if w.send_all(&chunk).is_err() {
                    break;
                }
            }
            let bytes = delivered.lock().unwrap().clone();
            (handle.log(), bytes)
        };
        let (log_a, bytes_a) = run(plan);
        let (log_b, bytes_b) = run(plan);
        assert!(!log_a.is_empty(), "the plan must actually fire");
        assert_eq!(log_a, log_b, "same seed, same ops, same schedule");
        assert_eq!(bytes_a, bytes_b, "same delivered bytes too");
        let (log_c, _) = run(FaultPlan { seed: 1, ..plan });
        assert_ne!(log_a, log_c, "a different seed yields a different schedule");
    }

    #[test]
    fn byte_budget_kills_the_link_with_a_truncated_tail() {
        let (mut w, handle, delivered) = faulty_sink(FaultPlan {
            kill_after_bytes: Some(10),
            ..FaultPlan::healthy(3)
        });
        w.send_all(b"eightby8").unwrap();
        let err = w.send_all(b"overflow").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert!(handle.is_dead());
        // 8 clean bytes plus the 2 the budget allowed of the killing write.
        assert_eq!(delivered.lock().unwrap().len(), 10);
        assert_eq!(handle.log(), vec![FaultEvent::Killed { after_bytes: 10 }]);
        // Dead forever: later writes fail without delivering anything.
        assert_eq!(
            w.send_all(b"more").unwrap_err().kind(),
            io::ErrorKind::BrokenPipe
        );
        assert_eq!(delivered.lock().unwrap().len(), 10);
    }

    #[test]
    fn torn_write_delivers_a_strict_prefix_then_dies() {
        // With a certain tear (1000‰) the very first write is torn.
        let (mut w, handle, delivered) = faulty_sink(FaultPlan {
            torn_write_per_mille: 1000,
            ..FaultPlan::healthy(9)
        });
        let err = w.send_all(&[0xab; 64]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        let log = handle.log();
        assert_eq!(log.len(), 1);
        match &log[0] {
            FaultEvent::TornWrite {
                requested,
                delivered: sent,
            } => {
                assert_eq!(*requested, 64);
                assert!(*sent < 64, "a torn write is a strict prefix");
                assert_eq!(delivered.lock().unwrap().len() as u64, *sent);
            }
            other => panic!("expected TornWrite, got {other:?}"),
        }
    }

    #[test]
    fn corruption_flips_exactly_one_bit_and_keeps_the_length() {
        let (mut w, handle, delivered) = faulty_sink(FaultPlan {
            corrupt_write_per_mille: 1000,
            ..FaultPlan::healthy(5)
        });
        let original = vec![0u8; 256];
        w.send_all(&original).unwrap();
        let delivered = delivered.lock().unwrap().clone();
        assert_eq!(delivered.len(), original.len());
        let flipped: u32 = delivered
            .iter()
            .zip(&original)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1, "exactly one bit differs");
        assert_eq!(handle.faults(), 1);
        assert!(matches!(handle.log()[0], FaultEvent::CorruptBit { .. }));
        assert!(!handle.is_dead(), "corruption does not kill the link");
    }

    #[test]
    fn dead_link_reads_as_eof_and_reader_passes_bytes_through_unchanged() {
        let (client, server) = memory_duplex();
        let (sr, mut sw) = server.split();
        drop(sr);
        let (reader, writer) = client.split();
        let (mut r, _w, handle) = FaultyLink::wrap(
            Box::new(reader),
            Box::new(writer),
            FaultPlan {
                kill_after_bytes: Some(0),
                delay_per_mille: 1000,
                max_delay_micros: 1,
                ..FaultPlan::healthy(2)
            },
        );
        // A poll tick that delivers nothing draws nothing: the schedule
        // follows the bytes, not the timing.
        let mut buf = [0u8; 16];
        r.set_recv_timeout(Duration::from_millis(1)).unwrap();
        assert!(r.recv(&mut buf).is_err(), "an empty pipe times out");
        assert!(handle.log().is_empty());
        // Reader passes real bytes through unchanged (delays only).
        sw.send_all(b"payload").unwrap();
        let n = r.recv(&mut buf).unwrap();
        assert_eq!(&buf[..n], &b"payload"[..n]);
        assert_eq!(handle.log().len(), 1, "one delay drawn per delivering read");
        // Kill the link via the write half's budget; reads turn into EOF
        // even though the pipe itself is still open.
        let (client2, _server2) = memory_duplex();
        let (_r2, w2) = client2.split();
        drop(w2);
        assert!(!handle.is_dead());
        let mut killer = FaultyWriter {
            inner: Box::new(Sink(Arc::new(Mutex::new(Vec::new())))),
            plan: FaultPlan {
                kill_after_bytes: Some(0),
                ..FaultPlan::healthy(2)
            },
            rng: StdRng::seed_from_u64(2),
            shared: r.shared.clone(),
        };
        assert!(killer.send_all(b"x").is_err());
        assert!(handle.is_dead());
        assert_eq!(r.recv(&mut buf).unwrap(), 0, "dead link reads as EOF");
    }
}
