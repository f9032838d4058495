//! Pluggable partition delivery between the coordinator and the workers.
//!
//! A shuffle used to hand `Arc`s straight into per-worker inboxes, which
//! meant `CommStats::bytes` was a model, delivery order was implicit, and
//! nothing could ever cross a process boundary. This module owns that
//! hand-off behind a single round abstraction with two backends:
//!
//! * [`TransportKind::InProcess`] — the zero-copy default: routed batches
//!   move as values (`Vec<Value>` rows or `Arc<Relation>` sorted blocks)
//!   through per-worker queues. Bytes are *modeled* (`tuples × 4 × arity`),
//!   exactly as the α cost model assumes.
//! * [`TransportKind::Serialized`] — every batch is encoded to a
//!   length-prefixed wire frame and appended to a per-worker loopback byte
//!   stream; the receiver decodes frames off the stream. Bytes recorded on
//!   [`CommStats`] are the *actual encoded frame bytes*
//!   (payload + framing), so the α model can be validated against a real
//!   wire. Swapping the loopback stream for a TCP socket is a config
//!   change, not a refactor.
//!
//! ## Wire format (Serialized backend)
//!
//! ```text
//! frame   := u32 LE body_len | body
//! body    := tag u8 | rest
//! tag 0   (batch)         := u32 relation | u32 arity | u8 sorted
//!                            | u32 tuples | tuples×arity u32 LE values
//! tag 1   (relation_done) := u32 relation
//! ```
//!
//! End-of-round is stream close (no frame). `sorted = 1` marks a
//! pre-built sorted block (the Merge implementation's payload); the
//! receiver rebuilds it as a [`Relation`] in the round's induced schema.
//!
//! ## Accounting
//!
//! Round, message, tuple, and byte accounting is **transport-owned**: the
//! first frame of a round (batch *or* relation-done marker) lazily records
//! the round on [`CommStats`]; a round in which nothing
//! is sent — every relation served warm from the index cache — records 0
//! rounds, 0 messages, and 0 bytes, structurally, on both backends.

use crate::comm::CommStats;
use adj_relational::{Error, Relation, Result, Schema, Value};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Which delivery backend a cluster uses for shuffle rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// Zero-copy in-process hand-off; bytes are modeled.
    #[default]
    InProcess,
    /// Length-prefixed wire encoding over loopback byte streams; bytes are
    /// real encoded frame bytes.
    Serialized,
}

impl TransportKind {
    /// Display name for reports and bench tables.
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::InProcess => "in-process",
            TransportKind::Serialized => "serialized",
        }
    }
}

/// The payload of one routed batch.
#[derive(Debug, Clone)]
pub enum BatchPayload {
    /// Flat row-major values in the relation's induced layout (Push/Pull).
    Rows(Vec<Value>),
    /// A pre-built sorted block (Merge) — already permuted, sorted, and
    /// deduplicated, ready for a k-way merge on the receiver.
    SortedBlock(Arc<Relation>),
}

impl BatchPayload {
    /// Tuple payload bytes under the α model (4 bytes per value).
    fn modeled_bytes(&self) -> u64 {
        match self {
            BatchPayload::Rows(v) => v.len() as u64 * 4,
            BatchPayload::SortedBlock(b) => b.size_bytes() as u64,
        }
    }
}

/// One routed batch: a slice of a relation's tuples bound for one worker.
#[derive(Debug, Clone)]
pub struct RoutedBatch {
    /// Index of the relation in the round's atom list.
    pub relation: usize,
    /// Delivered tuple copies in this batch.
    pub tuples: u64,
    /// Transfer units this batch accounts for (tuple copies for Push, one
    /// per block for Pull/Merge — the Fig. 9 distinction).
    pub messages: u64,
    /// The tuples themselves.
    pub payload: BatchPayload,
}

/// What a worker receives from the round.
#[derive(Debug)]
pub enum Delivery {
    /// A routed batch for one relation.
    Batch(RoutedBatch),
    /// The coordinator finished routing this relation: its last batch has
    /// landed and the worker may build the local trie *now*, overlapping
    /// with the delivery of later relations.
    RelationDone(usize),
}

/// Per-worker lane contents: decoded deliveries (in-process) or a raw byte
/// stream the receiver decodes frames from (serialized).
enum LaneBuf {
    Queue(VecDeque<Delivery>),
    Pipe(VecDeque<u8>),
}

struct LaneState {
    buf: LaneBuf,
    closed: bool,
}

/// One worker's inbound lane: a mutex-guarded buffer plus a condvar so a
/// threaded receiver can block until the next frame (or close) arrives.
struct Lane {
    state: Mutex<LaneState>,
    ready: Condvar,
}

impl Lane {
    fn new(kind: TransportKind) -> Self {
        let buf = match kind {
            TransportKind::InProcess => LaneBuf::Queue(VecDeque::new()),
            TransportKind::Serialized => LaneBuf::Pipe(VecDeque::new()),
        };
        Lane { state: Mutex::new(LaneState { buf, closed: false }), ready: Condvar::new() }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LaneState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// One shuffle round over the transport: a coordinator-side sender plus one
/// receiver lane per worker. Dropping (or [`close`](TransportRound::close)-
/// ing) the round ends every lane's stream, so receivers can never block
/// past the coordinator's lifetime — including its panic path.
pub struct TransportRound<'a> {
    kind: TransportKind,
    /// Induced schema per relation — the decode side of the serialized
    /// backend rebuilds rows and sorted blocks in this layout.
    schemas: Vec<Schema>,
    lanes: Vec<Lane>,
    stats: &'a CommStats,
    round_opened: AtomicBool,
    bytes: AtomicU64,
    wire_bytes: AtomicU64,
    frames: AtomicU64,
}

impl std::fmt::Debug for TransportRound<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransportRound")
            .field("kind", &self.kind)
            .field("workers", &self.lanes.len())
            .field("relations", &self.schemas.len())
            .finish()
    }
}

impl<'a> TransportRound<'a> {
    /// Opens a round for `workers` lanes over `schemas.len()` relations.
    /// Nothing is recorded on `stats` until the first frame is sent.
    pub fn new(
        kind: TransportKind,
        schemas: Vec<Schema>,
        workers: usize,
        stats: &'a CommStats,
    ) -> Self {
        TransportRound {
            kind,
            schemas,
            lanes: (0..workers).map(|_| Lane::new(kind)).collect(),
            stats,
            round_opened: AtomicBool::new(false),
            bytes: AtomicU64::new(0),
            wire_bytes: AtomicU64::new(0),
            frames: AtomicU64::new(0),
        }
    }

    /// The backend this round runs on.
    pub fn kind(&self) -> TransportKind {
        self.kind
    }

    /// Bytes recorded for this round so far (modeled or wire, per backend).
    pub fn bytes_sent(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Encoded frame bytes for this round (0 on the in-process backend —
    /// nothing crossed a wire).
    pub fn wire_bytes(&self) -> u64 {
        self.wire_bytes.load(Ordering::Relaxed)
    }

    /// Frames sent (batches + relation-done markers).
    pub fn frames_sent(&self) -> u64 {
        self.frames.load(Ordering::Relaxed)
    }

    /// Lazily opens the round on first traffic — a round with no traffic
    /// records nothing (the fully-warm-shuffle guarantee).
    fn open(&self) {
        if !self.round_opened.swap(true, Ordering::Relaxed) {
            self.stats.record_round();
        }
    }

    /// Sends one routed batch to worker `dest`, recording tuples, messages,
    /// and bytes on the round's [`CommStats`].
    pub fn send(&self, dest: usize, batch: RoutedBatch) {
        self.open();
        self.frames.fetch_add(1, Ordering::Relaxed);
        let mut state = self.lanes[dest].lock();
        match &mut state.buf {
            LaneBuf::Queue(q) => {
                let bytes = batch.payload.modeled_bytes();
                self.stats.record(batch.tuples, bytes);
                self.stats.record_messages(batch.messages);
                self.bytes.fetch_add(bytes, Ordering::Relaxed);
                q.push_back(Delivery::Batch(batch));
            }
            LaneBuf::Pipe(p) => {
                let frame = encode_batch(&batch);
                let bytes = frame.len() as u64;
                self.stats.record(batch.tuples, bytes);
                self.stats.record_messages(batch.messages);
                self.bytes.fetch_add(bytes, Ordering::Relaxed);
                self.wire_bytes.fetch_add(bytes, Ordering::Relaxed);
                p.extend(frame);
            }
        }
        drop(state);
        self.lanes[dest].ready.notify_one();
    }

    /// Broadcasts a relation-done marker to every worker: relation `ai`'s
    /// last batch has been sent, so receivers may build its trie now.
    /// Control frames count toward wire bytes (they are real traffic) but
    /// carry no tuples and no messages.
    pub fn finish_relation(&self, ai: usize) {
        self.open();
        for lane in &self.lanes {
            self.frames.fetch_add(1, Ordering::Relaxed);
            let mut state = lane.lock();
            match &mut state.buf {
                LaneBuf::Queue(q) => q.push_back(Delivery::RelationDone(ai)),
                LaneBuf::Pipe(p) => {
                    let frame = encode_relation_done(ai);
                    let bytes = frame.len() as u64;
                    self.stats.record(0, bytes);
                    self.bytes.fetch_add(bytes, Ordering::Relaxed);
                    self.wire_bytes.fetch_add(bytes, Ordering::Relaxed);
                    p.extend(frame);
                }
            }
            drop(state);
            lane.ready.notify_one();
        }
    }

    /// Ends the round: closes every lane's stream. Receivers drain what was
    /// already sent, then see end-of-round. Idempotent.
    pub fn close(&self) {
        for lane in &self.lanes {
            lane.lock().closed = true;
            lane.ready.notify_all();
        }
    }

    /// Blocking receive on worker `w`'s lane: the next delivery, or `None`
    /// once the round is closed and the lane is drained. A frame that does
    /// not decode is an [`Error::MalformedFrame`], never a panic.
    pub fn recv(&self, w: usize) -> Result<Option<Delivery>> {
        let lane = &self.lanes[w];
        let mut state = lane.lock();
        loop {
            match &mut state.buf {
                LaneBuf::Queue(q) => {
                    if let Some(d) = q.pop_front() {
                        return Ok(Some(d));
                    }
                }
                LaneBuf::Pipe(p) => {
                    if let Some(frame) = take_frame(p) {
                        // Decode outside the lock so a slow decode never
                        // stalls the sender.
                        drop(state);
                        return decode_frame(&frame, &self.schemas).map(Some);
                    }
                }
            }
            if state.closed {
                return Ok(None);
            }
            state = lane.ready.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl Drop for TransportRound<'_> {
    fn drop(&mut self) {
        self.close();
    }
}

fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Encodes a batch frame (tag 0). See the module docs for the layout.
pub fn encode_batch(batch: &RoutedBatch) -> Vec<u8> {
    let (arity, tuples, sorted): (u32, u32, u8) = match &batch.payload {
        BatchPayload::Rows(_) => (0, batch.tuples as u32, 0), // arity patched below
        BatchPayload::SortedBlock(b) => (b.arity() as u32, b.len() as u32, 1),
    };
    let mut body = Vec::new();
    body.push(0u8);
    push_u32(&mut body, batch.relation as u32);
    match &batch.payload {
        BatchPayload::Rows(values) => {
            let tuples = batch.tuples as u32;
            let arity = (values.len() as u32).checked_div(tuples).unwrap_or(0);
            push_u32(&mut body, arity);
            body.push(0u8);
            push_u32(&mut body, tuples);
            for &v in values {
                push_u32(&mut body, v);
            }
        }
        BatchPayload::SortedBlock(block) => {
            push_u32(&mut body, arity);
            body.push(sorted);
            push_u32(&mut body, tuples);
            for row in block.rows() {
                for &v in row {
                    push_u32(&mut body, v);
                }
            }
        }
    }
    let mut frame = Vec::with_capacity(4 + body.len());
    push_u32(&mut frame, body.len() as u32);
    frame.extend_from_slice(&body);
    frame
}

fn encode_relation_done(ai: usize) -> Vec<u8> {
    let mut body = Vec::with_capacity(5);
    body.push(1u8);
    push_u32(&mut body, ai as u32);
    let mut frame = Vec::with_capacity(4 + body.len());
    push_u32(&mut frame, body.len() as u32);
    frame.extend_from_slice(&body);
    frame
}

/// Pops one complete frame's body off the stream, or `None` if the stream
/// does not yet hold one.
fn take_frame(p: &mut VecDeque<u8>) -> Option<Vec<u8>> {
    if p.len() < 4 {
        return None;
    }
    let mut len_bytes = [0u8; 4];
    for (i, b) in len_bytes.iter_mut().enumerate() {
        *b = p[i];
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if p.len() < 4 + len {
        return None;
    }
    p.drain(..4);
    Some(p.drain(..len).collect())
}

fn malformed(message: String) -> Error {
    Error::MalformedFrame { message }
}

fn read_u8(body: &[u8], at: &mut usize) -> Result<u8> {
    let &v = body.get(*at).ok_or_else(|| malformed(format!("truncated at byte {}", *at)))?;
    *at += 1;
    Ok(v)
}

fn read_u32(body: &[u8], at: &mut usize) -> Result<u32> {
    let bytes =
        body.get(*at..*at + 4).ok_or_else(|| malformed(format!("truncated at byte {}", *at)))?;
    *at += 4;
    Ok(u32::from_le_bytes(bytes.try_into().expect("a four-byte slice")))
}

/// Decodes one frame body back into a [`Delivery`]. The body is input from
/// the wire: whatever it holds, the answer is a delivery that fits
/// `schemas` or an [`Error::MalformedFrame`].
pub fn decode_frame(body: &[u8], schemas: &[Schema]) -> Result<Delivery> {
    let mut at = 0usize;
    let tag = read_u8(body, &mut at)?;
    if tag > 1 {
        return Err(malformed(format!("unknown tag {tag}")));
    }
    let relation = read_u32(body, &mut at)? as usize;
    let schema = schemas.get(relation).ok_or_else(|| {
        malformed(format!("relation {relation} of a {}-relation round", schemas.len()))
    })?;
    if tag == 1 {
        return if at == body.len() {
            Ok(Delivery::RelationDone(relation))
        } else {
            Err(malformed(format!("{} bytes after a relation-done marker", body.len() - at)))
        };
    }
    let arity = read_u32(body, &mut at)? as usize;
    let sorted = read_u8(body, &mut at)?;
    let tuples = read_u32(body, &mut at)? as usize;
    // The values are taken off the bytes actually present, so a declared
    // size is only ever compared, never allocated for.
    let rest = &body[at..];
    if tuples.checked_mul(arity).and_then(|n| n.checked_mul(4)) != Some(rest.len()) {
        return Err(malformed(format!(
            "{tuples} tuples of arity {arity} declared, {} value bytes present",
            rest.len()
        )));
    }
    if sorted > 1 || (tuples > 0 && arity != schema.arity()) {
        return Err(malformed(format!(
            "sorted flag {sorted}, arity {arity} for a relation of arity {}",
            schema.arity()
        )));
    }
    let values: Vec<Value> = rest
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("a four-byte chunk")))
        .collect();
    let payload = if sorted == 1 {
        // Rebuild the sorted block in the induced layout. The data
        // was normalized before encoding, so this is idempotent.
        BatchPayload::SortedBlock(Arc::new(Relation::from_flat(schema.clone(), values)?))
    } else {
        BatchPayload::Rows(values)
    };
    Ok(Delivery::Batch(RoutedBatch {
        relation,
        tuples: tuples as u64,
        messages: 0, // accounting happened on the send side
        payload,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adj_relational::Attr;

    fn schemas2() -> Vec<Schema> {
        vec![
            Schema::new(vec![Attr(0), Attr(1)]).unwrap(),
            Schema::new(vec![Attr(1), Attr(2)]).unwrap(),
        ]
    }

    #[test]
    fn in_process_round_delivers_in_order_and_models_bytes() {
        let stats = CommStats::new();
        let round = TransportRound::new(TransportKind::InProcess, schemas2(), 2, &stats);
        round.send(
            0,
            RoutedBatch {
                relation: 0,
                tuples: 2,
                messages: 1,
                payload: BatchPayload::Rows(vec![1, 2, 3, 4]),
            },
        );
        round.finish_relation(0);
        round.close();

        match round.recv(0).unwrap() {
            Some(Delivery::Batch(b)) => {
                assert_eq!(b.relation, 0);
                assert!(matches!(b.payload, BatchPayload::Rows(ref v) if v == &vec![1, 2, 3, 4]));
            }
            other => panic!("expected batch, got {other:?}"),
        }
        assert!(matches!(round.recv(0).unwrap(), Some(Delivery::RelationDone(0))));
        assert!(round.recv(0).unwrap().is_none());
        // Worker 1 got only the relation-done marker.
        assert!(matches!(round.recv(1).unwrap(), Some(Delivery::RelationDone(0))));
        assert!(round.recv(1).unwrap().is_none());

        let (tuples, bytes, rounds, messages) = stats.snapshot();
        assert_eq!((tuples, rounds, messages), (2, 1, 1));
        assert_eq!(bytes, 16, "modeled bytes: 4 values x 4 bytes");
        assert_eq!(round.wire_bytes(), 0, "nothing crossed a wire in-process");
    }

    #[test]
    fn serialized_round_trips_rows_and_blocks_and_counts_wire_bytes() {
        let stats = CommStats::new();
        let round = TransportRound::new(TransportKind::Serialized, schemas2(), 1, &stats);
        let block =
            Arc::new(Relation::from_flat(schemas2()[1].clone(), vec![9, 1, 3, 4, 3, 4]).unwrap());
        round.send(
            0,
            RoutedBatch {
                relation: 0,
                tuples: 2,
                messages: 2,
                payload: BatchPayload::Rows(vec![5, 6, 7, 8]),
            },
        );
        round.send(
            0,
            RoutedBatch {
                relation: 1,
                tuples: block.len() as u64,
                messages: 1,
                payload: BatchPayload::SortedBlock(Arc::clone(&block)),
            },
        );
        round.finish_relation(0);
        round.close();

        match round.recv(0).unwrap() {
            Some(Delivery::Batch(b)) => {
                assert!(matches!(b.payload, BatchPayload::Rows(ref v) if v == &vec![5, 6, 7, 8]));
            }
            other => panic!("expected rows batch, got {other:?}"),
        }
        match round.recv(0).unwrap() {
            Some(Delivery::Batch(b)) => match b.payload {
                BatchPayload::SortedBlock(got) => assert_eq!(got.as_ref(), block.as_ref()),
                other => panic!("expected sorted block, got {other:?}"),
            },
            other => panic!("expected block batch, got {other:?}"),
        }
        assert!(matches!(round.recv(0).unwrap(), Some(Delivery::RelationDone(0))));
        assert!(round.recv(0).unwrap().is_none());

        let (tuples, bytes, rounds, messages) = stats.snapshot();
        assert_eq!((tuples, rounds, messages), (4, 1, 3));
        assert_eq!(bytes, round.wire_bytes(), "serialized bytes are wire bytes");
        // Real framing: bigger than the bare payload (8 values x 4 bytes).
        assert!(bytes > 32, "wire bytes {bytes} must include framing");
    }

    #[test]
    fn a_round_with_no_traffic_records_nothing() {
        for kind in [TransportKind::InProcess, TransportKind::Serialized] {
            let stats = CommStats::new();
            let round = TransportRound::new(kind, schemas2(), 4, &stats);
            round.close();
            for w in 0..4 {
                assert!(round.recv(w).unwrap().is_none());
            }
            assert_eq!(stats.snapshot(), (0, 0, 0, 0), "{kind:?}: empty round leaked accounting");
        }
    }

    #[test]
    fn threaded_receivers_block_until_traffic_or_close() {
        let stats = CommStats::new();
        let round = TransportRound::new(TransportKind::Serialized, schemas2(), 2, &stats);
        std::thread::scope(|s| {
            let r = &round;
            let h0 = s.spawn(move || {
                let mut got = 0;
                while let Some(d) = r.recv(0).unwrap() {
                    if matches!(d, Delivery::Batch(_)) {
                        got += 1;
                    }
                }
                got
            });
            let h1 = s.spawn(move || {
                let mut got = 0;
                while r.recv(1).unwrap().is_some() {
                    got += 1;
                }
                got
            });
            for i in 0..10u32 {
                round.send(
                    0,
                    RoutedBatch {
                        relation: 0,
                        tuples: 1,
                        messages: 1,
                        payload: BatchPayload::Rows(vec![i, i + 1]),
                    },
                );
            }
            round.finish_relation(0);
            round.close();
            assert_eq!(h0.join().unwrap(), 10);
            assert_eq!(h1.join().unwrap(), 1, "worker 1 sees only the marker");
        });
    }

    #[test]
    fn drop_closes_the_round() {
        let stats = CommStats::new();
        let round = TransportRound::new(TransportKind::InProcess, schemas2(), 1, &stats);
        std::thread::scope(|s| {
            let r = &round;
            let h = s.spawn(move || r.recv(0).unwrap().is_none());
            // recv blocks until the close below (drop is not reachable from
            // inside the scope, so exercise the close path directly).
            std::thread::sleep(std::time::Duration::from_millis(10));
            round.close();
            assert!(h.join().unwrap());
        });
    }
    fn is_malformed<T: std::fmt::Debug>(r: Result<T>) -> bool {
        matches!(r, Err(Error::MalformedFrame { .. }))
    }

    #[test]
    fn frames_that_do_not_decode_are_typed_errors() {
        let schemas = schemas2();
        let batch = RoutedBatch {
            relation: 1,
            tuples: 2,
            messages: 1,
            payload: BatchPayload::Rows(vec![1, 2, 3, 4]),
        };
        let good = encode_batch(&batch)[4..].to_vec();
        assert!(matches!(decode_frame(&good, &schemas), Ok(Delivery::Batch(b)) if b.tuples == 2));

        assert!(is_malformed(decode_frame(&[], &schemas)), "empty frame");
        // Every proper prefix of a good frame is a truncation.
        for cut in 1..good.len() {
            assert!(is_malformed(decode_frame(&good[..cut], &schemas)), "cut at {cut}");
        }
        let mut unknown_tag = good.clone();
        unknown_tag[0] = 7;
        assert!(is_malformed(decode_frame(&unknown_tag, &schemas)));
        // A relation the round does not have, an arity its schema does not
        // have, a tuple count the payload cannot back (a huge one must not
        // be allocated for), bytes past the end.
        let mut no_such_relation = good.clone();
        no_such_relation[1] = 9;
        assert!(is_malformed(decode_frame(&no_such_relation, &schemas)));
        let mut wrong_arity = good.clone();
        wrong_arity[5] = 4;
        wrong_arity[10] = 1;
        assert!(is_malformed(decode_frame(&wrong_arity, &schemas)));
        let mut huge = good.clone();
        huge[10..14].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(is_malformed(decode_frame(&huge, &schemas)));
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(is_malformed(decode_frame(&trailing, &schemas)));
        assert!(is_malformed(decode_frame(&[1, 0, 0, 0, 0, 0], &schemas)), "long marker");
        assert!(matches!(decode_frame(&[1, 1, 0, 0, 0], &schemas), Ok(Delivery::RelationDone(1))));
    }

    #[test]
    fn recv_surfaces_a_malformed_frame_instead_of_panicking() {
        let stats = CommStats::new();
        let round = TransportRound::new(TransportKind::Serialized, schemas2(), 1, &stats);
        // A well-framed body with an unknown tag, as a corrupted stream
        // would deliver it.
        match &mut round.lanes[0].lock().buf {
            LaneBuf::Pipe(p) => p.extend([5u8, 0, 0, 0, 9, 0, 0, 0, 0]),
            LaneBuf::Queue(_) => unreachable!("serialized rounds use byte pipes"),
        }
        assert!(is_malformed(round.recv(0)));
        round.close();
        assert!(round.recv(0).unwrap().is_none(), "the lane stays usable");
    }
}
