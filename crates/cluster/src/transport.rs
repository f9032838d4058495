//! Partition delivery between the coordinator and the workers of a routed
//! shuffle round.
//!
//! A round is two passes over one inbox per worker: the coordinator routes
//! every relation into the inboxes ([`TransportRound::send`]), then each
//! worker drains its own ([`TransportRound::drain`]). Two backends:
//!
//! * [`TransportKind::InProcess`] — the zero-copy default: routed batches
//!   move as values (`Vec<Value>` rows or `Arc<Relation>` sorted blocks).
//!   Bytes are *modeled* (`tuples × 4 × arity`), exactly as the α cost
//!   model assumes.
//! * [`TransportKind::Serialized`] — every batch is encoded to a
//!   length-prefixed wire frame on send and appended to the worker's inbox
//!   byte stream; the drain decodes the frames. Bytes recorded on
//!   [`CommStats`] are the *actual encoded frame bytes* (payload +
//!   framing), so the α model can be checked against a real encoding. The
//!   stream is an in-memory buffer: no socket stands behind it.
//!
//! ## Wire format (Serialized backend)
//!
//! ```text
//! frame   := u32 LE body_len | body
//! body    := tag u8 (0) | u32 relation | u32 arity | u8 sorted
//!            | u32 tuples | tuples×arity u32 LE values
//! ```
//!
//! A worker's round ends with its stream (no frame). `sorted = 1` marks a
//! pre-built sorted block (the Merge implementation's payload); the
//! receiver rebuilds it as a [`Relation`] in the round's induced schema.
//!
//! ## Accounting
//!
//! Round, message, tuple, and byte accounting is **transport-owned**: the
//! first batch of a round records the round on [`CommStats`]; a round in
//! which nothing is sent records 0 rounds, 0 messages, and 0 bytes,
//! structurally, on both backends.

use crate::comm::CommStats;
use adj_relational::{Error, Relation, Result, Schema, Value};
use std::sync::{Arc, Mutex};

/// Which delivery backend a cluster uses for shuffle rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// Zero-copy in-process hand-off; bytes are modeled.
    #[default]
    InProcess,
    /// Length-prefixed wire frames, encoded on send and decoded on drain;
    /// bytes are real encoded frame bytes.
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

/// One worker's inbox, in send order: the batches themselves on the
/// in-process backend, the frames they were encoded to on the serialized
/// one (the other field stays empty).
#[derive(Default)]
struct Inbox {
    batches: Vec<RoutedBatch>,
    frames: Vec<u8>,
}

/// One shuffle round over the transport: the coordinator sends into one
/// inbox per worker, then each worker drains its own.
pub struct TransportRound<'a> {
    kind: TransportKind,
    /// Induced schema per relation — the drain side of the serialized
    /// backend rebuilds rows and sorted blocks in this layout.
    schemas: Vec<Schema>,
    inboxes: Vec<Mutex<Inbox>>,
    stats: &'a CommStats,
    bytes: u64,
    wire_bytes: u64,
    frames: u64,
}

impl std::fmt::Debug for TransportRound<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransportRound")
            .field("kind", &self.kind)
            .field("workers", &self.inboxes.len())
            .field("relations", &self.schemas.len())
            .finish()
    }
}

impl<'a> TransportRound<'a> {
    /// Opens a round for `workers` inboxes over `schemas.len()` relations.
    /// Nothing is recorded on `stats` until the first batch is sent.
    pub fn new(
        kind: TransportKind,
        schemas: Vec<Schema>,
        workers: usize,
        stats: &'a CommStats,
    ) -> Self {
        TransportRound {
            kind,
            schemas,
            inboxes: (0..workers).map(|_| Mutex::default()).collect(),
            stats,
            bytes: 0,
            wire_bytes: 0,
            frames: 0,
        }
    }

    /// Bytes recorded for this round so far (modeled or wire, per backend).
    pub fn bytes_sent(&self) -> u64 {
        self.bytes
    }

    /// Encoded frame bytes for this round (0 on the in-process backend —
    /// nothing was encoded).
    pub fn wire_bytes(&self) -> u64 {
        self.wire_bytes
    }

    /// Batches sent (one frame each on the serialized backend).
    pub fn frames_sent(&self) -> u64 {
        self.frames
    }

    /// Sends one routed batch to worker `dest`, recording tuples, messages,
    /// and bytes on the round's [`CommStats`]; the first batch records the
    /// round itself.
    pub fn send(&mut self, dest: usize, batch: RoutedBatch) {
        if self.frames == 0 {
            self.stats.record_round();
        }
        self.frames += 1;
        self.stats.record_messages(batch.messages);
        let tuples = batch.tuples;
        let inbox = self.inboxes[dest].get_mut().unwrap_or_else(|e| e.into_inner());
        let bytes = match self.kind {
            TransportKind::InProcess => {
                let bytes = batch.payload.modeled_bytes();
                inbox.batches.push(batch);
                bytes
            }
            TransportKind::Serialized => {
                let start = inbox.frames.len();
                encode_batch(&batch, &mut inbox.frames);
                let bytes = (inbox.frames.len() - start) as u64;
                self.wire_bytes += bytes;
                bytes
            }
        };
        self.stats.record(tuples, bytes);
        self.bytes += bytes;
    }

    /// Takes worker `w`'s inbox whole and yields its batches in send order,
    /// decoding frames on the serialized backend. A frame that does not
    /// decode is an [`Error::MalformedFrame`], never a panic: the drain goes
    /// on with the next frame, or ends if the stream's framing is broken.
    pub fn drain(&self, w: usize) -> impl Iterator<Item = Result<RoutedBatch>> + '_ {
        let inbox = std::mem::take(&mut *self.inboxes[w].lock().unwrap_or_else(|e| e.into_inner()));
        let (frames, mut at) = (inbox.frames, 0usize);
        let decoded = std::iter::from_fn(move || {
            let rest = &frames[at..];
            if rest.is_empty() {
                return None;
            }
            let body = rest.get(..4).and_then(|len| {
                let len = u32::from_le_bytes(len.try_into().expect("a four-byte slice"));
                rest[4..].get(..len as usize)
            });
            Some(match body {
                Some(body) => {
                    at += 4 + body.len();
                    decode_frame(body, &self.schemas)
                }
                None => {
                    at = frames.len();
                    Err(malformed(format!("a frame cut short in the last {} bytes", rest.len())))
                }
            })
        });
        inbox.batches.into_iter().map(Ok).chain(decoded)
    }
}

fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `batch`'s frame to `out`. See the module docs for the layout.
pub fn encode_batch(batch: &RoutedBatch, out: &mut Vec<u8>) {
    let (arity, sorted, tuples, values) = match &batch.payload {
        BatchPayload::Rows(values) => {
            let tuples = batch.tuples as usize;
            (values.len().checked_div(tuples).unwrap_or(0), 0u8, tuples, values.as_slice())
        }
        BatchPayload::SortedBlock(block) => (block.arity(), 1u8, block.len(), block.flat()),
    };
    let start = out.len();
    push_u32(out, 0); // the body length, patched below
    out.push(0u8);
    push_u32(out, batch.relation as u32);
    push_u32(out, arity as u32);
    out.push(sorted);
    push_u32(out, tuples as u32);
    for &v in values {
        push_u32(out, v);
    }
    let body_len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&body_len.to_le_bytes());
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

/// Decodes one frame body back into a [`RoutedBatch`]. The body is input
/// from the wire: whatever it holds, the answer is a batch that fits
/// `schemas` or an [`Error::MalformedFrame`].
pub fn decode_frame(body: &[u8], schemas: &[Schema]) -> Result<RoutedBatch> {
    let mut at = 0usize;
    let tag = read_u8(body, &mut at)?;
    if tag != 0 {
        return Err(malformed(format!("unknown tag {tag}")));
    }
    let relation = read_u32(body, &mut at)? as usize;
    let schema = schemas.get(relation).ok_or_else(|| {
        malformed(format!("relation {relation} of a {}-relation round", schemas.len()))
    })?;
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
    Ok(RoutedBatch {
        relation,
        tuples: tuples as u64,
        messages: 0, // accounting happened on the send side
        payload,
    })
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

    fn drained(round: &TransportRound<'_>, w: usize) -> Vec<RoutedBatch> {
        round.drain(w).collect::<Result<_>>().unwrap()
    }

    #[test]
    fn in_process_round_delivers_in_order_and_models_bytes() {
        let stats = CommStats::new();
        let mut round = TransportRound::new(TransportKind::InProcess, schemas2(), 2, &stats);
        round.send(
            0,
            RoutedBatch {
                relation: 0,
                tuples: 2,
                messages: 1,
                payload: BatchPayload::Rows(vec![1, 2, 3, 4]),
            },
        );

        let got = drained(&round, 0);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].relation, 0);
        assert!(matches!(got[0].payload, BatchPayload::Rows(ref v) if v == &vec![1, 2, 3, 4]));
        assert!(drained(&round, 0).is_empty(), "a drain takes the inbox whole");
        assert!(drained(&round, 1).is_empty(), "worker 1 was sent nothing");

        let (tuples, bytes, rounds, messages) = stats.snapshot();
        assert_eq!((tuples, rounds, messages), (2, 1, 1));
        assert_eq!(bytes, 16, "modeled bytes: 4 values x 4 bytes");
        assert_eq!(round.wire_bytes(), 0, "nothing was encoded in-process");
    }

    #[test]
    fn serialized_round_trips_rows_and_blocks_and_counts_wire_bytes() {
        let stats = CommStats::new();
        let mut round = TransportRound::new(TransportKind::Serialized, schemas2(), 1, &stats);
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

        let got = drained(&round, 0);
        assert_eq!(got.len(), 2);
        assert!(matches!(got[0].payload, BatchPayload::Rows(ref v) if v == &vec![5, 6, 7, 8]));
        match &got[1].payload {
            BatchPayload::SortedBlock(b) => assert_eq!(b.as_ref(), block.as_ref()),
            other => panic!("expected sorted block, got {other:?}"),
        }

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
            for w in 0..4 {
                assert!(round.drain(w).next().is_none());
            }
            assert_eq!(stats.snapshot(), (0, 0, 0, 0), "{kind:?}: empty round leaked accounting");
        }
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
        let mut frame = Vec::new();
        encode_batch(&batch, &mut frame);
        let good = frame[4..].to_vec();
        assert!(matches!(decode_frame(&good, &schemas), Ok(b) if b.tuples == 2));

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
        // The format has one tag: 0.
        assert!(is_malformed(decode_frame(&[1, 1, 0, 0, 0], &schemas)), "tag 1");
        let mut tag_one = good.clone();
        tag_one[0] = 1;
        assert!(is_malformed(decode_frame(&tag_one, &schemas)), "tag 1 over a batch body");
    }

    #[test]
    fn recv_surfaces_a_malformed_frame_instead_of_panicking() {
        let stats = CommStats::new();
        let mut round = TransportRound::new(TransportKind::Serialized, schemas2(), 1, &stats);
        fn stream<'r>(round: &'r mut TransportRound<'_>) -> &'r mut Vec<u8> {
            &mut round.inboxes[0].get_mut().unwrap().frames
        }
        // A well-framed body with an unknown tag, as a corrupted stream
        // would deliver it, then a good batch, then a frame cut short.
        stream(&mut round).extend([5u8, 0, 0, 0, 9, 0, 0, 0, 0]);
        round.send(
            0,
            RoutedBatch {
                relation: 0,
                tuples: 1,
                messages: 1,
                payload: BatchPayload::Rows(vec![3, 4]),
            },
        );
        stream(&mut round).extend([9u8, 0, 0, 0, 0]);
        let got: Vec<Result<RoutedBatch>> = round.drain(0).collect();
        assert_eq!(got.len(), 3, "{got:?}");
        assert!(matches!(got[0], Err(Error::MalformedFrame { .. })), "bad body: {:?}", got[0]);
        assert!(matches!(&got[1], Ok(b) if b.tuples == 1), "the drain goes past a bad body");
        assert!(matches!(got[2], Err(Error::MalformedFrame { .. })), "cut frame: {:?}", got[2]);
        assert!(round.drain(0).next().is_none(), "the inbox was taken whole");
    }
}
