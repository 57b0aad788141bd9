//! Length-prefixed wire protocol for the filter daemon.
//!
//! Framing is deliberately minimal: a `u32` little-endian payload length,
//! then the payload, whose first byte is an opcode. Everything is
//! fixed-width little-endian — no text parsing on the hot path, and a
//! truncated frame is detectable before any field is read.
//!
//! A score request carries the tenant name, a batch of candidates, and the
//! tenant's piggybacked feedback (demand addresses and unused evictions).
//! A candidate is exactly [`CANDIDATE_BYTES`] bytes:
//!
//! | field            | type  | bytes |
//! |------------------|-------|-------|
//! | `trigger_addr`   | `u64` | 8     |
//! | `trigger_pc`     | `u64` | 8     |
//! | `pc_1..pc_3`     | `u64` | 24    |
//! | `signature`      | `u16` | 2     |
//! | `last_signature` | `u16` | 2     |
//! | `delta`          | `i16` | 2     |
//! | `confidence`     | `u8`  | 1     |
//! | `depth`          | `u8`  | 1     |
//! | `target`         | `u64` | 8     |
//!
//! The reply is one status byte (`0` = scored, `1` = degraded accept-all)
//! followed by one decision byte per candidate.

use ppf::{Decision, FeatureInputs};

/// Score a batch of candidates for one tenant.
pub const OP_SCORE: u8 = 1;
/// Reply to [`OP_SCORE`].
pub const OP_REPLY: u8 = 2;
/// Liveness probe; replied to with an empty [`OP_REPLY`].
pub const OP_PING: u8 = 3;
/// Flush checkpoints and stop the daemon.
pub const OP_SHUTDOWN: u8 = 4;
/// Request a live stats report; replied to with an [`OP_STATS`] frame
/// carrying the report text (see [`encode_stats_reply`]).
pub const OP_STATS: u8 = 5;

/// Serialized size of one candidate.
pub const CANDIDATE_BYTES: usize = 56;

/// Frames larger than this are rejected before allocation (a corrupt
/// length prefix must not OOM the daemon).
pub const MAX_FRAME: usize = 1 << 22;

/// One prefetch candidate: the feature vector plus the prefetch target the
/// tables are keyed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Feature inputs at the trigger access.
    pub inputs: FeatureInputs,
    /// Prefetch target address.
    pub target: u64,
}

/// A decoded score request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScoreRequest {
    /// Tenant the batch belongs to; must pass [`valid_tenant`].
    pub tenant: String,
    /// Candidates to score, in order.
    pub candidates: Vec<Candidate>,
    /// Demand accesses since the last batch (positive feedback).
    pub demands: Vec<u64>,
    /// Addresses evicted unused since the last batch (negative feedback).
    pub evictions: Vec<u64>,
}

/// A decoded score reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScoreReply {
    /// `true` when the daemon could not score (shed, deadline, panic) and
    /// fails open: every decision is accept.
    pub degraded: bool,
    /// One decision per candidate.
    pub decisions: Vec<Decision>,
}

impl ScoreReply {
    /// The fail-open reply: accept everything at the L2.
    pub fn degraded(n: usize) -> Self {
        Self { degraded: true, decisions: vec![Decision::PrefetchL2; n] }
    }
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn read_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().unwrap())
}

fn read_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().unwrap())
}

fn read_u16(buf: &[u8], at: usize) -> u16 {
    u16::from_le_bytes(buf[at..at + 2].try_into().unwrap())
}

/// Appends one candidate's fixed-width encoding.
pub fn encode_candidate(buf: &mut Vec<u8>, c: &Candidate) {
    let i = &c.inputs;
    put_u64(buf, i.trigger_addr);
    put_u64(buf, i.trigger_pc);
    put_u64(buf, i.pc_1);
    put_u64(buf, i.pc_2);
    put_u64(buf, i.pc_3);
    buf.extend_from_slice(&i.signature.to_le_bytes());
    buf.extend_from_slice(&i.last_signature.to_le_bytes());
    buf.extend_from_slice(&i.delta.to_le_bytes());
    buf.push(i.confidence);
    buf.push(i.depth);
    put_u64(buf, c.target);
}

/// Decodes one candidate from `buf[at..at + CANDIDATE_BYTES]`.
pub fn decode_candidate(buf: &[u8], at: usize) -> Candidate {
    let inputs = FeatureInputs {
        trigger_addr: read_u64(buf, at),
        trigger_pc: read_u64(buf, at + 8),
        pc_1: read_u64(buf, at + 16),
        pc_2: read_u64(buf, at + 24),
        pc_3: read_u64(buf, at + 32),
        signature: read_u16(buf, at + 40),
        last_signature: read_u16(buf, at + 42),
        delta: read_u16(buf, at + 44) as i16,
        confidence: buf[at + 46],
        depth: buf[at + 47],
        // The wire format predates source attribution; remote candidates
        // score as the primary (bare) source.
        source: 0,
    };
    Candidate { inputs, target: read_u64(buf, at + 48) }
}

/// Encodes a score request into a full frame (length prefix included).
pub fn encode_score(req: &ScoreRequest) -> Vec<u8> {
    let mut payload = Vec::with_capacity(
        16 + req.tenant.len()
            + req.candidates.len() * CANDIDATE_BYTES
            + (req.demands.len() + req.evictions.len()) * 8,
    );
    payload.push(OP_SCORE);
    let name = req.tenant.as_bytes();
    payload.extend_from_slice(&(name.len() as u16).to_le_bytes());
    payload.extend_from_slice(name);
    payload.extend_from_slice(&(req.candidates.len() as u32).to_le_bytes());
    for c in &req.candidates {
        encode_candidate(&mut payload, c);
    }
    payload.extend_from_slice(&(req.demands.len() as u32).to_le_bytes());
    for &d in &req.demands {
        put_u64(&mut payload, d);
    }
    payload.extend_from_slice(&(req.evictions.len() as u32).to_le_bytes());
    for &e in &req.evictions {
        put_u64(&mut payload, e);
    }
    frame(payload)
}

/// Encodes a reply into a full frame.
pub fn encode_reply(reply: &ScoreReply) -> Vec<u8> {
    let mut payload = Vec::with_capacity(6 + reply.decisions.len());
    payload.push(OP_REPLY);
    payload.push(u8::from(reply.degraded));
    payload.extend_from_slice(&(reply.decisions.len() as u32).to_le_bytes());
    for &d in &reply.decisions {
        payload.push(match d {
            Decision::Reject => 0,
            Decision::PrefetchLlc => 1,
            Decision::PrefetchL2 => 2,
        });
    }
    frame(payload)
}

/// Encodes a bare single-opcode frame ([`OP_PING`], [`OP_SHUTDOWN`],
/// [`OP_STATS`] as a request).
pub fn encode_op(op: u8) -> Vec<u8> {
    frame(vec![op])
}

/// Encodes a stats report into a full frame: `[OP_STATS][u32 len][utf8]`.
/// The report is JSONL text (counters snapshot, then span-table lines) —
/// stats are off the hot path, so a text payload costs nothing that
/// matters and keeps the report greppable.
pub fn encode_stats_reply(report: &str) -> Vec<u8> {
    let bytes = report.as_bytes();
    let mut payload = Vec::with_capacity(5 + bytes.len());
    payload.push(OP_STATS);
    payload.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    payload.extend_from_slice(bytes);
    frame(payload)
}

/// Decodes a stats-reply payload (opcode byte included). The report must
/// be UTF-8 and fill the payload exactly.
pub fn decode_stats_reply(payload: &[u8]) -> Result<String, DecodeError> {
    let need = needs(payload);
    need(0, 5)?;
    if payload[0] != OP_STATS {
        return Err(DecodeError::Opcode { want: OP_STATS, got: payload[0] });
    }
    let n = read_u32(payload, 1) as usize;
    need(5, n)?;
    no_trailing(payload, 5 + n)?;
    String::from_utf8(payload[5..].to_vec()).map_err(|_| DecodeError::NotUtf8)
}

fn frame(payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend(payload);
    out
}

/// Why a frame failed to decode. The server closes a connection whose
/// score frame fails; the client reports a failed reply as
/// `io::ErrorKind::InvalidData`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The frame ends before a field it declares.
    Truncated {
        /// Bytes the field needs.
        need: usize,
        /// Offset the field starts at.
        at: usize,
        /// Payload length.
        have: usize,
    },
    /// Bytes follow the last field the frame declares.
    Trailing {
        /// Offset the last declared field ends at.
        at: usize,
        /// Payload length.
        have: usize,
    },
    /// The first byte is not the opcode this decoder reads.
    Opcode {
        /// The opcode the decoder expects.
        want: u8,
        /// The opcode the frame carries.
        got: u8,
    },
    /// A declared element count exceeds the frame budget.
    Oversized {
        /// `"candidate"` or `"address"`.
        what: &'static str,
        /// The declared count.
        count: usize,
    },
    /// The tenant name fails [`valid_tenant`].
    TenantName,
    /// A reply's status byte is neither `0` (scored) nor `1` (degraded).
    Status(u8),
    /// A reply's decision byte is not `0`, `1` or `2`.
    DecisionByte(u8),
    /// A stats report is not UTF-8.
    NotUtf8,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { need, at, have } => {
                write!(f, "truncated frame: need {need} bytes at {at}, have {have}")
            }
            DecodeError::Trailing { at, have } => {
                write!(f, "trailing bytes: the frame ends at {at}, have {have}")
            }
            DecodeError::Opcode { want, got } => write!(f, "expected opcode {want}, got {got}"),
            DecodeError::Oversized { what, count } => {
                write!(f, "{what} count {count} exceeds frame budget")
            }
            DecodeError::TenantName => {
                write!(f, "tenant name must be non-empty printable ASCII with no '\"' or '\\'")
            }
            DecodeError::Status(b) => write!(f, "unknown reply status byte {b}"),
            DecodeError::DecisionByte(b) => write!(f, "unknown decision byte {b}"),
            DecodeError::NotUtf8 => write!(f, "stats report is not UTF-8"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// The bounds check every decoder runs before reading a field: `need`
/// bytes at offset `at` must lie inside `payload`.
fn needs(payload: &[u8]) -> impl Fn(usize, usize) -> Result<(), DecodeError> + '_ {
    move |at, need| {
        if at.checked_add(need).is_none_or(|end| end > payload.len()) {
            Err(DecodeError::Truncated { need, at, have: payload.len() })
        } else {
            Ok(())
        }
    }
}

/// Refuses bytes after offset `end`, where the last declared field ends.
fn no_trailing(payload: &[u8], end: usize) -> Result<(), DecodeError> {
    if payload.len() > end {
        return Err(DecodeError::Trailing { at: end, have: payload.len() });
    }
    Ok(())
}

/// Whether the daemon accepts `name` as a tenant: non-empty printable ASCII
/// with no `"` or `\`, since checkpoint records carry it unescaped.
pub fn valid_tenant(name: &str) -> bool {
    !name.is_empty() && name.bytes().all(|b| b.is_ascii_graphic() && b != b'"' && b != b'\\')
}

/// Decodes a score-request payload (opcode byte included). Every length is
/// bounds-checked, the tenant name must pass [`valid_tenant`], and the
/// evictions list must end the payload; a malformed frame is an error,
/// never a panic.
pub fn decode_score(payload: &[u8]) -> Result<ScoreRequest, DecodeError> {
    let need = needs(payload);
    need(0, 3)?;
    if payload[0] != OP_SCORE {
        return Err(DecodeError::Opcode { want: OP_SCORE, got: payload[0] });
    }
    let name_len = read_u16(payload, 1) as usize;
    need(3, name_len)?;
    let tenant = std::str::from_utf8(&payload[3..3 + name_len])
        .ok()
        .filter(|t| valid_tenant(t))
        .ok_or(DecodeError::TenantName)?
        .to_string();
    let mut at = 3 + name_len;

    need(at, 4)?;
    let ncand = read_u32(payload, at) as usize;
    at += 4;
    if ncand > MAX_FRAME / CANDIDATE_BYTES {
        return Err(DecodeError::Oversized { what: "candidate", count: ncand });
    }
    need(at, ncand * CANDIDATE_BYTES)?;
    let mut candidates = Vec::with_capacity(ncand);
    for _ in 0..ncand {
        candidates.push(decode_candidate(payload, at));
        at += CANDIDATE_BYTES;
    }

    let addrs = |at: &mut usize| -> Result<Vec<u64>, DecodeError> {
        need(*at, 4)?;
        let n = read_u32(payload, *at) as usize;
        *at += 4;
        if n > MAX_FRAME / 8 {
            return Err(DecodeError::Oversized { what: "address", count: n });
        }
        need(*at, n * 8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(read_u64(payload, *at));
            *at += 8;
        }
        Ok(out)
    };
    let demands = addrs(&mut at)?;
    let evictions = addrs(&mut at)?;
    no_trailing(payload, at)?;
    Ok(ScoreRequest { tenant, candidates, demands, evictions })
}

/// Decodes a reply payload (opcode byte included): a status byte of `0`
/// or `1`, then exactly the declared number of decision bytes.
pub fn decode_reply(payload: &[u8]) -> Result<ScoreReply, DecodeError> {
    let need = needs(payload);
    need(0, 6)?;
    if payload[0] != OP_REPLY {
        return Err(DecodeError::Opcode { want: OP_REPLY, got: payload[0] });
    }
    let degraded = match payload[1] {
        0 => false,
        1 => true,
        other => return Err(DecodeError::Status(other)),
    };
    let n = read_u32(payload, 2) as usize;
    need(6, n)?;
    no_trailing(payload, 6 + n)?;
    let decisions = payload[6..]
        .iter()
        .map(|&b| match b {
            0 => Ok(Decision::Reject),
            1 => Ok(Decision::PrefetchLlc),
            2 => Ok(Decision::PrefetchL2),
            other => Err(DecodeError::DecisionByte(other)),
        })
        .collect::<Result<_, _>>()?;
    Ok(ScoreReply { degraded, decisions })
}

/// The payload length a frame's 4-byte prefix declares, refused over
/// [`MAX_FRAME`] before anything is allocated for it.
fn frame_len(prefix: [u8; 4]) -> std::io::Result<usize> {
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds {MAX_FRAME}"),
        ));
    }
    Ok(len)
}

/// Reads one frame's payload from a stream. `Ok(None)` on clean EOF at a
/// frame boundary. It reads exactly one frame's bytes and no more; a
/// long-lived stream is better served by a [`FrameReader`].
pub fn read_frame(r: &mut impl std::io::Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut prefix[got..])? {
            0 if got == 0 => return Ok(None),
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "EOF inside frame length",
                ))
            }
            n => got += n,
        }
    }
    let mut payload = vec![0u8; frame_len(prefix)?];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Bytes a [`FrameReader`] asks the stream for at least, per read.
const READ_CHUNK: usize = 8 << 10;

/// An incremental frame reader: it keeps a partial frame across reads
/// that return early (a read timeout, a short read), and hands out every
/// frame one read brought in. A request or reply fits one chunk, so each
/// frame usually costs a single `read` call.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Unconsumed bytes are `buf[head..tail]`.
    head: usize,
    tail: usize,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether unconsumed bytes are buffered; once [`Self::next_frame`]
    /// has returned `None`, they are part of a frame.
    pub fn has_partial(&self) -> bool {
        self.head < self.tail
    }

    /// The declared length of the frame at the front of the buffer, once
    /// its prefix is in.
    fn front_len(&self) -> std::io::Result<Option<usize>> {
        match self.buf.get(self.head..self.tail).and_then(|b| b.get(..4)) {
            Some(prefix) => frame_len(prefix.try_into().expect("4 bytes")).map(Some),
            None => Ok(None),
        }
    }

    /// Where the next complete buffered frame's payload lies, consuming it.
    fn next_range(&mut self) -> std::io::Result<Option<std::ops::Range<usize>>> {
        let Some(len) = self.front_len()? else { return Ok(None) };
        let start = self.head + 4;
        if self.tail - start < len {
            return Ok(None);
        }
        self.head = start + len;
        Ok(Some(start..start + len))
    }

    /// The next complete buffered frame's payload, if one is buffered.
    /// A length prefix over [`MAX_FRAME`] is an error.
    pub fn next_frame(&mut self) -> std::io::Result<Option<&[u8]>> {
        Ok(self.next_range()?.map(|r| &self.buf[r]))
    }

    /// One `read` call into the buffer, after making room for the frame
    /// being assembled. Returns the byte count; `Ok(0)` is EOF. Errors,
    /// timeouts included, leave the buffered bytes in place.
    pub fn fill(&mut self, r: &mut impl std::io::Read) -> std::io::Result<usize> {
        let buffered = self.tail - self.head;
        let want = self
            .front_len()?
            .map_or(0, |len| 4 + len)
            .max(buffered + 1)
            .max(READ_CHUNK);
        if self.buf.len() - self.head < want {
            self.buf.copy_within(self.head..self.tail, 0);
            self.head = 0;
            self.tail = buffered;
            if self.buf.len() < want {
                self.buf.resize(want, 0);
            }
        }
        let n = r.read(&mut self.buf[self.tail..])?;
        self.tail += n;
        Ok(n)
    }

    /// Blocks until the next frame arrives: `Ok(None)` on EOF at a frame
    /// boundary, an `UnexpectedEof` error on EOF inside a frame.
    pub fn read_frame(&mut self, r: &mut impl std::io::Read) -> std::io::Result<Option<&[u8]>> {
        loop {
            if let Some(range) = self.next_range()? {
                return Ok(Some(&self.buf[range]));
            }
            match self.fill(r) {
                Ok(0) if self.has_partial() => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "EOF inside frame",
                    ))
                }
                Ok(0) => return Ok(None),
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppf_trace::mutate;

    fn sample_request() -> ScoreRequest {
        let inputs = FeatureInputs {
            trigger_addr: 0xDEAD_BEEF_0000,
            trigger_pc: 0x40_1234,
            pc_1: 1,
            pc_2: 2,
            pc_3: 3,
            signature: 0x3FF,
            last_signature: 0x155,
            delta: -42,
            confidence: 99,
            depth: 7,
            source: 0,
        };
        ScoreRequest {
            tenant: "t000-619.lbm_s".into(),
            candidates: vec![
                Candidate { inputs, target: 0xAAAA_0000 },
                Candidate { inputs: FeatureInputs::default(), target: 0xBBBB_0000 },
            ],
            demands: vec![0xAAAA_0000, 0xCCCC_0000],
            evictions: vec![0xBBBB_0000],
        }
    }

    #[test]
    fn score_request_round_trips() {
        let req = sample_request();
        let framed = encode_score(&req);
        let len = u32::from_le_bytes(framed[..4].try_into().unwrap()) as usize;
        assert_eq!(len, framed.len() - 4);
        let decoded = decode_score(&framed[4..]).expect("decodes");
        assert_eq!(decoded, req);
    }

    /// A score payload with raw tenant-name bytes and no candidates.
    fn payload_named(name: &[u8]) -> Vec<u8> {
        let mut p = vec![OP_SCORE];
        p.extend_from_slice(&(name.len() as u16).to_le_bytes());
        p.extend_from_slice(name);
        p.extend_from_slice(&[0; 12]);
        p
    }

    #[test]
    fn tenant_names_that_could_forge_checkpoint_fields_are_refused() {
        let crafted = br#"t000-x","gen":9,"weights":"ff"#;
        assert_eq!(decode_score(&payload_named(crafted)), Err(DecodeError::TenantName));
        // One name per forbidden byte class: empty, space, control, DEL,
        // non-ASCII UTF-8, invalid UTF-8, quote, backslash.
        for name in [
            &b""[..],
            b"t000 a",
            b"t000\na",
            b"t000\x7fa",
            "t000-\u{e9}".as_bytes(),
            b"t000-\xff",
            b"t000\"a",
            b"t000\\a",
        ] {
            assert_eq!(
                decode_score(&payload_named(name)),
                Err(DecodeError::TenantName),
                "{name:?} must be refused"
            );
        }
        assert_eq!(decode_score(&payload_named(b"t000-a")).unwrap().tenant, "t000-a");
    }

    #[test]
    fn every_replay_tenant_name_is_accepted() {
        use ppf_trace::{MultiTenantReplay, Suite, Workload};
        for suite in [Suite::Spec2017, Suite::Spec2006, Suite::CloudSuite] {
            let n = Workload::memory_intensive(suite).len();
            for name in MultiTenantReplay::new(suite, n, 1, 0).tenant_names() {
                let req = ScoreRequest { tenant: name.clone(), ..sample_request() };
                assert_eq!(decode_score(&encode_score(&req)[4..]), Ok(req), "{name}");
            }
        }
    }

    #[test]
    fn candidate_encoding_is_exactly_56_bytes() {
        let mut buf = Vec::new();
        encode_candidate(&mut buf, &sample_request().candidates[0]);
        assert_eq!(buf.len(), CANDIDATE_BYTES);
    }

    #[test]
    fn reply_round_trips() {
        let reply = ScoreReply {
            degraded: false,
            decisions: vec![Decision::PrefetchL2, Decision::Reject, Decision::PrefetchLlc],
        };
        let framed = encode_reply(&reply);
        assert_eq!(decode_reply(&framed[4..]).unwrap(), reply);
        let deg = ScoreReply::degraded(2);
        let framed = encode_reply(&deg);
        let back = decode_reply(&framed[4..]).unwrap();
        assert!(back.degraded);
        assert_eq!(back.decisions, vec![Decision::PrefetchL2; 2]);
    }

    /// A second, differently shaped request to splice with the sample.
    fn other_request() -> ScoreRequest {
        ScoreRequest {
            tenant: "t12-a".into(),
            candidates: vec![sample_request().candidates[1]],
            demands: vec![],
            evictions: vec![0xDDDD_0000, 0xEEEE_0000, 0xFFFF_0000],
        }
    }

    /// Every bit flip of `a` and every splice of `a` with `b`; prefixes
    /// have their own, stricter oracle.
    fn mutants<'a>(a: &'a [u8], b: &'a [u8]) -> impl Iterator<Item = Vec<u8>> + 'a {
        mutate::bit_flips(a).chain(mutate::splices(a, b))
    }

    #[test]
    fn truncated_frames_error_not_panic() {
        let (framed, other) = (encode_score(&sample_request()), encode_score(&other_request()));
        for cut in mutate::prefixes(&framed[4..]) {
            assert!(decode_score(cut).is_err(), "prefix of {} bytes decoded", cut.len());
        }
        // A mutant that decodes is exactly the canonical encoding of what
        // it decoded to: no byte is ignored.
        for bad in mutants(&framed[4..], &other[4..]) {
            if let Ok(req) = decode_score(&bad) {
                assert_eq!(bad, encode_score(&req)[4..], "{bad:02x?} -> {req:?}");
            }
        }
        assert!(decode_score(&[]).is_err());
        assert!(decode_reply(&[OP_REPLY, 0, 9, 0, 0, 0]).is_err());
        let reply = encode_reply(&ScoreReply {
            degraded: false,
            decisions: vec![Decision::PrefetchL2, Decision::Reject, Decision::PrefetchLlc],
        });
        let other = encode_reply(&ScoreReply::degraded(1));
        for cut in mutate::prefixes(&reply[4..]) {
            assert!(decode_reply(cut).is_err(), "prefix of {} bytes decoded", cut.len());
        }
        for bad in mutants(&reply[4..], &other[4..]) {
            if let Ok(r) = decode_reply(&bad) {
                assert_eq!(bad, encode_reply(&r)[4..], "{bad:?} -> {r:?}");
            }
        }
    }

    #[test]
    fn decoders_refuse_trailing_bytes_and_unknown_status() {
        let mut score = encode_score(&sample_request())[4..].to_vec();
        let end = score.len();
        score.push(0);
        assert_eq!(decode_score(&score), Err(DecodeError::Trailing { at: end, have: end + 1 }));
        let mut reply = encode_reply(&ScoreReply::degraded(2))[4..].to_vec();
        reply.push(2);
        assert_eq!(decode_reply(&reply), Err(DecodeError::Trailing { at: 8, have: 9 }));
        reply.pop();
        reply[1] = 2;
        assert_eq!(decode_reply(&reply), Err(DecodeError::Status(2)));
        reply[1] = 0;
        reply[7] = 3;
        assert_eq!(decode_reply(&reply), Err(DecodeError::DecisionByte(3)));
        let mut stats = encode_stats_reply("{}")[4..].to_vec();
        stats.push(b'\n');
        assert_eq!(decode_stats_reply(&stats), Err(DecodeError::Trailing { at: 7, have: 8 }));
        assert_eq!(
            decode_stats_reply(&[OP_STATS, 1, 0, 0, 0, 0xff]),
            Err(DecodeError::NotUtf8)
        );
        assert_eq!(
            decode_reply(&encode_op(OP_PING)[4..]),
            Err(DecodeError::Truncated { need: 6, at: 0, have: 1 })
        );
        assert_eq!(
            decode_stats_reply(&encode_reply(&ScoreReply::degraded(0))[4..]),
            Err(DecodeError::Opcode { want: OP_STATS, got: OP_REPLY })
        );
    }

    #[test]
    fn stats_reply_round_trips_and_rejects_truncation() {
        let report = "{\"v\":1,\"requests\":3}\n{\"v\":1,\"span\":15,\"shard\":0}\n";
        let framed = encode_stats_reply(report);
        assert_eq!(decode_stats_reply(&framed[4..]).unwrap(), report);
        for cut in mutate::prefixes(&framed[4..]) {
            assert!(decode_stats_reply(cut).is_err(), "prefix of {} bytes decoded", cut.len());
        }
        let other = encode_stats_reply("{}");
        for bad in mutants(&framed[4..], &other[4..]) {
            if let Ok(text) = decode_stats_reply(&bad) {
                assert_eq!(bad, encode_stats_reply(&text)[4..], "{bad:?}");
            }
        }
        assert!(decode_stats_reply(&[]).is_err());
        assert!(decode_stats_reply(&[OP_STATS, 9, 0, 0, 0]).is_err());
        assert_eq!(decode_stats_reply(&encode_stats_reply("")[4..]).unwrap(), "");
    }

    #[test]
    fn frames_read_back_from_a_stream() {
        let mut bytes = encode_score(&sample_request());
        bytes.extend(encode_op(OP_PING));
        let mut cursor = std::io::Cursor::new(bytes);
        let first = read_frame(&mut cursor).unwrap().expect("frame 1");
        assert_eq!(first[0], OP_SCORE);
        let second = read_frame(&mut cursor).unwrap().expect("frame 2");
        assert_eq!(second, vec![OP_PING]);
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    /// Hands out the non-empty `chunks` one read at a time, with a
    /// `WouldBlock` (a read timeout) between every two, then EOF.
    struct Chunked<'a> {
        chunks: Vec<&'a [u8]>,
        stalled: bool,
    }

    impl std::io::Read for Chunked<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if self.chunks.is_empty() {
                return Ok(0);
            }
            self.stalled = !self.stalled;
            if !self.stalled {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let chunk = &mut self.chunks[0];
            let n = chunk.len().min(out.len());
            out[..n].copy_from_slice(&chunk[..n]);
            *chunk = &chunk[n..];
            if chunk.is_empty() {
                self.chunks.remove(0);
            }
            Ok(n)
        }
    }

    /// Every frame a reader gets out of `r`, riding out `WouldBlock`s,
    /// up to a clean close.
    fn drain(r: &mut impl std::io::Read) -> std::io::Result<Vec<Vec<u8>>> {
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        loop {
            match reader.read_frame(r) {
                Ok(Some(payload)) => frames.push(payload.to_vec()),
                Ok(None) => return Ok(frames),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(e),
            }
        }
    }

    #[test]
    fn frame_reader_yields_the_same_frames_at_every_split_point() {
        let first = encode_score(&sample_request());
        let second = encode_op(OP_PING);
        let stream = [first.clone(), second.clone()].concat();
        let want = vec![first[4..].to_vec(), second[4..].to_vec()];
        for cut in 0..=stream.len() {
            let (head, tail) = stream.split_at(cut);
            let chunks = [head, tail].into_iter().filter(|c| !c.is_empty()).collect();
            let mut r = Chunked { chunks, stalled: false };
            assert_eq!(drain(&mut r).unwrap(), want, "split at {cut}");
        }
    }

    #[test]
    fn frame_reader_refuses_an_oversized_prefix_before_allocating() {
        let bytes = (MAX_FRAME as u32 + 1).to_le_bytes();
        let mut reader = FrameReader::new();
        let mut r = Chunked { chunks: vec![&bytes[..], &[0; 8][..]], stalled: false };
        assert_eq!(reader.fill(&mut r).unwrap(), 4);
        let err = reader.next_frame().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // The next fill refuses to make room for the frame at all.
        assert_eq!(reader.fill(&mut r).unwrap_err().kind(), std::io::ErrorKind::InvalidData);
        assert!(reader.buf.len() <= READ_CHUNK, "grew to {}", reader.buf.len());
    }

    #[test]
    fn frame_reader_tells_a_torn_frame_from_a_clean_close() {
        let stream = [encode_score(&sample_request()), encode_op(OP_PING)].concat();
        let mut whole = std::io::Cursor::new(&stream);
        assert_eq!(drain(&mut whole).unwrap().len(), 2, "EOF at a boundary is a clean close");
        for cut in mutate::prefixes(&stream).skip(1).filter(|c| c.len() != stream.len() - 5) {
            let mut torn = std::io::Cursor::new(cut);
            let err = drain(&mut torn).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "cut at {}", cut.len());
        }
        // A splice with another stream yields whole frames read from its
        // front, then a clean close, a torn frame or an oversized prefix.
        let other =
            [encode_reply(&ScoreReply::degraded(3)), encode_score(&other_request())].concat();
        for spliced in mutate::splices(&stream, &other) {
            let mut reader = FrameReader::new();
            let mut cursor = std::io::Cursor::new(&spliced);
            let mut at = 0;
            let end = loop {
                match reader.read_frame(&mut cursor) {
                    Ok(Some(payload)) => {
                        assert_eq!(spliced[at..at + 4], (payload.len() as u32).to_le_bytes());
                        assert_eq!(&spliced[at + 4..at + 4 + payload.len()], payload);
                        at += 4 + payload.len();
                    }
                    Ok(None) => break None,
                    Err(e) => break Some(e.kind()),
                }
            };
            match end {
                None => assert_eq!(at, spliced.len()),
                Some(kind) => assert!(
                    matches!(
                        kind,
                        std::io::ErrorKind::UnexpectedEof | std::io::ErrorKind::InvalidData
                    ),
                    "{kind:?}"
                ),
            }
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut bytes = (MAX_FRAME as u32 + 1).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 8]);
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(read_frame(&mut cursor).is_err());
    }
}
