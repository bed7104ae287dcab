//! Ready-made [`Case`] types for the workspace's codecs and runtime.
//!
//! Each type pairs a JSON encoding (for corpus persistence) with a
//! shrink strategy tuned to its domain: error lists lose one entry at a
//! time, payloads collapse to all-zeros, bit masks collapse to a single
//! bit, JSON trees lose children and promote grandchildren. Generation
//! stays in the tests (a closure over the runner's `StdRng`) because the
//! interesting distributions are code-parameter-specific.

use pmck_rt::Json;

use crate::runner::Case;

fn array_to_json<T: Copy + Into<Json>>(values: &[T]) -> Json {
    Json::Arr(values.iter().map(|&v| v.into()).collect())
}

fn bytes_from_json(value: &Json) -> Option<Vec<u8>> {
    value
        .as_array()?
        .iter()
        .map(|v| v.as_u64().and_then(|n| u8::try_from(n).ok()))
        .collect()
}

fn usizes_from_json(value: &Json) -> Option<Vec<usize>> {
    value
        .as_array()?
        .iter()
        .map(|v| v.as_u64().and_then(|n| usize::try_from(n).ok()))
        .collect()
}

fn errors_to_json(errors: &[(usize, u8)]) -> Json {
    Json::Arr(
        errors
            .iter()
            .map(|&(p, m)| array_to_json(&[p, m.into()]))
            .collect(),
    )
}

fn errors_from_json(value: &Json) -> Option<Vec<(usize, u8)>> {
    value
        .as_array()?
        .iter()
        .map(|pair| {
            let pair = pair.as_array()?;
            if pair.len() != 2 {
                return None;
            }
            let p = pair[0].as_u64().and_then(|n| usize::try_from(n).ok())?;
            let m = pair[1].as_u64().and_then(|n| u8::try_from(n).ok())?;
            Some((p, m))
        })
        .collect()
}

/// Two field elements; the case shape for GF(2^m) algebraic laws.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldPairCase {
    /// First operand.
    pub a: u32,
    /// Second operand.
    pub b: u32,
}

impl Case for FieldPairCase {
    fn to_json(&self) -> Json {
        Json::object()
            .with("a", self.a as u64)
            .with("b", self.b as u64)
    }

    fn from_json(value: &Json) -> Option<Self> {
        Some(FieldPairCase {
            a: value.get("a")?.as_u64()? as u32,
            b: value.get("b")?.as_u64()? as u32,
        })
    }

    fn shrink(&self) -> Vec<Self> {
        let (a, b) = (self.a, self.b);
        let mut out = Vec::new();
        for (a, b) in [(0, b), (a, 0), (a / 2, b), (a, b / 2)] {
            let cand = FieldPairCase { a, b };
            if cand != *self && !out.contains(&cand) {
                out.push(cand);
            }
        }
        out
    }
}

/// A data payload plus symbol-error XOR masks; the case shape for
/// RS(72, 64) random-error properties. `errors` positions index the
/// codeword (`encode(data)`), masks are the XOR applied there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByteErrorCase {
    /// The data symbols handed to `encode`.
    pub data: Vec<u8>,
    /// `(codeword position, xor mask)` pairs; masks should be nonzero.
    pub errors: Vec<(usize, u8)>,
}

impl ByteErrorCase {
    /// The codeword `encode(data)` with every error mask applied.
    pub fn corrupted(&self, code: &pmck_rs::RsCode) -> Vec<u8> {
        let mut word = code.encode(&self.data);
        let n = word.len();
        for &(p, m) in &self.errors {
            word[p % n] ^= m;
        }
        word
    }
}

impl Case for ByteErrorCase {
    fn to_json(&self) -> Json {
        Json::object()
            .with("data", array_to_json(&self.data))
            .with("errors", errors_to_json(&self.errors))
    }

    fn from_json(value: &Json) -> Option<Self> {
        Some(ByteErrorCase {
            data: bytes_from_json(value.get("data")?)?,
            errors: errors_from_json(value.get("errors")?)?,
        })
    }

    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        for i in 0..self.errors.len() {
            let mut cand = self.clone();
            cand.errors.remove(i);
            out.push(cand);
        }
        if self.data.iter().any(|&b| b != 0) {
            let mut cand = self.clone();
            cand.data = vec![0; self.data.len()];
            out.push(cand);
        }
        for (i, &(p, m)) in self.errors.iter().enumerate() {
            let lowest = m & m.wrapping_neg();
            if lowest != m && lowest != 0 {
                let mut cand = self.clone();
                cand.errors[i] = (p, lowest);
                out.push(cand);
            }
        }
        out
    }
}

/// A data payload, declared erasures with the garbage found there, and
/// optional extra (undeclared) errors; the case shape for RS erasure
/// properties.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErasureCase {
    /// The data symbols handed to `encode`.
    pub data: Vec<u8>,
    /// Declared erasure positions (distinct, in codeword coordinates).
    pub erasures: Vec<usize>,
    /// The byte *written over* each erased position (same length as
    /// `erasures`); models a dead chip returning garbage.
    pub fills: Vec<u8>,
    /// Undeclared `(position, xor mask)` errors outside the erasures.
    pub errors: Vec<(usize, u8)>,
}

impl ErasureCase {
    /// The codeword `encode(data)` with fills and errors applied.
    pub fn corrupted(&self, code: &pmck_rs::RsCode) -> Vec<u8> {
        let mut word = code.encode(&self.data);
        let n = word.len();
        for (&p, &fill) in self.erasures.iter().zip(&self.fills) {
            word[p % n] = fill;
        }
        for &(p, m) in &self.errors {
            word[p % n] ^= m;
        }
        word
    }
}

impl Case for ErasureCase {
    fn to_json(&self) -> Json {
        Json::object()
            .with("data", array_to_json(&self.data))
            .with("erasures", array_to_json(&self.erasures))
            .with("fills", array_to_json(&self.fills))
            .with("errors", errors_to_json(&self.errors))
    }

    fn from_json(value: &Json) -> Option<Self> {
        let case = ErasureCase {
            data: bytes_from_json(value.get("data")?)?,
            erasures: usizes_from_json(value.get("erasures")?)?,
            fills: bytes_from_json(value.get("fills")?)?,
            errors: errors_from_json(value.get("errors")?)?,
        };
        if case.fills.len() != case.erasures.len() {
            return None;
        }
        Some(case)
    }

    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        for i in 0..self.erasures.len() {
            let mut cand = self.clone();
            cand.erasures.remove(i);
            cand.fills.remove(i);
            out.push(cand);
        }
        for i in 0..self.errors.len() {
            let mut cand = self.clone();
            cand.errors.remove(i);
            out.push(cand);
        }
        if self.data.iter().any(|&b| b != 0) {
            let mut cand = self.clone();
            cand.data = vec![0; self.data.len()];
            out.push(cand);
        }
        if self.fills.iter().any(|&b| b != 0) {
            let mut cand = self.clone();
            cand.fills = vec![0; self.fills.len()];
            out.push(cand);
        }
        out
    }
}

/// A data payload plus codeword bit-flip positions; the case shape for
/// BCH properties.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitFlipCase {
    /// The data bytes handed to `encode_bytes`.
    pub data: Vec<u8>,
    /// Distinct bit positions flipped in the codeword.
    pub flips: Vec<usize>,
}

impl BitFlipCase {
    /// The codeword `encode_bytes(data)` with every flip applied.
    pub fn corrupted(&self, code: &pmck_bch::BchCode) -> pmck_bch::BitPoly {
        let mut word = code.encode_bytes(&self.data);
        for &p in &self.flips {
            word.flip(p % code.len());
        }
        word
    }
}

impl Case for BitFlipCase {
    fn to_json(&self) -> Json {
        Json::object()
            .with("data", array_to_json(&self.data))
            .with("flips", array_to_json(&self.flips))
    }

    fn from_json(value: &Json) -> Option<Self> {
        Some(BitFlipCase {
            data: bytes_from_json(value.get("data")?)?,
            flips: usizes_from_json(value.get("flips")?)?,
        })
    }

    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        for i in 0..self.flips.len() {
            let mut cand = self.clone();
            cand.flips.remove(i);
            out.push(cand);
        }
        if self.data.iter().any(|&b| b != 0) {
            let mut cand = self.clone();
            cand.data = vec![0; self.data.len()];
            out.push(cand);
        }
        out
    }
}

/// A data word for the BCH encoder: zero but for `bytes`, laid at data
/// bit `bit_offset` in little-endian bit order. A dense word is offset 0
/// with `data_bits / 8` bytes; a §V-D write delta is 8 bytes at a
/// block's offset. The case shape for `bch:encode_differential`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodeCase {
    /// Data-bit index of bit 0 of `bytes[0]`.
    pub bit_offset: usize,
    /// The word's only (possibly) non-zero bytes.
    pub bytes: Vec<u8>,
}

impl Case for EncodeCase {
    fn to_json(&self) -> Json {
        Json::object()
            .with("bit_offset", self.bit_offset as u64)
            .with("bytes", array_to_json(&self.bytes))
    }

    fn from_json(value: &Json) -> Option<Self> {
        Some(EncodeCase {
            bit_offset: usize::try_from(value.get("bit_offset")?.as_u64()?).ok()?,
            bytes: bytes_from_json(value.get("bytes")?)?,
        })
    }

    fn shrink(&self) -> Vec<Self> {
        // Drop the last byte, or clear one set bit: the minimal
        // counterexample of a linear encoder is a single unit vector.
        let mut out = Vec::new();
        if self.bytes.len() > 1 {
            let mut cand = self.clone();
            cand.bytes.pop();
            out.push(cand);
        }
        if self.bytes.iter().map(|b| b.count_ones()).sum::<u32>() > 1 {
            for (i, &b) in self.bytes.iter().enumerate() {
                if b != 0 {
                    let mut cand = self.clone();
                    cand.bytes[i] = b & (b - 1);
                    out.push(cand);
                }
            }
        }
        out
    }
}

/// A batch of [`BitFlipCase`] words decoded together; the case shape for
/// the batched BCH decode API. The interesting region is mixed batches —
/// clean, correctable, and overweight words sharing one scratch — plus
/// the edges (empty batch, single word).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitFlipBatchCase {
    /// The words of the batch, in decode order.
    pub words: Vec<BitFlipCase>,
}

impl BitFlipBatchCase {
    /// The corrupted codewords of every entry, in order.
    pub fn corrupted(&self, code: &pmck_bch::BchCode) -> Vec<pmck_bch::BitPoly> {
        self.words.iter().map(|w| w.corrupted(code)).collect()
    }
}

impl Case for BitFlipBatchCase {
    fn to_json(&self) -> Json {
        let mut words = Json::array();
        for w in &self.words {
            words.push(w.to_json());
        }
        Json::object().with("words", words)
    }

    fn from_json(value: &Json) -> Option<Self> {
        Some(BitFlipBatchCase {
            words: value
                .get("words")?
                .as_array()?
                .iter()
                .map(BitFlipCase::from_json)
                .collect::<Option<Vec<_>>>()?,
        })
    }

    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        // Drop one word at a time, then shrink each word in place.
        for i in 0..self.words.len() {
            let mut cand = self.clone();
            cand.words.remove(i);
            out.push(cand);
        }
        for i in 0..self.words.len() {
            for shrunk in self.words[i].shrink() {
                let mut cand = self.clone();
                cand.words[i] = shrunk;
                out.push(cand);
            }
        }
        out
    }
}

/// A whole-chip failure plus one scattered symbol error on a *surviving*
/// chip; the case shape for engine-level chipkill-erasure properties.
///
/// The dead chip consumes all eight RS check symbols as erasures, so the
/// stray error on the survivor is only recoverable because the erasure
/// path decodes the survivors' VLEWs before reconstructing — exactly the
/// §V-C layering the property pins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChipkillErasureCase {
    /// The chip that fails outright (any of the nine, parity included).
    pub failed_chip: usize,
    /// A different, surviving chip carrying the scattered error.
    pub error_chip: usize,
    /// Block whose slice of `error_chip` takes the error.
    pub error_block: u64,
    /// Byte offset within the chip's 8-byte block slice.
    pub error_byte: usize,
    /// Nonzero XOR mask applied to that byte.
    pub error_mask: u8,
}

impl Case for ChipkillErasureCase {
    fn to_json(&self) -> Json {
        Json::object()
            .with("failed_chip", self.failed_chip as u64)
            .with("error_chip", self.error_chip as u64)
            .with("error_block", self.error_block)
            .with("error_byte", self.error_byte as u64)
            .with("error_mask", self.error_mask as u64)
    }

    fn from_json(value: &Json) -> Option<Self> {
        let field = |key: &str| value.get(key)?.as_u64();
        let index = |key: &str| usize::try_from(field(key)?).ok();
        let case = ChipkillErasureCase {
            failed_chip: index("failed_chip")?,
            error_chip: index("error_chip")?,
            error_block: field("error_block")?,
            error_byte: index("error_byte")?,
            error_mask: u8::try_from(field("error_mask")?).ok()?,
        };
        if case.failed_chip == case.error_chip || case.error_mask == 0 {
            return None;
        }
        Some(case)
    }

    fn shrink(&self) -> Vec<Self> {
        // One bit of the mask, byte 0, block 0: each where it changes.
        let mut cands = [self.clone(), self.clone(), self.clone()];
        cands[0].error_mask &= self.error_mask.wrapping_neg();
        cands[1].error_byte = 0;
        cands[2].error_block = 0;
        cands.into_iter().filter(|c| c != self).collect()
    }
}

/// The durable operation a [`CrashPlan`] cuts power inside.
///
/// Each kind names one intent-logged mutation of the persistence
/// domain: draining the EUR at a flush, a scrub repair-in-place over a
/// dead chip, a batch of Start-Gap moves, the §V-E re-stripe layout
/// flip, or a tier-policy migration re-encoding a region. The campaign
/// driver owns the mapping from kind to concrete request sequence; this
/// type only carries the name through JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashOp {
    /// Writes that populate the EUR, then the flush that drains it.
    EurDrain,
    /// A chip failure followed by scrub repair-in-place, then a flush.
    Repair,
    /// Writes that trigger Start-Gap moves, then a flush.
    StartGap,
    /// A chip failure checkpointed durably, then the re-stripe flip.
    Restripe,
    /// Unflushed writes riding a tier-policy migration's single fence.
    TierMigrate,
    /// Reads of a durably aged rank whose VLEW fallback writes the
    /// corrected stripe back, then the flush that persists the heal.
    ReadHeal,
}

impl CrashOp {
    /// Every operation the campaign covers.
    pub const ALL: [CrashOp; 6] = [
        CrashOp::EurDrain,
        CrashOp::Repair,
        CrashOp::StartGap,
        CrashOp::Restripe,
        CrashOp::TierMigrate,
        CrashOp::ReadHeal,
    ];

    /// Stable corpus name.
    pub fn name(self) -> &'static str {
        match self {
            CrashOp::EurDrain => "eur-drain",
            CrashOp::Repair => "repair",
            CrashOp::StartGap => "start-gap",
            CrashOp::Restripe => "restripe",
            CrashOp::TierMigrate => "tier-migrate",
            CrashOp::ReadHeal => "read-heal",
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        CrashOp::ALL.into_iter().find(|op| op.name() == name)
    }
}

/// One power-cut point inside a durable operation; the case shape for
/// the crash-recovery campaign.
///
/// `cut_step` indexes the fuse budget: the number of durable 8-byte
/// chunk writes that succeed before the media dies silently. The
/// campaign maps it into the operation's measured step space —
/// `from_end` anchors it to the *end* of the operation (`cut_step = 1`
/// with `from_end` cuts just before the final chunk, i.e. a torn
/// map-commit), which is how crafted corpus entries pin the dangerous
/// tail of a re-stripe regardless of the exact step count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashPlan {
    /// The durable operation under test.
    pub op: CrashOp,
    /// Workload seed (block fill pattern, stack RNG streams).
    pub seed: u64,
    /// Raw cut coordinate, mapped modulo the operation's step count.
    pub cut_step: u64,
    /// Anchor `cut_step` to the end of the operation instead of the
    /// start.
    pub from_end: bool,
}

impl Case for CrashPlan {
    fn to_json(&self) -> Json {
        Json::object()
            .with("op", self.op.name())
            .with("seed", self.seed)
            .with("cut_step", self.cut_step)
            .with("from_end", self.from_end)
    }

    fn from_json(value: &Json) -> Option<Self> {
        Some(CrashPlan {
            op: CrashOp::from_name(value.get("op")?.as_str()?)?,
            seed: value.get("seed")?.as_u64()?,
            cut_step: value.get("cut_step")?.as_u64()?,
            from_end: value.get("from_end")?.as_bool()?,
        })
    }

    fn shrink(&self) -> Vec<Self> {
        // The op and seed define the scenario; only the cut coordinate
        // shrinks, toward the start of the operation.
        let mut out = Vec::new();
        if self.from_end {
            out.push(self.clone());
            out[0].from_end = false;
        }
        let cut = |cut_step| CrashPlan {
            cut_step,
            ..self.clone()
        };
        match self.cut_step {
            0 => {}
            n => out.extend([cut(0), cut(n / 2), cut(n - 1)]),
        }
        out
    }
}

/// The disturbance a [`StreamPlan`] drives the replicated tier
/// through; the oracle (`pmck_bench::campaign`) turns it into topology
/// steps that single-node transports ignore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterScenario {
    /// No disturbance: pure replicated traffic.
    Clean,
    /// A node dies mid-campaign, is revived later, and must rebuild.
    NodeLoss,
    /// A node is suspended (slow replica) and resumed; anti-entropy
    /// heals what it missed.
    SlowReplica,
    /// A correlated fault progression on one node only — a row fault on
    /// a chip that later dies outright — racing local repair against
    /// remote read-repair.
    FaultMix,
}

impl ClusterScenario {
    /// Every scenario the campaign covers.
    pub const ALL: [ClusterScenario; 4] = [
        ClusterScenario::Clean,
        ClusterScenario::NodeLoss,
        ClusterScenario::SlowReplica,
        ClusterScenario::FaultMix,
    ];

    /// Stable corpus name.
    pub fn name(self) -> &'static str {
        match self {
            ClusterScenario::Clean => "clean",
            ClusterScenario::NodeLoss => "node-loss",
            ClusterScenario::SlowReplica => "slow-replica",
            ClusterScenario::FaultMix => "fault-mix",
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        ClusterScenario::ALL.into_iter().find(|s| s.name() == name)
    }
}

/// One seeded request stream, the case shape of the request-stream
/// oracle: every transport replays the same stream and must agree with
/// one mirror (and a sharded service with its per-shard replay).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamPlan {
    /// The disturbance under test.
    pub scenario: ClusterScenario,
    /// Seed of the stream and of every system it runs on.
    pub seed: u64,
    /// Stream length before the closing read-back; scenario events
    /// anchor to fixed fractions of it.
    pub cycles: u64,
    /// Persistent media: the stream flushes, cuts power and recovers.
    pub persistent: bool,
}

impl Case for StreamPlan {
    fn to_json(&self) -> Json {
        Json::object()
            .with("scenario", self.scenario.name())
            .with("seed", self.seed)
            .with("cycles", self.cycles)
            .with("persistent", self.persistent)
    }

    fn from_json(value: &Json) -> Option<Self> {
        Some(StreamPlan {
            scenario: ClusterScenario::from_name(value.get("scenario")?.as_str()?)?,
            seed: value.get("seed")?.as_u64()?,
            cycles: value.get("cycles")?.as_u64()?,
            persistent: value.get("persistent").and_then(Json::as_bool) == Some(true),
        })
    }

    fn shrink(&self) -> Vec<Self> {
        // The scenario and seed define the run; only the stream
        // shrinks, toward an immediate disturbance.
        let shorter = |cycles| StreamPlan {
            cycles,
            ..self.clone()
        };
        match self.cycles {
            0 => Vec::new(),
            n => vec![shorter(0), shorter(n / 2), shorter(n - 1)],
        }
    }
}

/// An arbitrary JSON value tree; the case shape for `pmck_rt::json`
/// round-trip properties.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonCase(pub Json);

impl JsonCase {
    /// Generates a random value tree of depth at most `depth`, using
    /// only values that survive a text round trip exactly (floats keep
    /// a fractional part so they re-parse as floats, strings draw from
    /// a palette heavy in escapes and multi-byte characters).
    pub fn generate<R: pmck_rt::Rng + ?Sized>(rng: &mut R, depth: u32) -> JsonCase {
        JsonCase(gen_value(rng, depth))
    }
}

/// Characters heavy in escapes and multi-byte encodings.
const STRING_PALETTE: &str = "abz0 \"\\/\n\r\t\u{8}\u{c}\u{1}\u{7f}éΩ→🦀\u{10FFFF}";

/// A string of up to `max_len - 1` palette characters.
fn gen_string<R: pmck_rt::Rng + ?Sized>(rng: &mut R, max_len: usize) -> String {
    let palette: Vec<char> = STRING_PALETTE.chars().collect();
    let len = rng.gen_range(0usize..max_len);
    (0..len)
        .map(|_| palette[rng.gen_range(0usize..palette.len())])
        .collect()
}

fn gen_value<R: pmck_rt::Rng + ?Sized>(rng: &mut R, depth: u32) -> Json {
    let top = if depth == 0 { 6 } else { 8 };
    match rng.gen_range(0u32..top) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 => Json::I64(rng.gen_range(-1_000_000i64..0)),
        3 => Json::U64(if rng.gen_bool(0.2) {
            u64::MAX - rng.gen_range(0u64..4)
        } else {
            rng.gen_range(0u64..1_000_000)
        }),
        // Always fractional, exactly representable: round trips as F64.
        4 => Json::F64(rng.gen_range(-100_000i64..100_000) as f64 + 0.5),
        5 => Json::Str(gen_string(rng, 12)),
        6 => {
            let len = rng.gen_range(0usize..5);
            Json::Arr((0..len).map(|_| gen_value(rng, depth - 1)).collect())
        }
        _ => {
            let len = rng.gen_range(0usize..5);
            Json::Obj(
                (0..len)
                    .map(|i| {
                        let mut key = gen_string(rng, 6);
                        // Duplicate keys are legal JSON but ambiguous for
                        // `get`; suffix with the index to keep them unique.
                        key.push_str(&i.to_string());
                        (key, gen_value(rng, depth - 1))
                    })
                    .collect(),
            )
        }
    }
}

fn shrink_value(value: &Json) -> Vec<Json> {
    let mut out = Vec::new();
    match value {
        Json::Null => {}
        Json::Bool(_) => out.push(Json::Null),
        Json::I64(n) => {
            out.push(Json::Null);
            if *n != 0 {
                out.push(Json::I64(0));
            }
        }
        Json::U64(n) => {
            out.push(Json::Null);
            if *n != 0 {
                out.push(Json::U64(0));
            }
        }
        Json::F64(x) => {
            out.push(Json::Null);
            if *x != 0.5 {
                out.push(Json::F64(0.5));
            }
        }
        Json::Str(s) => {
            out.push(Json::Null);
            if !s.is_empty() {
                out.push(Json::Str(String::new()));
                let half: String = s.chars().take(s.chars().count() / 2).collect();
                out.push(Json::Str(half));
            }
        }
        Json::Arr(items) => {
            out.push(Json::Null);
            for i in 0..items.len() {
                let mut a = items.clone();
                a.remove(i);
                out.push(Json::Arr(a));
            }
            // Promote each child, then shrink children in place.
            out.extend(items.iter().cloned());
            for i in 0..items.len() {
                for cand in shrink_value(&items[i]) {
                    let mut a = items.clone();
                    a[i] = cand;
                    out.push(Json::Arr(a));
                }
            }
        }
        Json::Obj(entries) => {
            out.push(Json::Null);
            for i in 0..entries.len() {
                let mut e = entries.clone();
                e.remove(i);
                out.push(Json::Obj(e));
            }
            out.extend(entries.iter().map(|(_, v)| v.clone()));
            for i in 0..entries.len() {
                for cand in shrink_value(&entries[i].1) {
                    let mut e = entries.clone();
                    e[i].1 = cand;
                    out.push(Json::Obj(e));
                }
            }
        }
    }
    out
}

impl Case for JsonCase {
    fn to_json(&self) -> Json {
        // Wrap the value so `null` cases still have a payload object.
        Json::object().with("value", self.0.clone())
    }

    fn from_json(value: &Json) -> Option<Self> {
        value.get("value").cloned().map(JsonCase)
    }

    fn shrink(&self) -> Vec<Self> {
        shrink_value(&self.0).into_iter().map(JsonCase).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmck_rt::rng::StdRng;

    #[test]
    fn byte_error_case_round_trips_through_json() {
        let case = ByteErrorCase {
            data: vec![1, 2, 3],
            errors: vec![(0, 0x80), (70, 1)],
        };
        assert_eq!(ByteErrorCase::from_json(&case.to_json()), Some(case));
    }

    #[test]
    fn erasure_case_round_trips_and_validates_fill_length() {
        let case = ErasureCase {
            data: vec![9; 4],
            erasures: vec![1, 5],
            fills: vec![0xaa, 0xbb],
            errors: vec![(3, 4)],
        };
        assert_eq!(ErasureCase::from_json(&case.to_json()), Some(case.clone()));
        let mut bad = case.to_json();
        bad.set("fills", array_to_json(&[1]));
        assert_eq!(ErasureCase::from_json(&bad), None);
    }

    #[test]
    fn bit_flip_case_round_trips_through_json() {
        let case = BitFlipCase {
            data: vec![0xff; 8],
            flips: vec![0, 17, 2311],
        };
        assert_eq!(BitFlipCase::from_json(&case.to_json()), Some(case));
    }

    #[test]
    fn encode_case_round_trips_and_shrinks_to_a_unit_vector() {
        let case = EncodeCase {
            bit_offset: 1957,
            bytes: vec![0x81, 0x00, 0x10],
        };
        assert_eq!(EncodeCase::from_json(&case.to_json()), Some(case.clone()));
        let shrunk = case.shrink();
        assert!(shrunk.iter().any(|c| c.bytes == [0x81, 0x00]));
        assert!(shrunk.iter().any(|c| c.bytes == [0x80, 0x00, 0x10]));
        let unit = EncodeCase {
            bit_offset: 0,
            bytes: vec![0x40],
        };
        assert!(unit.shrink().is_empty());
    }

    #[test]
    fn shrink_removes_one_error_at_a_time() {
        let case = ByteErrorCase {
            data: vec![0; 4],
            errors: vec![(0, 1), (1, 2), (2, 3)],
        };
        let two_error_candidates = case
            .shrink()
            .into_iter()
            .filter(|c| c.errors.len() == 2)
            .count();
        assert_eq!(two_error_candidates, 3);
    }

    #[test]
    fn crash_plan_round_trips_and_shrinks_toward_the_start() {
        let case = CrashPlan {
            op: CrashOp::Restripe,
            seed: 9,
            cut_step: 40,
            from_end: true,
        };
        assert_eq!(CrashPlan::from_json(&case.to_json()), Some(case.clone()));
        let shrunk = case.shrink();
        assert!(shrunk.iter().any(|c| !c.from_end));
        assert!(shrunk.iter().any(|c| c.cut_step == 0));
        assert!(shrunk.iter().any(|c| c.cut_step == 20));
        // Unknown op names are rejected, not defaulted.
        let mut bad = case.to_json();
        bad.set("op", "warp-core");
        assert_eq!(CrashPlan::from_json(&bad), None);
    }

    #[test]
    fn generated_json_values_round_trip_by_construction() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let case = JsonCase::generate(&mut rng, 3);
            let text = case.0.dump();
            assert_eq!(Json::parse(&text).unwrap(), case.0, "dump: {text}");
        }
    }

    #[test]
    fn json_case_shrinks_toward_null() {
        let case = JsonCase(Json::Arr(vec![Json::U64(3), Json::Str("x".into())]));
        let shrunk = case.shrink();
        assert!(shrunk.contains(&JsonCase(Json::Null)));
        assert!(shrunk
            .iter()
            .any(|c| matches!(&c.0, Json::Arr(a) if a.len() == 1)));
    }
}
