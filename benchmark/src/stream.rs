//! Request streams derived from `pmck_workloads::TraceGenerator`.
//!
//! The rules are fixed (see the README): a PM `Load` becomes a `Read`;
//! a PM `Clwb` becomes a write of fresh seeded 64 B — a `WriteSum` of
//! `old ⊕ new` when the block was loaded since its last write-back (the
//! old value is in the LLC, §V-D OMV), else a conventional `Write`; a
//! `Fence` becomes a `Flush` on persistent workloads; everything else
//! (compute, DRAM traffic, stores that have not been cleaned yet) is
//! dropped. Addresses fold into the device with `addr % blocks`.
//!
//! A stream is generated before the clock starts; the program under
//! test only ever sees [`Request`]s.

use pmck_core::Request;
use pmck_rt::rng::{stream_seed, Rng, StdRng};
use pmck_workloads::{Op, TraceGenerator, WorkloadSpec};

/// One 64 B block.
pub type Block = [u8; 64];

/// Seeded random contents for every block of a device, written during
/// set-up and mirrored by the oracle.
pub fn prefill_data(blocks: u64, seed: u64) -> Vec<Block> {
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, 0xF111));
    (0..blocks)
        .map(|_| {
            let mut b = [0u8; 64];
            rng.fill_bytes(&mut b);
            b
        })
        .collect()
}

/// Which requests a stream keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// Only the `Read`s of the trace.
    Reads,
    /// Reads and both write kinds; `Flush` too when `flushes` is set.
    Mix {
        /// Whether `Fence` ops become `Flush` requests.
        flushes: bool,
    },
}

/// Request counts by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Mix {
    /// `Request::Read`
    pub reads: u64,
    /// `Request::Write`
    pub writes: u64,
    /// `Request::WriteSum`
    pub write_sums: u64,
    /// `Request::Flush`
    pub flushes: u64,
}

impl Mix {
    /// All requests counted.
    pub fn total(&self) -> u64 {
        self.reads + self.writes + self.write_sums + self.flushes
    }

    /// Counts one request.
    pub fn count(&mut self, req: &Request) {
        match req {
            Request::Read(_) => self.reads += 1,
            Request::Write { .. } => self.writes += 1,
            Request::WriteSum { .. } => self.write_sums += 1,
            Request::Flush => self.flushes += 1,
            _ => {}
        }
    }

    /// The mix of a slice of requests.
    pub fn of(reqs: &[Request]) -> Mix {
        let mut mix = Mix::default();
        reqs.iter().for_each(|r| mix.count(r));
        mix
    }

    /// `part / total`, 0 for an empty mix.
    pub fn share(&self, part: u64) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            part as f64 / self.total() as f64
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over kind tag, address and payload of every request: the
/// fingerprint printed with each result, so two runs can be shown to
/// have replayed the same inputs.
pub fn stream_hash(reqs: &[Request]) -> u64 {
    let mut h = FNV_OFFSET;
    for req in reqs {
        let (tag, data): (u8, Option<&Block>) = match req {
            Request::Read(_) => (1, None),
            Request::Write { data, .. } => (2, Some(data)),
            Request::WriteSum { data, .. } => (3, Some(data)),
            Request::Flush => (4, None),
            _ => (0, None),
        };
        h = fnv(h, &[tag]);
        h = fnv(h, &req.addr().unwrap_or(u64::MAX).to_le_bytes());
        if let Some(data) = data {
            h = fnv(h, data);
        }
    }
    h
}

/// Distinct block addresses a slice of requests touches.
pub fn distinct_blocks(reqs: &[Request], blocks: u64) -> u64 {
    let mut seen = vec![false; blocks as usize];
    let mut n = 0;
    for a in reqs.iter().filter_map(Request::addr) {
        if !std::mem::replace(&mut seen[a as usize], true) {
            n += 1;
        }
    }
    n
}

/// Trace ops that warm a stream's loaded flags before its first request.
const WARM_OPS: usize = 1 << 18;

/// An endless, seeded request stream for one workload.
pub struct StreamGen {
    gen: TraceGenerator,
    data_rng: StdRng,
    blocks: u64,
    kind: StreamKind,
    /// Block contents after every request generated so far (the `old`
    /// of the next `WriteSum`). Empty for read streams.
    shadow: Vec<Block>,
    /// Whether a block was loaded since its last write-back.
    loaded: Vec<bool>,
}

impl StreamGen {
    /// A stream of `kind` from the WHISPER-like workload `spec_name`
    /// over a device of `blocks` blocks prefilled with `prefill`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown workload name or a prefill of the wrong
    /// length: both are bugs in this crate's workload table.
    pub fn new(
        spec_name: &str,
        blocks: u64,
        seed: u64,
        kind: StreamKind,
        prefill: &[Block],
    ) -> Self {
        let spec = WorkloadSpec::by_name(spec_name).expect("workload table names a known spec");
        assert_eq!(prefill.len() as u64, blocks, "prefill covers the device");
        // A trace starts with its clean-lag pipeline empty and emits no
        // write-back for hundreds of transactions; and while few blocks
        // have been loaded yet, nearly every write-back is a `Write`.
        // Skip to the first write-back, then let the loaded flags (and
        // nothing else) see a stretch of the trace, so that every
        // stream starts in its steady state.
        let mut gen = TraceGenerator::new(spec, seed);
        while !matches!(gen.next_op(), Op::Clwb(_)) {}
        let mut loaded = vec![false; blocks as usize];
        for _ in 0..WARM_OPS {
            match gen.next_op() {
                Op::Load(r) if r.pm => loaded[(r.addr % blocks) as usize] = true,
                Op::Clwb(r) if r.pm => loaded[(r.addr % blocks) as usize] = false,
                _ => {}
            }
        }
        StreamGen {
            gen,
            data_rng: StdRng::seed_from_u64(stream_seed(seed, 0xDA7A)),
            blocks,
            kind,
            shadow: match kind {
                StreamKind::Reads => Vec::new(),
                StreamKind::Mix { .. } => prefill.to_vec(),
            },
            loaded,
        }
    }

    /// The next request of the stream.
    pub fn next_request(&mut self) -> Request {
        loop {
            match self.gen.next_op() {
                Op::Load(r) if r.pm => {
                    let addr = r.addr % self.blocks;
                    self.loaded[addr as usize] = true;
                    return Request::Read(addr);
                }
                Op::Clwb(r) if r.pm && self.kind != StreamKind::Reads => {
                    let addr = r.addr % self.blocks;
                    let mut new = [0u8; 64];
                    self.data_rng.fill_bytes(&mut new);
                    let old = std::mem::replace(&mut self.shadow[addr as usize], new);
                    if std::mem::replace(&mut self.loaded[addr as usize], false) {
                        let mut sum = new;
                        sum.iter_mut().zip(&old).for_each(|(s, o)| *s ^= o);
                        return Request::WriteSum { addr, data: sum };
                    }
                    return Request::Write { addr, data: new };
                }
                Op::Fence if self.kind == (StreamKind::Mix { flushes: true }) => {
                    return Request::Flush;
                }
                _ => {}
            }
        }
    }

    /// Appends the next `n` requests to `out`.
    pub fn extend(&mut self, out: &mut Vec<Request>, n: usize) {
        out.reserve(n);
        for _ in 0..n {
            let req = self.next_request();
            out.push(req);
        }
    }

    /// Trace operations consumed so far, kept and dropped.
    pub fn trace_ops(&self) -> u64 {
        self.gen.ops_emitted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The artefact `writepath/conventional` measures: a write of the
    /// bytes a block already holds encodes nothing. No stream may
    /// contain one.
    #[test]
    fn every_write_changes_its_block() {
        let blocks = 512;
        let mut contents = prefill_data(blocks, 7);
        let mut gen = StreamGen::new(
            "hashmap",
            blocks,
            7,
            StreamKind::Mix { flushes: false },
            &contents,
        );
        let mut writes = 0;
        for _ in 0..20_000 {
            match gen.next_request() {
                Request::Write { addr, data } => {
                    assert_ne!(contents[addr as usize], data, "a no-op write");
                    contents[addr as usize] = data;
                    writes += 1;
                }
                Request::WriteSum { addr, data } => {
                    assert_ne!(data, [0; 64], "a no-op sum");
                    contents[addr as usize]
                        .iter_mut()
                        .zip(&data)
                        .for_each(|(b, d)| *b ^= d);
                    writes += 1;
                }
                _ => {}
            }
        }
        assert!(writes > 10_000);
    }

    #[test]
    fn hash_covers_kind_address_and_payload() {
        let base = [Request::Write {
            addr: 1,
            data: [2; 64],
        }];
        let h = stream_hash(&base);
        assert_ne!(
            h,
            stream_hash(&[Request::WriteSum {
                addr: 1,
                data: [2; 64]
            }])
        );
        assert_ne!(
            h,
            stream_hash(&[Request::Write {
                addr: 2,
                data: [2; 64]
            }])
        );
        assert_ne!(
            h,
            stream_hash(&[Request::Write {
                addr: 1,
                data: [3; 64]
            }])
        );
    }
}
