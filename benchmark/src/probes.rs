//! Isolated timings of the codec, media and ring functions the stacks
//! are built from, on inputs taken from the blocks the stream touches.
//! Each number is the median over batches of a batch's time per call,
//! so a function faster than the clock's resolution still resolves.

use std::time::Instant;

use pmck_bch::{BchCode, BchScratch, BitPoly};
use pmck_core::{ChipkillLayout, Request};
use pmck_gf::SyndromeRows;
use pmck_pmem::{PersistentMedia, PmemConfig};
use pmck_rs::{RsCode, RsScratch};
use pmck_rt::rng::{stream_seed, Rng, StdRng};

use crate::measure::median;
use crate::spec::AGED_RBER;
use crate::stream::Block;
use crate::sut::engine_config;

const BATCHES: usize = 9;
/// Inputs each probe cycles through.
const POOL: usize = 64;
/// Blocks the encode probe goes round, once per batch. A block's offset
/// in its stripe sets the cost of its encodes, so every batch must see
/// the same offsets, and enough of them to stand for the stream's.
const ENCODE_POOL: usize = 1024;

fn per_call_ns(batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut per_call = Vec::with_capacity(BATCHES);
    // One untimed batch first: tables and inputs into the caches.
    for b in 0..=BATCHES {
        let start = Instant::now();
        for i in 0..batch {
            f(b * batch + i);
        }
        if b > 0 {
            per_call.push(start.elapsed().as_nanos() as f64 / batch as f64);
        }
    }
    median(&per_call)
}

/// Flips each of `bits` bits with probability [`AGED_RBER`]; returns
/// whether any flipped.
fn age(rng: &mut StdRng, bits: usize, mut flip: impl FnMut(usize)) -> bool {
    let mut any = false;
    for i in (0..bits).filter(|_| rng.gen_bool(AGED_RBER)) {
        flip(i);
        any = true;
    }
    any
}

/// [`age`], drawn again until at least one bit flipped.
fn age_some(rng: &mut StdRng, bits: usize, mut flip: impl FnMut(usize)) {
    while !age(rng, bits, &mut flip) {}
}

/// The stored 72 B RS word of a block holding `data`.
fn rs_word(rs: &RsCode, data: &Block) -> [u8; 72] {
    let mut word = [0u8; 72];
    word[8..].copy_from_slice(data);
    rs.parity_into(data, &mut word[..8]);
    word
}

/// Per-call costs of the functions below the engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct CodecCosts {
    /// `SyndromeRows::syndromes_into` on a clean 72 B word.
    pub gf_syndrome_rows_ns: f64,
    /// `RsCode::syndromes_into` on a clean 72 B word.
    pub rs_clean_check_ns: f64,
    /// `RsCode::decode_with_threshold_scratch` on words with at least
    /// one bit error at the aged density.
    pub rs_decode_errorful_ns: f64,
    /// `RsCode::parity_into` of 64 B.
    pub rs_parity_ns: f64,
    /// `BchCode::parity` of a delta word with 64 live bits.
    pub bch_encode_ns: f64,
    /// `BchCode::decode_scratch` on a clean VLEW.
    pub bch_decode_clean_ns: f64,
    /// `BchCode::decode_scratch` on a VLEW with at least one bit error
    /// at the aged density.
    pub bch_decode_errorful_ns: f64,
    /// `try_push` + `try_pop` of one `u64` through an SPSC ring, in one
    /// thread.
    pub spsc_roundtrip_ns: f64,
}

/// Times the codec functions of the paper's design point on the
/// contents of the blocks `prefix` addresses.
pub fn codec_costs(prefix: &[Request], contents: &[Block], seed: u64) -> CodecCosts {
    let cfg = engine_config();
    let rs = RsCode::per_block();
    let mut rs_scratch = RsScratch::new(&rs);
    let bch = BchCode::vlew();
    let mut bch_scratch = BchScratch::new(&bch);
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, 0x9B0B));
    let addrs: Vec<u64> = prefix
        .iter()
        .filter_map(Request::addr)
        .take(ENCODE_POOL)
        .collect();
    let blocks: Vec<Block> = addrs
        .iter()
        .take(POOL)
        .map(|a| contents[*a as usize])
        .collect();
    let clean: Vec<[u8; 72]> = blocks.iter().map(|d| rs_word(&rs, d)).collect();
    let aged: Vec<[u8; 72]> = clean
        .iter()
        .map(|w| {
            let mut w = *w;
            age_some(&mut rng, 72 * 8, |i| w[i / 8] ^= 1 << (i % 8));
            w
        })
        .collect();
    let pick = |i: usize| i % blocks.len();

    let rows = SyndromeRows::gf256(8);
    let mut syn = [0u32; 8];
    let gf_syndrome_rows_ns = per_call_ns(1024, |i| {
        std::hint::black_box(rows.syndromes_into(std::hint::black_box(&clean[pick(i)]), &mut syn));
    });
    let rs_clean_check_ns = per_call_ns(1024, |i| {
        std::hint::black_box(rs.syndromes_into(std::hint::black_box(&clean[pick(i)]), &mut syn));
    });
    let rs_decode_errorful_ns = per_call_ns(256, |i| {
        let mut w = aged[pick(i)];
        let out = rs.decode_with_threshold_scratch(&mut w, cfg.threshold, &mut rs_scratch);
        std::hint::black_box((out.is_ok(), w));
    });
    let mut parity = [0u8; 8];
    let rs_parity_ns = per_call_ns(1024, |i| {
        rs.parity_into(std::hint::black_box(&blocks[pick(i)]), &mut parity);
        std::hint::black_box(parity);
    });

    // One chip's VLEW delta word as the engine builds it for a write:
    // zero but for the 8 B the write changes, at the block's offset in
    // its stripe. The offset sets the degree of the word and with it
    // the cost of the bit-serial encode, so every batch goes once round
    // the same blocks.
    let live: Vec<(usize, [u8; 8])> = addrs
        .iter()
        .map(|a| {
            let at = cfg.layout.offset_in_stripe(*a) * cfg.layout.chip_bytes * 8;
            let mut bytes = [0u8; 8];
            bytes.copy_from_slice(&contents[*a as usize][..8]);
            (at, bytes)
        })
        .collect();
    let mut delta = BitPoly::zero(bch.data_bits());
    let bch_encode_ns = per_call_ns(live.len(), |i| {
        let (at, bytes) = &live[i % live.len()];
        delta.splice_bytes(*at, bytes);
        std::hint::black_box(bch.parity(&delta));
        delta.splice_bytes(*at, &[0; 8]);
    });

    // VLEW codewords over the first bytes of the pooled blocks.
    let vlew_bytes = bch.data_bits() / 8;
    let vlews: Vec<BitPoly> = (0..8)
        .map(|k| {
            let data: Vec<u8> = (0..vlew_bytes)
                .map(|i| blocks[pick(k * 31 + i / 8)][i % 8])
                .collect();
            bch.encode_bytes(&data)
        })
        .collect();
    let aged_vlews: Vec<BitPoly> = vlews
        .iter()
        .map(|w| {
            let mut w = w.clone();
            age_some(&mut rng, bch.len(), |i| w.flip(i));
            w
        })
        .collect();
    let mut word = vlews[0].clone();
    let mut decode = |pool: &[BitPoly], i: usize| {
        word.copy_from(&pool[i % pool.len()]);
        let corrected = bch
            .decode_scratch(&mut word, &mut bch_scratch)
            .map(|v| v.num_corrected());
        std::hint::black_box(corrected.is_ok());
    };
    let bch_decode_clean_ns = per_call_ns(32, |i| decode(&vlews, i));
    let bch_decode_errorful_ns = per_call_ns(32, |i| decode(&aged_vlews, i));

    let (mut tx, mut rx) = pmck_rt::ring::spsc::<u64>(64);
    let spsc_roundtrip_ns = per_call_ns(4096, |i| {
        let _ = tx.try_push(i as u64);
        std::hint::black_box(rx.try_pop());
    });

    CodecCosts {
        gf_syndrome_rows_ns,
        rs_clean_check_ns,
        rs_decode_errorful_ns,
        rs_parity_ns,
        bch_encode_ns,
        bch_decode_clean_ns,
        bch_decode_errorful_ns,
        spsc_roundtrip_ns,
    }
}

/// Per-call costs of the media functions under a flush.
#[derive(Debug, Clone, Copy, Default)]
pub struct MediaCosts {
    /// `PersistentMedia::stage` of the whole image, per line scanned.
    pub stage_ns_per_line: f64,
    /// `PersistentMedia::drain` after the writes of one average flush.
    pub fence_ns: f64,
    /// `power_cut` + `recover` with one flush's writes unfenced.
    pub recover_ns: f64,
}

/// Times the media functions on a `PersistentMedia` the size of the
/// stored image of a rank of `blocks` blocks, whose flushes each follow
/// `writes_per_flush` block writes.
pub fn media_costs(blocks: u64, writes_per_flush: usize) -> MediaCosts {
    let layout: ChipkillLayout = engine_config().layout;
    let stripes = (blocks as usize).div_ceil(layout.blocks_per_vlew());
    let data_len = stripes * layout.vlew_data_bytes;
    let chip_len = (data_len + stripes * layout.vlew_code_bytes).next_multiple_of(64);
    let mut image = vec![0u8; chip_len * layout.total_chips()];
    let mut media = PersistentMedia::new(image.len(), PmemConfig::default());
    media.drain();
    let lines = (image.len() / 64) as f64;

    // Dirties in the image what the block writes between two flushes
    // dirty: per write, 8 B of data and one byte of VLEW code on every
    // chip.
    let mut next = 0u64;
    let mut dirty = |image: &mut [u8], salt: usize| {
        for _ in 0..writes_per_flush.max(1) {
            let addr = next % blocks;
            next = next.wrapping_add(7919);
            let (stripe, off) = (layout.stripe_of(addr), layout.offset_in_stripe(addr));
            for chip in 0..layout.total_chips() {
                let base = chip * chip_len;
                image[base + stripe * layout.vlew_data_bytes + off * 8] ^= salt as u8 | 1;
                image[base + data_len + stripe * layout.vlew_code_bytes] ^= salt as u8 | 1;
            }
        }
    };
    let stage_ns_per_line = per_call_ns(4, |i| {
        dirty(&mut image, i);
        std::hint::black_box(media.stage(0, &image));
    }) / lines;
    media.drain();
    let mut fence = Vec::with_capacity(BATCHES);
    let mut recover = Vec::with_capacity(BATCHES);
    for i in 0..BATCHES {
        dirty(&mut image, i);
        media.stage(0, &image);
        let start = Instant::now();
        std::hint::black_box(media.drain());
        fence.push(start.elapsed().as_nanos() as f64);
        dirty(&mut image, i);
        media.stage(0, &image);
        let start = Instant::now();
        media.power_cut();
        let recovered = media.recover();
        recover.push(start.elapsed().as_nanos() as f64);
        assert!(recovered.is_ok(), "a clean log replays");
        // The image holds writes the cut media lost: stage them again.
        media.stage(0, &image);
        media.drain();
    }
    MediaCosts {
        stage_ns_per_line,
        fence_ns: median(&fence),
        recover_ns: median(&recover),
    }
}
