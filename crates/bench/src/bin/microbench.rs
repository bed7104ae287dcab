//! Microbenchmark harness for the hot codec and read-path kernels.
//!
//! Replaces the former `criterion` benches with a dependency-free
//! `std::time::Instant` timer.  Each scenario is warmed up, then run for
//! a fixed number of timed batches; the report carries the best and mean
//! batch cost per operation so run-to-run noise is visible, plus the
//! heap allocations per operation measured by a counting global
//! allocator (the runtime read path is expected to sit at 0).
//!
//! Usage:
//!
//! ```text
//! microbench [--iters N] [--batches N] [--pretty] [--filter SUBSTR]
//!            [--baseline FILE] [--max-regression X]
//! ```
//!
//! With `--baseline FILE` the run is compared scenario-by-scenario
//! against a previously saved report: any scenario whose best ns/op
//! exceeds its per-scenario threshold (default `--max-regression`, 2.0)
//! times the baseline fails the run (exit code 1). This is the CI
//! perf-smoke gate. A baseline scenario an unfiltered run did not
//! produce (deleted or renamed) is listed as `(not run)`, not failed.
//!
//! Output is a single JSON document (`pmck-rt::json`) on stdout.

use std::time::Instant;

use pmck_bch::{BchCode, BchScratch};
use pmck_cluster::{Cluster, ClusterConfig};
use pmck_core::{
    AccessContext, BlockDevice, ChipkillConfig, ChipkillMemory, PmemConfig, ProtectionTier,
    Request, Stack, StackBuilder, Submitter, TierPolicy, TieredMemory,
};
use pmck_gf::SyndromeRows;
use pmck_nvram::{ChipFailureKind, FaultEvent, FaultKind};
use pmck_pmem::PersistentMedia;
use pmck_rs::{RsCode, RsScratch};
use pmck_rt::alloc;
use pmck_rt::json::Json;
use pmck_rt::rng::{Rng, StdRng};
use pmck_service::ShardedService;

/// Counts allocation calls, so each scenario can report heap
/// allocations per operation.
#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

struct Config {
    /// Operations per timed batch.
    iters: u64,
    /// Timed batches per scenario (the min and mean are reported).
    batches: u64,
    pretty: bool,
    filter: Option<String>,
    /// A saved report to gate against.
    baseline: Option<String>,
    /// Default regression threshold (current/baseline best ns ratio).
    max_regression: f64,
}

impl Config {
    fn from_args() -> Self {
        let mut cfg = Config {
            iters: 200,
            batches: 20,
            pretty: false,
            filter: None,
            baseline: None,
            max_regression: 2.0,
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--iters" => cfg.iters = need(args.next(), "--iters"),
                "--batches" => cfg.batches = need(args.next(), "--batches"),
                "--pretty" => cfg.pretty = true,
                "--filter" => {
                    cfg.filter = Some(
                        args.next()
                            .unwrap_or_else(|| usage("--filter needs a value")),
                    )
                }
                "--baseline" => {
                    cfg.baseline = Some(
                        args.next()
                            .unwrap_or_else(|| usage("--baseline needs a file path")),
                    )
                }
                "--max-regression" => {
                    cfg.max_regression = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&x: &f64| x > 0.0)
                        .unwrap_or_else(|| usage("--max-regression needs a positive number"))
                }
                other => usage(&format!("unknown argument: {other}")),
            }
        }
        cfg
    }
}

fn need(v: Option<String>, flag: &str) -> u64 {
    v.and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a positive integer")))
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: microbench [--iters N] [--batches N] [--pretty] [--filter SUBSTR] \
         [--baseline FILE] [--max-regression X]"
    );
    std::process::exit(2);
}

/// Times `f` for `cfg.batches` batches of `cfg.iters` calls each and
/// returns a JSON row.  `f` must consume its own input so the optimizer
/// cannot hoist work out of the loop; each call returns a value that is
/// fed to `std::hint::black_box`. Allocation calls across the timed
/// batches are averaged into `allocs_per_op`.
fn scenario<T>(cfg: &Config, name: &str, bytes_per_op: u64, mut f: impl FnMut() -> T) -> Json {
    measure(cfg, name, bytes_per_op, |_| {
        let start = Instant::now();
        for _ in 0..cfg.iters {
            std::hint::black_box(f());
        }
        start.elapsed().as_nanos() as f64 / cfg.iters as f64
    })
}

/// [`scenario`] for an operation that must be set up afresh before
/// every call — a read that heals what it touches needs its cells aged
/// again. Only `f` is on the clock, at one `Instant` pair per call
/// (~40 ns: not for sub-microsecond kernels), and only `f`'s
/// allocations count.
fn prepared_scenario<T>(
    cfg: &Config,
    name: &str,
    bytes_per_op: u64,
    mut prepare: impl FnMut(),
    mut f: impl FnMut() -> T,
) -> Json {
    measure(cfg, name, bytes_per_op, |untimed| {
        let mut ns = 0;
        for _ in 0..cfg.iters {
            *untimed += alloc::count(&mut prepare);
            let start = Instant::now();
            std::hint::black_box(f());
            ns += start.elapsed().as_nanos();
        }
        ns as f64 / cfg.iters as f64
    })
}

/// One row from `batch`, which runs `cfg.iters` operations and returns
/// their mean cost in ns, adding to its argument the allocations it
/// made off the clock: one warm-up batch (fills lazy tables and
/// scratch), then `cfg.batches` measured ones.
fn measure(
    cfg: &Config,
    name: &str,
    bytes_per_op: u64,
    mut batch: impl FnMut(&mut u64) -> f64,
) -> Json {
    batch(&mut 0);
    let mut best_ns = f64::INFINITY;
    let mut total_ns = 0.0;
    let mut untimed = 0;
    let allocs = alloc::count(|| {
        for _ in 0..cfg.batches {
            let ns = batch(&mut untimed);
            best_ns = best_ns.min(ns);
            total_ns += ns;
        }
    }) - untimed;
    let mean_ns = total_ns / cfg.batches as f64;
    let mut row = Json::object()
        .with("name", name)
        .with("ns_per_op_best", best_ns)
        .with("ns_per_op_mean", mean_ns)
        .with(
            "allocs_per_op",
            allocs as f64 / (cfg.batches * cfg.iters) as f64,
        );
    if bytes_per_op > 0 {
        row = row.with("bytes_per_op", bytes_per_op).with(
            "gib_per_s_best",
            bytes_per_op as f64 / best_ns * 1e9 / (1u64 << 30) as f64,
        );
    }
    row
}

/// [`scenario`] for a row that times an allocation-free entry point:
/// the measured allocation count is part of the row's contract.
fn alloc_free_scenario<T>(
    cfg: &Config,
    name: &str,
    bytes_per_op: u64,
    f: impl FnMut() -> T,
) -> Json {
    alloc_free(scenario(cfg, name, bytes_per_op, f))
}

fn alloc_free(row: Json) -> Json {
    assert_eq!(
        row.get("allocs_per_op").and_then(|v| v.as_f64()),
        Some(0.0),
        "{:?} must not allocate",
        row.get("name")
    );
    row
}

fn wants(cfg: &Config, name: &str) -> bool {
    cfg.filter.as_deref().is_none_or(|f| name.contains(f))
}

fn gf_scenarios(cfg: &Config, rows: &mut Vec<Json>) {
    if wants(cfg, "gf/syndrome_row_table") {
        // The raw row-table kernel: all 8 syndromes of a 72-byte word.
        let rows_tbl = SyndromeRows::gf256(8);
        let word: Vec<u8> = (0..72).map(|i| (i * 37 + 5) as u8).collect();
        let mut s = [0u32; 8];
        rows.push(scenario(cfg, "gf/syndrome_row_table", 72, || {
            rows_tbl.syndromes_into(std::hint::black_box(&word), &mut s);
            s[0]
        }));
    }
}

fn bch_scenarios(cfg: &Config, rows: &mut Vec<Json>) {
    let code = BchCode::vlew();
    assert_eq!(code.t(), 22);
    let mut rng = StdRng::seed_from_u64(1);
    let data: Vec<u8> = (0..256).map(|_| rng.gen()).collect();
    let clean = code.encode_bytes(&data);

    if wants(cfg, "bch/encode_256B") {
        // The whole-word encode as the engine's callers run it: parity
        // limbs into a caller buffer.
        let mut out = vec![0u64; code.parity_limbs()];
        rows.push(alloc_free_scenario(cfg, "bch/encode_256B", 256, || {
            code.parity_bytes_into(std::hint::black_box(&data), &mut out);
            out[0]
        }));
    }
    if wants(cfg, "bch/parity_delta_64b") {
        // The §V-D code-bit update of one chip: the sparse encode entry
        // on 64 changed data bits, at a block offset that goes once
        // round the stripe (the offset picks the table rows, not the
        // cost).
        let mut delta = [0u8; 8];
        rng.fill_bytes(&mut delta);
        let mut out = vec![0u64; code.parity_limbs()];
        let mut off = 0;
        rows.push(alloc_free_scenario(cfg, "bch/parity_delta_64b", 8, || {
            off = (off + 1) % 32;
            code.parity_delta_into(off * 64, std::hint::black_box(&delta), &mut out);
            out[0]
        }));
    }
    if wants(cfg, "bch/syndromes_clean") {
        let mut s = vec![0u32; 2 * code.t()];
        rows.push(alloc_free_scenario(cfg, "bch/syndromes_clean", 256, || {
            code.syndromes_into(std::hint::black_box(&clean), &mut s)
        }));
    }
    if wants(cfg, "bch/syndromes_sliced") {
        // A dirty word: the re-encode of `bch/syndromes_clean` plus the
        // syndrome map over the 33-byte difference. (The row keeps the
        // name of the byte-sliced chains the map replaced.)
        let mut dirty = clean.clone();
        dirty.flip(17);
        dirty.flip(1031);
        let mut s = vec![0u32; 2 * code.t()];
        rows.push(scenario(cfg, "bch/syndromes_sliced", 256, || {
            code.syndromes_into(std::hint::black_box(&dirty), &mut s)
        }));
    }
    if wants(cfg, "bch/syndromes_errorful") {
        // What a boot scrub meets at RBER 1e-3: three errors, one of
        // them in the code cells, so the difference the map reads is
        // dense from its top nibble down.
        let mut aged = clean.clone();
        for p in [200, 264 + 911, 264 + 2040] {
            aged.flip(p);
        }
        let mut s = vec![0u32; 2 * code.t()];
        rows.push(alloc_free_scenario(
            cfg,
            "bch/syndromes_errorful",
            256,
            || code.syndromes_into(std::hint::black_box(&aged), &mut s),
        ));
    }
    if wants(cfg, "bch/decode_clean") {
        // The scrub fast path: syndrome check on an error-free word
        // through the scratch decoder (0 allocs/op).
        let mut scratch = BchScratch::new(&code);
        let mut w = clean.clone();
        rows.push(scenario(cfg, "bch/decode_clean", 256, || {
            w.copy_from(std::hint::black_box(&clean));
            code.decode_scratch(&mut w, &mut scratch)
                .expect("clean")
                .num_corrected()
        }));
    }
    // `nerr` distinct flipped bits anywhere in the clean word.
    let aged = |rng: &mut StdRng, nerr: usize| {
        let mut word = clean.clone();
        let mut pos = std::collections::BTreeSet::new();
        while pos.len() < nerr {
            pos.insert(rng.gen_range(0..code.len()));
        }
        for &p in &pos {
            word.flip(p);
        }
        word
    };
    // Errorful decodes by weight. Each row cycles over 64 seeded
    // patterns: a root search that stops at its last root makes one
    // fixed pattern's highest position the row. One to four errors —
    // what a VLEW holds at RBER ≤ 1e-3 — take the closed-form roots;
    // t6 is the first row on the bit-sliced Chien search, and
    // t = 22 the worst correctable case.
    for (tag, nerr) in [
        ("t1", 1usize),
        ("t2", 2),
        ("t3", 3),
        ("t4", 4),
        ("t6", 6),
        ("tmax", 22),
    ] {
        let name = format!("bch/decode_errorful_{tag}");
        if !wants(cfg, &name) {
            continue;
        }
        let mut rng = StdRng::seed_from_u64(nerr as u64);
        let words: Vec<_> = (0..64).map(|_| aged(&mut rng, nerr)).collect();
        let mut scratch = BchScratch::new(&code);
        let (mut w, mut i) = (clean.clone(), 0);
        rows.push(alloc_free_scenario(cfg, &name, 256, || {
            i = (i + 1) % words.len();
            w.copy_from(std::hint::black_box(&words[i]));
            code.decode_scratch(&mut w, &mut scratch)
                .expect("correctable")
                .num_corrected()
        }));
    }
    if wants(cfg, "bch/decode_batch_scrub") {
        // A boot-scrub stripe window: 9 VLEW words, mostly clean with a
        // few errorful lanes — the nine single-word decodes
        // `ChipkillMemory::decode_stripe` performs for one stripe.
        let weights = [0usize, 1, 0, 2, 0, 0, 5, 0, 1];
        let mut rng = StdRng::seed_from_u64(9);
        let words: Vec<_> = weights.iter().map(|&nerr| aged(&mut rng, nerr)).collect();
        let mut batch = words.clone();
        let mut scratch = BchScratch::new(&code);
        let name = "bch/decode_batch_scrub";
        rows.push(alloc_free_scenario(cfg, name, 9 * 256, || {
            let mut bits = 0;
            for (dst, src) in batch.iter_mut().zip(&words) {
                dst.copy_from(std::hint::black_box(src));
                bits += code.decode_word(dst, &mut scratch).bits_corrected();
            }
            bits
        }));
    }
}

fn rs_scenarios(cfg: &Config, rows: &mut Vec<Json>) {
    let code = RsCode::per_block();
    let mut rng = StdRng::seed_from_u64(2);
    let data: Vec<u8> = (0..64).map(|_| rng.gen()).collect();
    let clean = code.encode(&data);

    if wants(cfg, "rs/encode_64B") {
        // The encode the engine's write path runs: check bytes into a
        // caller buffer.
        let mut check = [0u8; 8];
        rows.push(alloc_free_scenario(cfg, "rs/encode_64B", 64, || {
            code.parity_into(std::hint::black_box(&data), &mut check);
            check
        }));
    }
    if wants(cfg, "rs/decode_clean") {
        // The hot path: scratch decode of an already-valid word.
        let mut scratch = RsScratch::new(&code);
        let mut w = clean.clone();
        rows.push(scenario(cfg, "rs/decode_clean", 64, || {
            w.copy_from_slice(std::hint::black_box(&clean));
            code.decode_scratch(&mut w, &mut scratch)
                .expect("clean")
                .num_corrections()
        }));
    }
    let with_errors = |nerr: usize| {
        let mut word = clean.clone();
        for k in 0..nerr {
            word[k * 17] ^= 0x5A;
        }
        word
    };
    for nerr in [1usize, 2, 4] {
        let name = format!("rs/decode_{nerr}err");
        if !wants(cfg, &name) {
            continue;
        }
        let word = with_errors(nerr);
        let mut scratch = RsScratch::new(&code);
        let mut w = word.clone();
        rows.push(scenario(cfg, &name, 64, || {
            w.copy_from_slice(std::hint::black_box(&word));
            code.decode_scratch(&mut w, &mut scratch)
                .expect("correctable")
                .num_corrections()
        }));
    }
    // The runtime decode proper: the engine's threshold of 2.
    let mut threshold_row = |name: &str, pool: &[Vec<u8>]| {
        let mut scratch = RsScratch::new(&code);
        let mut w = clean.clone();
        let mut i = 0;
        rows.push(alloc_free_scenario(cfg, name, 64, || {
            w.copy_from_slice(std::hint::black_box(&pool[i % pool.len()]));
            i += 1;
            code.decode_with_threshold_scratch(&mut w, 2, &mut scratch)
                .expect("length ok")
        }));
    };
    if wants(cfg, "rs/decode_3err_rejected") {
        // Decoded in full, then rolled back for the VLEW fallback.
        threshold_row("rs/decode_3err_rejected", &[with_errors(3)]);
    }
    if wants(cfg, "rs/threshold_aged_1e-3") {
        // The mix `benchmark/`'s `rs.decode_errorful_ns` probe times: 64
        // words aged at RBER 1e-3, each redrawn until a bit flipped
        // (about three in four hold one symbol error, one in five two).
        let pool: Vec<Vec<u8>> = (0..64)
            .map(|_| loop {
                let mut w = clean.clone();
                for bit in 0..w.len() * 8 {
                    if rng.gen_bool(1e-3) {
                        w[bit / 8] ^= 1 << (bit % 8);
                    }
                }
                if w != clean {
                    break w;
                }
            })
            .collect();
        threshold_row("rs/threshold_aged_1e-3", &pool);
    }
    if wants(cfg, "rs/decode_erasure_chipkill") {
        // A dead chip: 8 known-bad symbol positions.
        let mut erased = clean.clone();
        erased[16..24].fill(0xFF);
        let erasures: Vec<usize> = (16..24).collect();
        let mut scratch = RsScratch::new(&code);
        let mut w = erased.clone();
        rows.push(scenario(cfg, "rs/decode_erasure_chipkill", 64, || {
            w.copy_from_slice(std::hint::black_box(&erased));
            code.decode_with_erasures_scratch(&mut w, &erasures, &mut scratch)
                .expect("ok")
                .num_corrections()
        }));
    }
}

/// Builds a filled proposal stack for the read/write-path scenarios.
/// Each scenario gets a fresh stack (they are not clonable: the pipeline
/// is a boxed device chain), written with the same seeded pattern and
/// optionally pre-damaged at `rber`.
fn filled_stack(build: impl FnOnce(StackBuilder) -> StackBuilder, rber: f64) -> Stack {
    filled_stack_of(256, build, rber)
}

/// [`filled_stack`] at a chosen capacity.
fn filled_stack_of(
    blocks: u64,
    build: impl FnOnce(StackBuilder) -> StackBuilder,
    rber: f64,
) -> Stack {
    let mut rng = StdRng::seed_from_u64(5);
    let mut stack = build(StackBuilder::proposal(blocks, ChipkillConfig::default()))
        .seed(5)
        .build();
    for a in 0..stack.num_blocks() {
        let mut b = [0u8; 64];
        rng.fill_bytes(&mut b[..]);
        stack.write(a, &b).unwrap();
    }
    if rber > 0.0 {
        stack.inject_bit_errors(rber).unwrap();
    }
    stack
}

/// `readpath/*`. A read that falls back to the VLEWs writes its
/// corrected stripe back, so a rank aged once is clean after one lap
/// and every later lap would time `readpath/clean` under another name
/// (the artefact `writepath/conventional` once had). The two aged rows
/// therefore start every lap of the address space from a freshly built
/// rank, written and aged from the same seed — off the clock (its
/// allocations do show in `allocs_per_op`), as `benchmark/`'s
/// `read_aged` re-ages before every pass. Every batch
/// thus times the same reads of the same cells (first fallback of each
/// stripe heals it, the rest of the stripe reads clean or RS-corrected),
/// whatever `--batches` is. `fallback_same_stripe` is the second
/// over-threshold read of a stripe, after the first one healed it, and
/// `degraded_chip_seq` a sequential sweep under a known-failed chip
/// (every read decodes the eight survivors: the cliff is still there).
fn readpath_scenarios(cfg: &Config, rows: &mut Vec<Json>) {
    if wants(cfg, "readpath/clean") {
        let mut stack = filled_stack(|b| b, 0.0);
        let mut a = 0;
        rows.push(scenario(cfg, "readpath/clean", 64, || {
            a = (a + 1) % stack.num_blocks();
            stack.submit(&Request::Read(a)).expect("correctable")
        }));
    }
    for (name, rber) in [
        ("readpath/runtime_rber_2e-4", 2e-4),
        ("readpath/boot_rber_1e-3", 1e-3),
    ] {
        if !wants(cfg, name) {
            continue;
        }
        rows.push(measure(cfg, name, 64, |_| {
            let (mut ns, mut left) = (0, cfg.iters);
            while left > 0 {
                let mut stack = filled_stack(|b| b, rber);
                let lap = left.min(stack.num_blocks());
                let start = Instant::now();
                for a in 0..lap {
                    std::hint::black_box(stack.submit(&Request::Read(a)).expect("correctable"));
                }
                ns += start.elapsed().as_nanos();
                left -= lap;
            }
            ns as f64 / cfg.iters as f64
        }));
    }
    if wants(cfg, "readpath/fallback_first") {
        // One stripe aged at RBER 1e-3 (the same seeded flips every
        // time), then three bad RS symbols in one block: its read is
        // the stripe's first over-threshold read and decodes all nine
        // VLEWs, each holding the ageing's few bit errors, and heals
        // the stripe for the next re-ageing.
        let mut mem = ChipkillMemory::new(32, ChipkillConfig::default());
        for a in 0..mem.num_blocks() {
            mem.write_block(a, &[a as u8 ^ 0x5A; 64]).expect("in range");
        }
        let target = 7;
        let mem = std::cell::RefCell::new(mem);
        rows.push(alloc_free(prepared_scenario(
            cfg,
            "readpath/fallback_first",
            64,
            || {
                let mut mem = mem.borrow_mut();
                mem.inject_bit_errors(1e-3, &mut StdRng::seed_from_u64(27));
                for chip in 0..3 {
                    mem.corrupt_chip_byte(chip, target, 1, 0x10);
                }
            },
            || mem.borrow_mut().read_block(target).expect("correctable"),
        )));
    }
    if wants(cfg, "readpath/fallback_same_stripe") {
        let mut mem = ChipkillMemory::new(64, ChipkillConfig::default());
        for a in 0..mem.num_blocks() {
            mem.write_block(a, &[a as u8; 64]).expect("in range");
        }
        // Two blocks of stripe 0, three bad RS symbols each.
        let (first, second) = (3, 17);
        let mem = std::cell::RefCell::new(mem);
        rows.push(alloc_free(prepared_scenario(
            cfg,
            "readpath/fallback_same_stripe",
            64,
            || {
                let mut mem = mem.borrow_mut();
                for a in [first, second] {
                    // Whatever the last call left, start from clean cells.
                    mem.scrub_block(a).expect("correctable");
                    for chip in 0..3 {
                        mem.corrupt_chip_byte(chip, a, 0, 0x01);
                    }
                }
                mem.read_block(first).expect("correctable");
            },
            || mem.borrow_mut().read_block(second).expect("correctable"),
        )));
    }
    if wants(cfg, "readpath/degraded_chip_seq") {
        let mut stack = filled_stack(|b| b, 0.0);
        let kind = FaultKind::ChipKill {
            chip: 3,
            kind: ChipFailureKind::RandomGarbage,
        };
        stack
            .submit(&Request::Fault(FaultEvent { at_cycle: 0, kind }))
            .expect("chipkill base");
        let mut a = 0;
        rows.push(alloc_free_scenario(
            cfg,
            "readpath/degraded_chip_seq",
            64,
            || {
                a = (a + 1) % stack.num_blocks();
                stack.submit(&Request::Read(a)).expect("one dead chip")
            },
        ));
    }
    // Both write scenarios change every block they touch. Rewriting one
    // constant payload does not: after the first lap every delta is zero
    // and the engine skips the whole VLEW update, which is what the
    // `writepath/conventional` row timed up to BENCH_PR10.json. The
    // conventional path alternates two seeded payloads per lap; the sum
    // path sends their XOR, so both flip the same bits of every chip.
    let payloads = {
        let mut rng = StdRng::seed_from_u64(14);
        let mut p = [[0u8; 64]; 2];
        rng.fill_bytes(&mut p[0][..]);
        rng.fill_bytes(&mut p[1][..]);
        p
    };
    if wants(cfg, "writepath/conventional") {
        let mut stack = filled_stack(|b| b, 0.0);
        let (mut a, mut lap) = (0, 0);
        rows.push(scenario(cfg, "writepath/conventional", 64, || {
            a = (a + 1) % stack.num_blocks();
            if a == 0 {
                lap ^= 1;
            }
            stack.write(a, &payloads[lap]).expect("in range")
        }));
    }
    if wants(cfg, "writepath/bitwise_sum") {
        let mut stack = filled_stack(|b| b, 0.0);
        let mut sum = payloads[0];
        for (s, p) in sum.iter_mut().zip(&payloads[1]) {
            *s ^= p;
        }
        let mut a = 0;
        rows.push(scenario(cfg, "writepath/bitwise_sum", 64, || {
            a = (a + 1) % stack.num_blocks();
            stack.write_sum(a, &sum).expect("in range")
        }));
    }
    if wants(cfg, "writepath/bitwise_sum_scattered") {
        // The row above walks 256 blocks in order with one sum, so its
        // table entries, stripes and EUR registers stay in L1. This one
        // is the write `benchmark/`'s write_mix issues: a device of the
        // benchmark's size, random addresses, a different dense sum
        // each time. (It reads ~15% above the in-order row: most of what
        // a write costs in situ is the stack around the engine.)
        let mut stack = filled_stack_of(16 << 10, |b| b, 0.0);
        let mut rng = StdRng::seed_from_u64(24);
        let ops: Vec<(u64, [u8; 64])> = (0..1024)
            .map(|_| {
                let mut sum = [0u8; 64];
                rng.fill_bytes(&mut sum[..]);
                (rng.gen_range(0..stack.num_blocks()), sum)
            })
            .collect();
        let mut i = 0;
        rows.push(scenario(cfg, "writepath/bitwise_sum_scattered", 64, || {
            i = (i + 1) % ops.len();
            stack.write_sum(ops[i].0, &ops[i].1).expect("in range")
        }));
    }
    if wants(cfg, "stack/full_pipeline_read") {
        // The whole middleware chain: wear-level remap + auto patrol on
        // top of the chipkill base — the per-access composition overhead
        // relative to readpath/clean.
        let mut stack = filled_stack(|b| b.wear_levelled(64).patrolled(4, 16), 0.0);
        let mut a = 0;
        rows.push(scenario(cfg, "stack/full_pipeline_read", 64, || {
            a = (a + 1) % stack.num_blocks();
            stack.submit(&Request::Read(a)).expect("clean")
        }));
    }
}

/// `scrub/boot_rber_1e-3`: the paper's boot-time correction (§V-B) —
/// every VLEW of a 256-block rank decoded after it sat at RBER 1e-3 —
/// per stripe. The rank is re-aged off the clock (the same seeded flips
/// each time) before each whole-rank `BootScrub`.
fn scrub_scenarios(cfg: &Config, rows: &mut Vec<Json>) {
    if !wants(cfg, "scrub/boot_rber_1e-3") {
        return;
    }
    let mut mem = ChipkillMemory::new(256, ChipkillConfig::default());
    let mut rng = StdRng::seed_from_u64(5);
    for a in 0..mem.num_blocks() {
        let mut b = [0u8; 64];
        rng.fill_bytes(&mut b[..]);
        mem.write_block(a, &b).expect("in range");
    }
    let stripes = mem.stripes() as u64;
    rows.push(alloc_free(measure(
        cfg,
        "scrub/boot_rber_1e-3",
        32 * 64,
        |untimed| {
            let (mut ns, mut done) = (0, 0);
            while done < cfg.iters {
                *untimed += alloc::count(|| {
                    mem.inject_bit_errors(1e-3, &mut StdRng::seed_from_u64(27));
                });
                let start = Instant::now();
                std::hint::black_box(mem.boot_scrub().expect("correctable"));
                ns += start.elapsed().as_nanos();
                done += stripes;
            }
            ns as f64 / done as f64
        },
    )));
}

/// `iocrc/*`: the Write-CRC link's checksum over one 64 B payload; a
/// transfer computes it twice (sender and receiver).
fn iocrc_scenarios(cfg: &Config, rows: &mut Vec<Json>) {
    if wants(cfg, "iocrc/crc16_64B") {
        let mut payload = [0u8; 64];
        StdRng::seed_from_u64(24).fill_bytes(&mut payload[..]);
        rows.push(alloc_free_scenario(cfg, "iocrc/crc16_64B", 64, || {
            pmck_core::crc16(std::hint::black_box(&payload))
        }));
    }
}

/// `tier/*`: the adaptive-tier paths. The three read scenarios time the
/// clean read path under each protection layout (the dense tier decodes
/// against shorter VLEW spans, the RS-only tier skips VLEW bookkeeping
/// entirely); `migrate_region` times a full region re-encode between
/// the paper and RS-only tiers, image buffer allocation included —
/// `allocs_per_op` is expected non-zero here, unlike the read paths.
fn tier_scenarios(cfg: &Config, rows: &mut Vec<Json>) {
    for tier in ProtectionTier::ALL {
        let name = format!("tier/read_{}", tier.as_str());
        if !wants(cfg, &name) {
            continue;
        }
        let mut rng = StdRng::seed_from_u64(5);
        let mut stack = StackBuilder::proposal(256, ChipkillConfig::for_tier(tier))
            .seed(5)
            .build();
        for a in 0..stack.num_blocks() {
            let mut b = [0u8; 64];
            rng.fill_bytes(&mut b[..]);
            stack.write(a, &b).unwrap();
        }
        let mut a = 0;
        rows.push(scenario(cfg, &name, 64, || {
            a = (a + 1) % stack.num_blocks();
            stack.submit(&Request::Read(a)).expect("clean")
        }));
    }
    if wants(cfg, "tier/migrate_region") {
        // One 32-block region ping-ponging between the paper and
        // RS-only tiers: each op is one full read-out + re-encode +
        // tier commit.
        let mut mem = TieredMemory::new(32, 1, ChipkillConfig::default(), TierPolicy::default());
        let mut ctx = AccessContext::new(7);
        for a in 0..mem.num_blocks() {
            let data = [a as u8 ^ 0x3C; 64];
            mem.access(Request::Write { addr: a, data }, &mut ctx)
                .expect("prefill");
        }
        let mut worn = false;
        rows.push(scenario(cfg, "tier/migrate_region", 32 * 64, || {
            // Alternate the observed RBER across the paper boundary so
            // every step migrates.
            mem.rber_mut().reset_observation(0);
            let rate = if worn { 100_000 } else { 1 };
            mem.rber_mut().record_observation(0, rate, 1_000_000_000);
            worn = !worn;
            match mem.access(Request::TierStep, &mut ctx).expect("tier step") {
                pmck_core::Response::Tiered(r) => {
                    assert_eq!(r.migrations, 1, "every step must migrate");
                    r.migrations
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }));
    }
}

/// `pmem/*`: the persistence-domain hot paths.
///
/// `flush_clean_write` rewrites one already-durable block of a
/// 256-block stack and flushes: the EUR drain finds nothing, compare-skip
/// finds the stripe unchanged and the fence is empty. It times a flush
/// that persists nothing — the artefact class of the old
/// `writepath/conventional` row — and keeps its name only so baselines
/// stay comparable; `flush_dirty_write` is the row that means something:
/// one `Write` of fresh bytes plus the `Flush` that fences it, on the
/// benchmark's 16 Ki-block device. `flush_sparse_dirty/N` changes `N`
/// blocks in `N` distinct stripes and fences them with one `Flush` (the
/// writes are inside the timed op): flush cost follows the dirty stripes,
/// so the three rows may grow no faster than `N`. All four assert 0
/// allocations per op. `recovery_replay` is the cold path: cut power,
/// replay the sealed intent-log record, and rebuild the live arrays
/// wholesale from the durable image.
///
/// `drain_empty` and `fence_lines/N` time `PersistentMedia` alone, on a
/// media the size of that device's (37 Ki lines): a drain with nothing
/// pending, and the `stage` + `drain` of `N` lines scattered one per
/// 41-line stride — the record encode, its CRC, and both persists, with
/// no EUR drain or gather in the way. Each round stages its own round
/// number, which no earlier round left in any line, so compare-skip
/// keeps all `N`.
fn pmem_scenarios(cfg: &Config, rows: &mut Vec<Json>) {
    const MEDIA_LINES: usize = 37 << 10;
    let media = || PersistentMedia::new(MEDIA_LINES * 64, PmemConfig::default());
    if wants(cfg, "pmem/drain_empty") {
        let mut media = media();
        rows.push(alloc_free_scenario(cfg, "pmem/drain_empty", 0, || {
            media.drain().lines
        }));
    }
    for n in [16usize, 64] {
        let name = format!("pmem/fence_lines/{n}");
        if !wants(cfg, &name) {
            continue;
        }
        let mut media = media();
        let mut round = 0usize;
        rows.push(alloc_free_scenario(cfg, &name, 64 * n as u64, || {
            round += 1;
            let mut bytes = [0u8; 64];
            for word in bytes.chunks_exact_mut(8) {
                word.copy_from_slice(&(round as u64).to_le_bytes());
            }
            for i in 0..n {
                let line = (round * 97 + i * 41) % MEDIA_LINES;
                media.stage(line * 64, &bytes);
            }
            let report = media.drain();
            assert_eq!(report.lines, n as u64);
            report.log_bytes
        }));
    }
    if wants(cfg, "pmem/flush_clean_write") {
        let mut stack = filled_stack(|b| b.persistent(PmemConfig::default()), 0.0);
        stack.flush().expect("seal the filled image");
        let block = [0xA5u8; 64];
        stack.write(0, &block).expect("in range");
        stack.flush().expect("seal the probe block");
        let name = "pmem/flush_clean_write";
        rows.push(alloc_free_scenario(cfg, name, 64, || {
            stack.write(0, &block).expect("in range");
            stack.flush().expect("clean flush")
        }));
    }
    const DEVICE_BLOCKS: u64 = 16 << 10;
    let device = || {
        let mut stack =
            filled_stack_of(DEVICE_BLOCKS, |b| b.persistent(PmemConfig::default()), 0.0);
        stack.flush().expect("seal the filled image");
        (stack, StdRng::seed_from_u64(20))
    };
    if wants(cfg, "pmem/flush_dirty_write") {
        let (mut stack, mut rng) = device();
        let (mut a, mut block) = (0, [0u8; 64]);
        let name = "pmem/flush_dirty_write";
        rows.push(alloc_free_scenario(cfg, name, 64, || {
            // A prime stride: consecutive ops land in different stripes.
            a = (a + 4099) % DEVICE_BLOCKS;
            rng.fill_bytes(&mut block[..]);
            stack.write(a, &block).expect("in range");
            stack.flush().expect("dirty flush")
        }));
    }
    for dirty in [1u64, 8, 64] {
        let name = format!("pmem/flush_sparse_dirty/{dirty}");
        if !wants(cfg, &name) {
            continue;
        }
        let (mut stack, mut rng) = device();
        // 512 stripes of 32 blocks: `dirty` writes eight stripes apart
        // never share one, and the start rotates through all of them.
        let (mut first, mut block) = (0, [0u8; 64]);
        rows.push(alloc_free_scenario(cfg, &name, 64 * dirty, || {
            first = (first + 33) % DEVICE_BLOCKS;
            for i in 0..dirty {
                rng.fill_bytes(&mut block[..]);
                let a = (first + i * 8 * 32) % DEVICE_BLOCKS;
                stack.write(a, &block).expect("in range");
            }
            let lines = stack.flush().expect("sparse flush");
            // A 72 B burst straddles two lines, and the stripe's code
            // words change at least one of their five.
            assert!(lines >= 3 * dirty, "every write must reach the fence");
            lines
        }));
    }
    if wants(cfg, "pmem/recovery_replay") {
        let mut stack = filled_stack(|b| b.persistent(PmemConfig::default()), 0.0);
        stack.flush().expect("seal the filled image");
        rows.push(scenario(cfg, "pmem/recovery_replay", 0, || {
            stack.power_cut().expect("power cut");
            stack.recover().expect("recover").lines_redone
        }));
    }
}

/// `service/ring_submit_latency`: one ticket ping-ponged through a
/// single-shard ring — the round-trip floor of the streaming plane
/// (submit → SPSC push → worker wake → decode → completion pop), with
/// nothing pipelined to amortize it.
fn service_scenarios(cfg: &Config, rows: &mut Vec<Json>) {
    if !wants(cfg, "service/ring_submit_latency") {
        return;
    }
    let mut svc = ShardedService::with_clients(1, 1, 5, |_, seed| {
        StackBuilder::proposal(64, ChipkillConfig::default())
            .seed(seed)
            .build()
    });
    let mut client = svc.take_client().expect("one spare lane");
    let blocks = client.num_blocks();
    for a in 0..blocks {
        client
            .submit(&Request::Write {
                addr: a,
                data: [a as u8; 64],
            })
            .expect("prefill");
    }
    let mut a = 0u64;
    rows.push(scenario(cfg, "service/ring_submit_latency", 64, || {
        a = (a + 1) % blocks;
        let t = client.try_submit(&Request::Read(a)).expect("window free");
        client.wait(t).expect("clean read")
    }));
    drop(client);
    svc.shutdown();
}

/// `cluster/*`: the replicated tier's quorum walk over local `Stack`
/// nodes. The replicated-read scenarios time the clean fast path — the
/// walk serves from the first healthy replica and exits at read
/// quorum, so 3-node cost should track 1-node cost plus the placement
/// arithmetic, and both are expected at 0 allocs/op. `read_repair`
/// times the full repair round-trip: every op marks one replica stale,
/// and the next read of that block re-writes it from the served data.
fn cluster_scenarios(cfg: &Config, rows: &mut Vec<Json>) {
    const BLOCKS: u64 = 96;
    for (name, nodes, replicas) in [
        ("cluster/replicated_read_1node", 1usize, 1usize),
        ("cluster/replicated_read_3node", 3, 3),
    ] {
        if !wants(cfg, name) {
            continue;
        }
        let c = ClusterConfig {
            replicas,
            write_quorum: 1,
            read_quorum: 1,
        };
        let mut cl = Cluster::local(nodes, BLOCKS, 5, c);
        let mut rng = StdRng::seed_from_u64(5);
        for a in 0..BLOCKS {
            let mut b = [0u8; 64];
            rng.fill_bytes(&mut b[..]);
            cl.write_block(a, &b).expect("prefill");
        }
        let mut a = 0;
        rows.push(scenario(cfg, name, 64, || {
            a = (a + 1) % BLOCKS;
            let out = cl.read_block(a).expect("clean");
            (out.data[0], out.replica)
        }));
    }
    if wants(cfg, "cluster/read_repair") {
        let c = ClusterConfig {
            replicas: 2,
            write_quorum: 1,
            read_quorum: 1,
        };
        let mut cl = Cluster::local(3, BLOCKS, 5, c);
        let mut rng = StdRng::seed_from_u64(5);
        for a in 0..BLOCKS {
            let mut b = [0u8; 64];
            rng.fill_bytes(&mut b[..]);
            cl.write_block(a, &b).expect("prefill");
        }
        let mut a = 0;
        rows.push(scenario(cfg, "cluster/read_repair", 64, || {
            a = (a + 1) % BLOCKS;
            // Stale the *first* replica in placement order so the walk
            // skips it, serves from the second, and write-repairs it.
            cl.mark_replica_stale(a, 0);
            let out = cl.read_block(a).expect("repairable");
            assert_eq!(out.repaired, 1, "every op must heal the stale replica");
            out.data[0]
        }));
    }
}

/// Per-scenario regression thresholds for the baseline gate. Scenarios
/// dominated by rare slow iterations (fault-heavy reads, patrol-driven
/// stacks) get more headroom than tight single-kernel loops.
fn threshold_for(name: &str, default: f64) -> f64 {
    match name {
        "readpath/boot_rber_1e-3" | "readpath/runtime_rber_2e-4" | "writepath/bitwise_sum" => {
            default * 1.5
        }
        _ => default,
    }
}

/// Compares `rows` against a saved baseline report. Returns the
/// comparison rows and whether any scenario regressed past its
/// threshold.
fn compare_with_baseline(cfg: &Config, rows: &[Json], baseline_text: &str) -> (Vec<Json>, bool) {
    let baseline = match Json::parse(baseline_text) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("error: cannot parse baseline: {e}");
            std::process::exit(2);
        }
    };
    let empty = [];
    let base_rows = baseline
        .get("scenarios")
        .and_then(|s| s.as_array())
        .unwrap_or(&empty);
    let base_best = |name: &str| -> Option<f64> {
        base_rows
            .iter()
            .find(|r| r.get("name").and_then(|n| n.as_str()) == Some(name))
            .and_then(|r| r.get("ns_per_op_best"))
            .and_then(|v| v.as_f64())
    };
    let mut failed = false;
    let mut report = Vec::new();
    for row in rows {
        let name = row
            .get("name")
            .and_then(|n| n.as_str())
            .unwrap_or_default()
            .to_string();
        let cur = row
            .get("ns_per_op_best")
            .and_then(|v| v.as_f64())
            .unwrap_or(f64::INFINITY);
        let Some(base) = base_best(&name) else {
            eprintln!("baseline: {name:<28} (new scenario, not gated)");
            continue;
        };
        let ratio = cur / base;
        let limit = threshold_for(&name, cfg.max_regression);
        let regressed = ratio > limit;
        failed |= regressed;
        let verdict = if regressed { "REGRESSED" } else { "ok" };
        eprintln!(
            "baseline: {name:<28} {base:>10.0} -> {cur:>10.0} ns/op  ({ratio:>5.2}x, limit {limit:.2}x)  {verdict}"
        );
        report.push(
            Json::object()
                .with("name", name)
                .with("baseline_ns_per_op_best", base)
                .with("ratio", ratio)
                .with("limit", limit)
                .with("regressed", regressed),
        );
    }
    // A baseline row an unfiltered run did not produce was deleted or
    // renamed: say so in the log, never fail on it.
    if cfg.filter.is_none() {
        let ran = |name: &str| {
            rows.iter()
                .any(|r| r.get("name").and_then(|n| n.as_str()) == Some(name))
        };
        for name in base_rows.iter().filter_map(|r| r.get("name")?.as_str()) {
            if !ran(name) {
                eprintln!("baseline: {name:<28} (not run)");
            }
        }
    }
    (report, failed)
}

fn main() {
    let cfg = Config::from_args();
    let mut rows = Vec::new();
    gf_scenarios(&cfg, &mut rows);
    bch_scenarios(&cfg, &mut rows);
    rs_scenarios(&cfg, &mut rows);
    readpath_scenarios(&cfg, &mut rows);
    scrub_scenarios(&cfg, &mut rows);
    iocrc_scenarios(&cfg, &mut rows);
    tier_scenarios(&cfg, &mut rows);
    pmem_scenarios(&cfg, &mut rows);
    service_scenarios(&cfg, &mut rows);
    cluster_scenarios(&cfg, &mut rows);

    let mut doc = Json::object()
        .with("harness", "microbench")
        .with("iters_per_batch", cfg.iters)
        .with("batches", cfg.batches)
        .with(
            "host_threads",
            std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        )
        .with("scenarios", Json::Arr(rows.clone()));

    let mut failed = false;
    if let Some(path) = &cfg.baseline {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read baseline {path}: {e}");
            std::process::exit(2);
        });
        let (report, regressed) = compare_with_baseline(&cfg, &rows, &text);
        doc = doc.with("baseline_compare", Json::Arr(report));
        failed = regressed;
    }

    if cfg.pretty {
        println!("{}", doc.pretty());
    } else {
        println!("{}", doc.dump());
    }
    if failed {
        eprintln!("perf-smoke: regression beyond threshold — failing");
        std::process::exit(1);
    }
}
