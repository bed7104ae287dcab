//! The benchmark's inputs and counts repeat: the same seed gives the
//! same stream and the same traced counts, another seed another stream,
//! and every stream keeps the op mix the README states.

use pmck_benchmark::ladder::run_traced;
use pmck_benchmark::report::Record;
use pmck_benchmark::spec::{Workload, END_TO_END, PER_LAYER};
use pmck_benchmark::stream::{prefill_data, stream_hash, Mix, StreamGen, StreamKind};
use pmck_core::Request;
use pmck_rt::Json;

/// The smoke scale: 1/64 of every size.
const SCALE: u64 = 64;

fn stream(spec: &str, kind: StreamKind, seed: u64, n: usize) -> Vec<Request> {
    // The size of the two mixes' devices: how often a write-back finds
    // its block loaded depends on how many trace addresses fold onto it.
    let blocks = 16 * 1024;
    let prefill = prefill_data(blocks, seed);
    let mut gen = StreamGen::new(spec, blocks, seed, kind, &prefill);
    let mut out = Vec::new();
    gen.extend(&mut out, n);
    out
}

#[test]
fn same_seed_same_stream_other_seed_other_stream() {
    for (spec, kind) in [
        ("memcached", StreamKind::Reads),
        ("memcached", StreamKind::Mix { flushes: true }),
        ("hashmap", StreamKind::Mix { flushes: false }),
        ("ycsb", StreamKind::Reads),
    ] {
        let a = stream_hash(&stream(spec, kind, 7, 4096));
        assert_eq!(
            a,
            stream_hash(&stream(spec, kind, 7, 4096)),
            "{spec}: same seed"
        );
        assert_ne!(
            a,
            stream_hash(&stream(spec, kind, 11, 4096)),
            "{spec}: other seed"
        );
    }
}

#[test]
fn traced_counts_repeat_exactly() {
    for workload in Workload::ALL {
        let counts = |seed| {
            let traced = run_traced(workload, seed, SCALE).expect("set-up succeeds");
            let record = Record::of_traced(&traced);
            assert!(
                record.correct,
                "{}: a rung answered wrongly",
                workload.name()
            );
            record.counts
        };
        let first = counts(7);
        assert_eq!(first, counts(7), "{}: same seed", workload.name());
        assert_ne!(
            first[0],
            counts(11)[0],
            "{}: other seed, other stream hash",
            workload.name()
        );
    }
}

fn share_in(name: &str, share: f64, lo: f64, hi: f64) {
    assert!(
        (lo..=hi).contains(&share),
        "{name} share {share:.3} outside {lo}..={hi}"
    );
}

#[test]
fn op_mix_shares_stay_in_their_stated_ranges() {
    for seed in [7, 11, 13] {
        let m = Mix::of(&stream(
            "memcached",
            StreamKind::Mix { flushes: true },
            seed,
            40_000,
        ));
        share_in("memcached read", m.share(m.reads), 0.40, 0.54);
        share_in("memcached write", m.share(m.writes), 0.05, 0.16);
        share_in("memcached write_sum", m.share(m.write_sums), 0.24, 0.36);
        share_in("memcached flush", m.share(m.flushes), 0.08, 0.18);

        let m = Mix::of(&stream(
            "hashmap",
            StreamKind::Mix { flushes: false },
            seed,
            40_000,
        ));
        share_in("hashmap read", m.share(m.reads), 0.20, 0.30);
        share_in(
            "hashmap write",
            m.share(m.writes + m.write_sums),
            0.70,
            0.80,
        );
        let sums_of_writes = m.write_sums as f64 / (m.writes + m.write_sums) as f64;
        share_in("hashmap sums of writes", sums_of_writes, 0.25, 0.42);
        assert_eq!(m.flushes, 0, "write_mix is volatile");

        for spec in ["memcached", "ycsb"] {
            let m = Mix::of(&stream(spec, StreamKind::Reads, seed, 10_000));
            assert_eq!(m.reads, 10_000, "{spec}: a read stream holds reads only");
        }
    }
}

/// `BENCHMARK.json` repeats the tables of `spec.rs`; the driver reads
/// the former, the program prints by the latter.
#[test]
fn benchmark_json_matches_the_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = Json::parse(&text).expect("valid JSON");
    let names = |key: &str| -> Vec<(String, String, String)> {
        let list = json.get(key).and_then(Json::as_array).expect(key);
        let field = |m: &Json, f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
        list.iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect()
    };
    let workloads: Vec<String> = names("workloads").into_iter().map(|w| w.0).collect();
    assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));

    let universal = END_TO_END.iter().filter(|m| m.universal);
    let expected: Vec<_> = universal
        .clone()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.as_str().to_string(),
            )
        })
        .collect();
    assert_eq!(names("end_to_end"), expected);
    let bounds = json
        .get("end_to_end")
        .and_then(Json::as_array)
        .expect("end_to_end");
    for (listed, m) in bounds.iter().zip(universal) {
        assert_eq!(
            listed.get("bound").and_then(Json::as_f64),
            Some(m.bound),
            "{}",
            m.name
        );
    }

    let expected: Vec<_> = PER_LAYER
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.as_str().to_string(),
            )
        })
        .collect();
    assert_eq!(names("per_layer"), expected);
}
