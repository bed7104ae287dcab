//! Properties for `pmck_rt::json` on the harness runner: `parse ∘ dump`
//! and `parse ∘ pretty` are the identity on generated value trees,
//! including escape-heavy strings, nested arrays/objects, and both
//! integer flavors; and `parse` answers every mangled text without
//! panicking.

use pmck_harness::{JsonCase, Runner};
use pmck_rt::{Json, Rng};

/// Bytes that steer random text into the parser's deeper branches.
const JSON_BYTES: &[u8] = b"[]{}\",:-+.eE0123456789 \\u\ntrufalsn";

#[test]
fn parse_after_dump_is_identity() {
    Runner::new("rt:json:roundtrip-compact")
        .seed(0xD0C)
        .cases(3000)
        .run(
            |rng| JsonCase::generate(rng, 4),
            |case| {
                let text = case.0.dump();
                match Json::parse(&text) {
                    Ok(back) if back == case.0 => Ok(()),
                    Ok(back) => Err(format!(
                        "round trip changed the value: {text} reparsed as {}",
                        back.dump()
                    )),
                    Err(e) => Err(format!("reparse failed on {text}: {e}")),
                }
            },
        );
}

#[test]
fn parse_after_pretty_is_identity() {
    Runner::new("rt:json:roundtrip-pretty")
        .seed(0xD0D)
        .cases(3000)
        .run(
            |rng| JsonCase::generate(rng, 4),
            |case| {
                let text = case.0.pretty();
                match Json::parse(&text) {
                    Ok(back) if back == case.0 => Ok(()),
                    Ok(back) => Err(format!(
                        "pretty round trip changed the value: {} vs {}",
                        case.0.dump(),
                        back.dump()
                    )),
                    Err(e) => Err(format!("reparse of pretty output failed: {e}")),
                }
            },
        );
}

#[test]
fn dump_and_pretty_parse_to_the_same_value() {
    Runner::new("rt:json:dump-pretty-agree")
        .seed(0xD0E)
        .cases(1000)
        .run(
            |rng| JsonCase::generate(rng, 3),
            |case| {
                let compact = Json::parse(&case.0.dump()).map_err(|e| e.to_string())?;
                let pretty = Json::parse(&case.0.pretty()).map_err(|e| e.to_string())?;
                if compact == pretty {
                    Ok(())
                } else {
                    Err("compact and pretty renderings disagree after parsing".into())
                }
            },
        );
}

/// Truncations and single-byte mutations of generated documents, and
/// random bytes: `parse` returns `Ok` or `Err` on every one, never
/// panics. The case is the mangled text itself, held as a JSON string
/// (invalid UTF-8 replaced), so a failure shrinks by halving it.
#[test]
fn parse_never_panics_on_mangled_text() {
    Runner::new("rt:json:mangled-never-panics")
        .seed(0xD0F)
        .cases(3000)
        .run(
            |rng| {
                let mut bytes = JsonCase::generate(rng, 4).0.dump().into_bytes();
                match rng.gen_range(0u32..3) {
                    0 => bytes.truncate(rng.gen_range(0..=bytes.len())),
                    1 => {
                        let i = rng.gen_range(0..bytes.len());
                        bytes[i] = rng.gen_range(0..=u8::MAX);
                    }
                    _ => {
                        bytes = (0..rng.gen_range(0usize..64))
                            .map(|_| {
                                if rng.gen_bool(0.5) {
                                    JSON_BYTES[rng.gen_range(0..JSON_BYTES.len())]
                                } else {
                                    rng.gen_range(0..=u8::MAX)
                                }
                            })
                            .collect()
                    }
                }
                JsonCase(Json::Str(String::from_utf8_lossy(&bytes).into_owned()))
            },
            |case| {
                let text = case.0.as_str().unwrap_or_default();
                std::panic::catch_unwind(|| Json::parse(text))
                    .map(drop)
                    .map_err(|_| format!("parse panicked on {text:?}"))
            },
        );
}
