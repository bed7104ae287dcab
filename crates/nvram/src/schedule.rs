//! Fault-schedule DSL: scripted, deterministic fault timelines.
//!
//! Field studies of DRAM/NVRAM faults show errors are bursty and
//! spatially correlated — stuck rows, dying chips, retention ramps — not
//! i.i.d. bit flips. A [`FaultSchedule`] scripts such a timeline as a
//! sorted list of [`FaultEvent`]s on an abstract cycle axis, so soak runs
//! and fault campaigns can replay the *same* adversarial history against
//! any component:
//!
//! * `pmck-core::engine` applies [`FaultKind::Burst`],
//!   [`FaultKind::RowFault`] and [`FaultKind::ChipKill`] events to its
//!   stored arrays (`ChipkillMemory::apply_fault_event`);
//! * `pmck-memsim` derives degraded-mode timing from the same schedule
//!   (`FaultTimeline`);
//! * the `soak` binary in `pmck-bench` drains events cycle by cycle while
//!   driving the full read/write/scrub/re-stripe stack.
//!
//! Schedules are written either programmatically or in a tiny line-based
//! text DSL (one event per line, `#` comments):
//!
//! ```text
//! at 0      rber 2e-4            # background RBER from cycle 0
//! at 1000   burst 6 width 64     # 6 flips within a 64-bit window
//! at 2000   row 3 7 rber 1e-2    # chip 3, stripe 7 degrades to 1e-2
//! ramp 3000..9000 rber 2e-4..1e-3  # retention ramp
//! at 5000   chipkill 4 garbage   # chip 4 dies mid-run
//! ```
//!
//! # Examples
//!
//! ```
//! use pmck_nvram::{FaultKind, FaultSchedule};
//!
//! let s = FaultSchedule::parse("at 0 rber 1e-4\nat 10 chipkill 2 stuck0").unwrap();
//! assert_eq!(s.events().len(), 2);
//! assert_eq!(s.rber_at(5), 1e-4);
//! assert!(matches!(s.events()[1].kind, FaultKind::ChipKill { chip: 2, .. }));
//! let round = FaultSchedule::from_json(&s.to_json()).unwrap();
//! assert_eq!(round.events().len(), 2);
//! ```

use std::fmt;

use pmck_rt::json::Json;

use crate::chipfail::ChipFailureKind;

/// What happens when a scheduled fault fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The background raw bit error rate becomes `rber` from this cycle
    /// on (until the next rate event).
    Rber {
        /// New background RBER.
        rber: f64,
    },
    /// The background RBER ramps linearly from `from` to `to` over
    /// `over_cycles` cycles starting at the event cycle (a retention
    /// drift or thermal excursion).
    RberRamp {
        /// Rate at the start of the ramp.
        from: f64,
        /// Rate once the ramp completes.
        to: f64,
        /// Ramp duration in cycles (the rate stays at `to` afterwards).
        over_cycles: u64,
    },
    /// A burst of `bits` flips confined to a window of `width_bits`
    /// consecutive stored bits (optionally pinned to one chip).
    Burst {
        /// Number of bit flips in the burst.
        bits: u32,
        /// Width of the window the flips land in, in bits.
        width_bits: u32,
        /// Chip to hit; `None` picks one deterministically from the
        /// campaign RNG.
        chip: Option<usize>,
    },
    /// A spatially-correlated row fault: one chip's slice of one stripe
    /// degrades to `rber` (data and code bits alike).
    RowFault {
        /// The chip whose row is faulty.
        chip: usize,
        /// The stripe (VLEW group) holding the faulty row.
        stripe: usize,
        /// Error rate applied across that region.
        rber: f64,
    },
    /// A whole chip fails with the given corruption pattern.
    ChipKill {
        /// The failed chip index.
        chip: usize,
        /// How the dead chip corrupts its output.
        kind: ChipFailureKind,
    },
}

/// One scheduled fault: what happens, and on which cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Cycle on which the fault fires.
    pub at_cycle: u64,
    /// The fault itself.
    pub kind: FaultKind,
}

/// A parse or decode failure for a schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleError {
    /// What went wrong.
    pub message: String,
    /// The 1-based source line (0 for JSON decode errors).
    pub line: usize,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "schedule line {}: {}", self.line, self.message)
        } else {
            write!(f, "schedule: {}", self.message)
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A deterministic fault timeline: events sorted by cycle.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule (no faults ever fire).
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// Adds an event, keeping the list sorted by cycle (stable for equal
    /// cycles: earlier insertions fire first).
    pub fn push(&mut self, event: FaultEvent) -> &mut Self {
        let idx = self
            .events
            .partition_point(|e| e.at_cycle <= event.at_cycle);
        self.events.insert(idx, event);
        self
    }

    /// Builder-style [`FaultSchedule::push`].
    pub fn with(mut self, at_cycle: u64, kind: FaultKind) -> Self {
        self.push(FaultEvent { at_cycle, kind });
        self
    }

    /// All events, ascending by cycle.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The events firing in `[from, to)`, ascending.
    pub fn events_in(&self, from: u64, to: u64) -> &[FaultEvent] {
        let lo = self.events.partition_point(|e| e.at_cycle < from);
        let hi = self.events.partition_point(|e| e.at_cycle < to);
        &self.events[lo..hi]
    }

    /// The last cycle on which anything fires (ramps extend to their
    /// completion), or 0 for an empty schedule.
    pub fn horizon(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e.kind {
                FaultKind::RberRamp { over_cycles, .. } => e.at_cycle + over_cycles,
                _ => e.at_cycle,
            })
            .max()
            .unwrap_or(0)
    }

    /// The background RBER in effect at `cycle`: the most recent
    /// [`FaultKind::Rber`] value, or the interpolated value of an active
    /// (or completed) [`FaultKind::RberRamp`]. Zero before any rate event.
    pub fn rber_at(&self, cycle: u64) -> f64 {
        let mut rber = 0.0;
        for e in &self.events {
            if e.at_cycle > cycle {
                break;
            }
            match e.kind {
                FaultKind::Rber { rber: r } => rber = r,
                FaultKind::RberRamp {
                    from,
                    to,
                    over_cycles,
                } => {
                    let elapsed = cycle - e.at_cycle;
                    rber = if over_cycles == 0 || elapsed >= over_cycles {
                        to
                    } else {
                        from + (to - from) * (elapsed as f64 / over_cycles as f64)
                    };
                }
                _ => {}
            }
        }
        rber
    }

    /// Parses the line-based text DSL (see the module docs for the
    /// grammar).
    ///
    /// # Errors
    ///
    /// [`ScheduleError`] naming the offending line.
    pub fn parse(text: &str) -> Result<Self, ScheduleError> {
        let mut schedule = FaultSchedule::new();
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            let src = raw.split('#').next().unwrap_or("").trim();
            if src.is_empty() {
                continue;
            }
            let toks: Vec<&str> = src.split_whitespace().collect();
            let event = match toks[..] {
                ["at", cycle, ref fault @ ..] => number(cycle).and_then(|at_cycle| {
                    let kind = parse_kind(fault)?;
                    Ok(FaultEvent { at_cycle, kind })
                }),
                ["ramp", cycles, "rber", rates] => parse_ramp(cycles, rates),
                ["at", ..] => Err("expected `at <cycle> <fault>...`".into()),
                ["ramp", ..] => Err("expected `ramp <c0>..<c1> rber <p0>..<p1>`".into()),
                [other, ..] => Err(format!("unknown directive `{other}`")),
                [] => unreachable!("blank lines are skipped"),
            };
            schedule.push(event.map_err(|message| ScheduleError { message, line })?);
        }
        Ok(schedule)
    }

    /// Serializes the schedule as a JSON value (the corpus/report
    /// format).
    pub fn to_json(&self) -> Json {
        let mut arr = Json::array();
        for e in &self.events {
            let mut o = Json::object();
            o.set("at", e.at_cycle);
            match e.kind {
                FaultKind::Rber { rber } => {
                    o.set("kind", "rber").set("rber", rber);
                }
                FaultKind::RberRamp {
                    from,
                    to,
                    over_cycles,
                } => {
                    o.set("kind", "ramp")
                        .set("from", from)
                        .set("to", to)
                        .set("over", over_cycles);
                }
                FaultKind::Burst {
                    bits,
                    width_bits,
                    chip,
                } => {
                    o.set("kind", "burst")
                        .set("bits", bits)
                        .set("width", width_bits);
                    if let Some(c) = chip {
                        o.set("chip", c);
                    }
                }
                FaultKind::RowFault { chip, stripe, rber } => {
                    o.set("kind", "row")
                        .set("chip", chip)
                        .set("stripe", stripe)
                        .set("rber", rber);
                }
                FaultKind::ChipKill { chip, kind } => {
                    o.set("kind", "chipkill")
                        .set("chip", chip)
                        .set("failure", failure_name(kind));
                }
            }
            arr.push(o);
        }
        Json::object().with("events", arr)
    }

    /// Decodes a schedule from its [`FaultSchedule::to_json`] form.
    ///
    /// # Errors
    ///
    /// [`ScheduleError`] (line 0) describing the malformed field.
    pub fn from_json(json: &Json) -> Result<Self, ScheduleError> {
        let err = |message: &str| ScheduleError {
            message: message.to_owned(),
            line: 0,
        };
        let events = json
            .get("events")
            .and_then(Json::as_array)
            .ok_or_else(|| err("missing `events` array"))?;
        let mut schedule = FaultSchedule::new();
        for e in events {
            let at_cycle = e
                .get("at")
                .and_then(Json::as_u64)
                .ok_or_else(|| err("event missing `at`"))?;
            let kind_name = e
                .get("kind")
                .and_then(Json::as_str)
                .ok_or_else(|| err("event missing `kind`"))?;
            let f64_field = |key: &str| {
                e.get(key)
                    .and_then(Json::as_f64)
                    .filter(|r| (0.0..1.0).contains(r))
                    .ok_or_else(|| err(&format!("`{kind_name}` needs `{key}` in [0, 1)")))
            };
            let u64_field = |key: &str| {
                e.get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| err(&format!("`{kind_name}` missing `{key}`")))
            };
            let kind = match kind_name {
                "rber" => FaultKind::Rber {
                    rber: f64_field("rber")?,
                },
                "ramp" => FaultKind::RberRamp {
                    from: f64_field("from")?,
                    to: f64_field("to")?,
                    over_cycles: u64_field("over")?,
                },
                "burst" => FaultKind::Burst {
                    bits: u64_field("bits")? as u32,
                    width_bits: u64_field("width")? as u32,
                    chip: e.get("chip").and_then(Json::as_u64).map(|c| c as usize),
                },
                "row" => FaultKind::RowFault {
                    chip: u64_field("chip")? as usize,
                    stripe: u64_field("stripe")? as usize,
                    rber: f64_field("rber")?,
                },
                "chipkill" => FaultKind::ChipKill {
                    chip: u64_field("chip")? as usize,
                    kind: e
                        .get("failure")
                        .and_then(Json::as_str)
                        .and_then(failure_from_name)
                        .ok_or_else(|| err("`chipkill` missing/invalid `failure`"))?,
                },
                other => return Err(err(&format!("unknown event kind `{other}`"))),
            };
            schedule.push(FaultEvent { at_cycle, kind });
        }
        Ok(schedule)
    }
}

/// One fault, every token of it: each form is matched whole, so a fault
/// followed by more tokens is an error, not a fault.
fn parse_kind(toks: &[&str]) -> Result<FaultKind, String> {
    Ok(match *toks {
        ["rber", p] => FaultKind::Rber {
            rber: parse_rate(p)?,
        },
        ["burst", bits, "width", width] | ["burst", bits, "width", width, "chip", _] => {
            FaultKind::Burst {
                bits: number(bits)?,
                width_bits: number(width)?,
                chip: toks.get(5).map(|c| number(c)).transpose()?,
            }
        }
        ["row", chip, stripe, "rber", p] => FaultKind::RowFault {
            chip: number(chip)?,
            stripe: number(stripe)?,
            rber: parse_rate(p)?,
        },
        ["chipkill", chip, failure] => FaultKind::ChipKill {
            chip: number(chip)?,
            kind: failure_from_name(failure)
                .ok_or("failure must be stuck0|stuck1|garbage|silent")?,
        },
        ["rber", ..] => return Err("expected `rber <p>`".into()),
        ["burst", ..] => return Err("expected `burst <bits> width <w> [chip <c>]`".into()),
        ["row", ..] => return Err("expected `row <chip> <stripe> rber <p>`".into()),
        ["chipkill", ..] => return Err("expected `chipkill <chip> <failure>`".into()),
        [other, ..] => return Err(format!("unknown fault `{other}`")),
        [] => return Err("missing fault".into()),
    })
}

fn number<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid number `{s}`"))
}

/// `ramp <c0>..<c1> rber <p0>..<p1>`: a ramp over cycles `c0..c1`.
fn parse_ramp(cycles: &str, rates: &str) -> Result<FaultEvent, String> {
    let (c0, c1) = cycles.split_once("..").ok_or("expected `<c0>..<c1>`")?;
    let (p0, p1) = rates.split_once("..").ok_or("expected `<p0>..<p1>`")?;
    let (at_cycle, end): (u64, u64) = (number(c0)?, number(c1)?);
    let kind = FaultKind::RberRamp {
        from: parse_rate(p0)?,
        to: parse_rate(p1)?,
        over_cycles: end.checked_sub(at_cycle).ok_or("ramp end before start")?,
    };
    Ok(FaultEvent { at_cycle, kind })
}

/// A bit error rate: a number in `[0, 1)`, so never NaN or infinite.
fn parse_rate(s: &str) -> Result<f64, String> {
    s.parse()
        .ok()
        .filter(|r| (0.0..1.0).contains(r))
        .ok_or_else(|| format!("a rate must be a number in [0, 1), not `{s}`"))
}

fn failure_name(kind: ChipFailureKind) -> &'static str {
    match kind {
        ChipFailureKind::StuckZero => "stuck0",
        ChipFailureKind::StuckOne => "stuck1",
        ChipFailureKind::RandomGarbage => "garbage",
        ChipFailureKind::SilentControl => "silent",
    }
}

fn failure_from_name(name: &str) -> Option<ChipFailureKind> {
    match name {
        "stuck0" => Some(ChipFailureKind::StuckZero),
        "stuck1" => Some(ChipFailureKind::StuckOne),
        "garbage" => Some(ChipFailureKind::RandomGarbage),
        "silent" => Some(ChipFailureKind::SilentControl),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_directive() {
        let text = "\
# a comment
at 0    rber 2e-4
at 1000 burst 6 width 64
at 1500 burst 3 width 32 chip 2
at 2000 row 3 7 rber 1e-2
ramp 3000..9000 rber 2e-4..1e-3
at 5000 chipkill 4 garbage
";
        let s = FaultSchedule::parse(text).unwrap();
        assert_eq!(s.events().len(), 6);
        assert_eq!(s.events()[0].kind, FaultKind::Rber { rber: 2e-4 });
        assert_eq!(
            s.events()[2].kind,
            FaultKind::Burst {
                bits: 3,
                width_bits: 32,
                chip: Some(2)
            }
        );
        assert_eq!(
            s.events()[3].kind,
            FaultKind::RowFault {
                chip: 3,
                stripe: 7,
                rber: 1e-2
            }
        );
        assert_eq!(s.horizon(), 9000);
    }

    #[test]
    fn rejects_bad_lines_with_line_numbers() {
        for (text, line) in [
            ("at x rber 1e-3", 1),
            ("\nat 5 frobnicate", 2),
            ("burst 3 width 4", 1),
            ("at 1 burst 3", 1),
            ("ramp 9..3 rber 0..0", 1),
            ("at 1 chipkill 0 explode", 1),
        ] {
            let err = FaultSchedule::parse(text).unwrap_err();
            assert_eq!(err.line, line, "{text:?} -> {err}");
        }
    }

    /// The line `text` is refused, and the error names line 1.
    fn refused(text: &str) {
        let err = FaultSchedule::parse(text).expect_err(text);
        assert_eq!(err.line, 1, "{text:?} -> {err}");
    }

    #[test]
    fn rejects_a_negative_rate() {
        refused("at 0 rber -1");
    }

    #[test]
    fn rejects_a_nan_rate() {
        refused("at 0 rber nan");
    }

    #[test]
    fn rejects_an_infinite_rate() {
        refused("at 0 rber 1e400");
        refused("ramp 0..10 rber 1e-4..inf");
    }

    #[test]
    fn rejects_a_row_fault_rate_out_of_range() {
        refused("at 0 row 2 1 rber 1.0");
    }

    #[test]
    fn rejects_trailing_tokens() {
        refused("at 0 row 2 1 rber 5e-3 extra");
        refused("at 0 rber 1e-3 2e-3");
        refused("at 0 burst 3 width 32 chip 2 extra");
        refused("at 0 chipkill 4 garbage now");
    }

    #[test]
    fn rber_resolution_with_ramp() {
        let s = FaultSchedule::parse("at 0 rber 1e-4\nramp 100..200 rber 1e-4..1e-3").unwrap();
        assert_eq!(s.rber_at(0), 1e-4);
        assert_eq!(s.rber_at(99), 1e-4);
        let mid = s.rber_at(150);
        assert!((mid - 5.5e-4).abs() < 1e-9, "mid {mid}");
        assert_eq!(s.rber_at(200), 1e-3);
        assert_eq!(s.rber_at(10_000), 1e-3);
    }

    #[test]
    fn rber_before_any_event_is_zero() {
        let s = FaultSchedule::new().with(50, FaultKind::Rber { rber: 0.5 });
        assert_eq!(s.rber_at(0), 0.0);
        assert_eq!(s.rber_at(50), 0.5);
    }

    #[test]
    fn events_in_window() {
        let s = FaultSchedule::new()
            .with(10, FaultKind::Rber { rber: 1e-4 })
            .with(20, FaultKind::Rber { rber: 2e-4 })
            .with(30, FaultKind::Rber { rber: 3e-4 });
        assert_eq!(s.events_in(0, 10).len(), 0);
        assert_eq!(s.events_in(10, 30).len(), 2);
        assert_eq!(s.events_in(0, 100).len(), 3);
    }

    #[test]
    fn push_keeps_sorted_order() {
        let s = FaultSchedule::new()
            .with(30, FaultKind::Rber { rber: 3e-4 })
            .with(10, FaultKind::Rber { rber: 1e-4 })
            .with(20, FaultKind::Rber { rber: 2e-4 });
        let cycles: Vec<u64> = s.events().iter().map(|e| e.at_cycle).collect();
        assert_eq!(cycles, vec![10, 20, 30]);
    }

    #[test]
    fn json_round_trip() {
        let s = FaultSchedule::parse(
            "at 0 rber 2e-4\nat 10 burst 4 width 16 chip 1\nat 20 row 2 5 rber 1e-2\n\
             ramp 30..40 rber 1e-4..1e-3\nat 50 chipkill 8 stuck1",
        )
        .unwrap();
        let round = FaultSchedule::from_json(&s.to_json()).unwrap();
        assert_eq!(round, s);
    }

    #[test]
    fn from_json_rejects_malformed() {
        let bad = Json::parse(r#"{"events":[{"at":1,"kind":"chipkill","chip":0}]}"#).unwrap();
        assert!(FaultSchedule::from_json(&bad).is_err());
        let bad2 = Json::parse(r#"{"nope":[]}"#).unwrap();
        assert!(FaultSchedule::from_json(&bad2).is_err());
    }
}
