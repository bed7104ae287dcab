//! The untraced run: set-up, throughput windows and latency windows of
//! one workload, every response judged by the oracle.
//!
//! Every window runs a count of requests fixed before its clock starts
//! (the rate of the window before times the window length), so a
//! throughput window reads the clock twice and a mix never stops half
//! way through a generated chunk.

use std::time::{Duration, Instant};

use pmck_core::{CoreError, Request, Response};

use crate::alloc::prefaulted;
use crate::oracle::{Mirror, Tally, Verdict};
use crate::spec::{Params, Workload, AGED_RBER};
use crate::stream::{prefill_data, stream_hash, Block, Mix, StreamGen};
use crate::sut::{run_checked, Sut, Window};

/// Times the set-up is repeated; `setup_s` is the median.
pub const SETUPS: usize = 3;
/// Throughput windows after the discarded warm-up.
pub const THROUGHPUT_WINDOWS: usize = 25;
/// Latency windows after their discarded warm-up.
pub const LATENCY_WINDOWS: usize = 12;
/// The share of the windows that a reported timing leaves on its better
/// side: `throughput_ops_s` is the 0.9 quantile of the windows' rates
/// and a latency the 0.1 quantile of the windows' values. The reference
/// host shares its processor caches with other guests, which slow a
/// window by up to 40% and never speed one up, for seconds at a time:
/// the windows the host left alone say what the program does, the median
/// window says how busy the neighbours were. Over eight runs in a busy
/// half hour the quartiles of the median window's rate lay 7 to 10% of
/// their median apart on the five workloads, those of the 0.75 quantile
/// 4 to 7% and those of the 0.9 quantile 2 to 4%.
pub const QUIET: f64 = 0.1;
/// The tail quantile reported beside the median. On the reference host
/// no p99 repeats within a tenth from run to run (a write_mix read p99
/// moves by 60%, a persist_mix one by 64%), so the tail is the p90.
pub const TAIL: f64 = 0.90;
/// The p99, kept in the detail of every record.
pub const UPPER_TAIL: f64 = 0.99;
/// Requests of a mix generated, untimed, at a time: a window runs them
/// chunk after chunk, so that memory does not grow with the rate.
const FRESH_CHUNK: usize = 4096;
/// Requests after the last flush that a power cut of `persist_mix`
/// must lose.
const UNFLUSHED_TAIL: usize = 64;
/// Power cuts at the end of `persist_mix`; `recovery_s` is the median.
pub const CRASHES: usize = 9;

/// Where a run's requests come from.
// One feed lives per run; boxing the generator would buy nothing.
#[allow(clippy::large_enum_variant)]
pub enum Feed {
    /// A fixed read stream the windows cycle through.
    Cyclic {
        /// The stream.
        stream: Vec<Request>,
        /// Index of the next request.
        cursor: usize,
    },
    /// The endless mix; every window gets requests nobody has run yet.
    Fresh {
        /// The generator, carrying the stream's state.
        gen: StreamGen,
        /// The chunk of the current window.
        chunk: Vec<Request>,
    },
}

impl Feed {
    /// The feed of `p`, at the start of its stream.
    pub fn new(p: &Params, seed: u64, prefill: &[Block]) -> Feed {
        let mut gen = StreamGen::new(p.trace_spec, p.blocks, seed, p.kind, prefill);
        if p.cycle > 0 {
            let mut stream = Vec::new();
            gen.extend(&mut stream, p.cycle);
            Feed::Cyclic { stream, cursor: 0 }
        } else {
            let chunk = Vec::with_capacity(FRESH_CHUNK);
            Feed::Fresh { gen, chunk }
        }
    }
}

/// The first `n` requests of `p`'s stream: what the traced run replays
/// and the stream hash covers. The untraced windows start with the same
/// requests.
pub fn stream_prefix(p: &Params, seed: u64, prefill: &[Block], n: usize) -> Vec<Request> {
    let mut gen = StreamGen::new(p.trace_spec, p.blocks, seed, p.kind, prefill);
    let mut prefix = Vec::new();
    gen.extend(&mut prefix, n);
    prefix
}

/// Latency samples of one window, in ns, by request kind.
#[derive(Default)]
pub struct Samples {
    /// `Read`
    pub read: Vec<u32>,
    /// `Write` and `WriteSum`
    pub write: Vec<u32>,
    /// `Flush`
    pub flush: Vec<u32>,
}

impl Samples {
    fn with_capacity(n: usize) -> Self {
        Samples {
            read: prefaulted(n, u32::MAX),
            write: prefaulted(n, u32::MAX),
            flush: prefaulted(n / 4, u32::MAX),
        }
    }

    fn of(&mut self, req: &Request) -> &mut Vec<u32> {
        match req {
            Request::Read(_) => &mut self.read,
            Request::Flush => &mut self.flush,
            _ => &mut self.write,
        }
    }
}

/// The `q` quantile of sorted whole-nanosecond samples, interpolated
/// inside the run of equal samples it falls in (the grouped-data
/// estimate: a sample of `v` ns stands for the interval `v ± 0.5`), so
/// that a clock that counts whole nanoseconds does not quantise the
/// result.
pub fn quantile<T: Copy + PartialOrd>(sorted: &[T], q: f64, ns: impl Fn(T) -> f64) -> f64 {
    let rank = q * sorted.len() as f64;
    let at = (rank.ceil() as usize).clamp(1, sorted.len()) - 1;
    let v = sorted[at];
    let lo = sorted.partition_point(|x| *x < v);
    let hi = sorted.partition_point(|x| *x <= v);
    ns(v) - 0.5 + (rank - lo as f64).clamp(0.0, (hi - lo) as f64) / (hi - lo) as f64
}

/// The `q` quantile of a few values, interpolated linearly between the
/// two it falls between.
pub fn quantile_of(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = q * (v.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

/// The median of a few values.
pub fn median(values: &[f64]) -> f64 {
    quantile_of(values, 0.5)
}

/// Typical and tail latency of one request kind.
#[derive(Debug, Clone)]
pub struct Latency {
    /// The [`QUIET`] quantile over the windows of each window's
    /// interquartile mean.
    pub iqm_ns: f64,
    /// The same of each window's p50.
    pub p50_ns: f64,
    /// The same of each window's tail quantile.
    pub tail_ns: f64,
    /// The same of [`UPPER_TAIL`].
    pub upper_tail_ns: f64,
    /// Raw samples over all windows.
    pub samples: usize,
    /// Each window's interquartile mean.
    pub window_iqms_ns: Vec<f64>,
}

/// The interquartile mean of sorted samples: the mean of the middle
/// half, from the lower quartile to the upper.
fn iqm_ns(sorted: &[u32]) -> f64 {
    let lo = sorted.len() / 4;
    let hi = (sorted.len() * 3 / 4).max(lo + 1);
    let sum: u64 = sorted[lo..hi].iter().map(|ns| u64::from(*ns)).sum();
    sum as f64 / (hi - lo) as f64
}

/// What one latency window measured of one request kind.
#[derive(Debug, Clone, Copy)]
struct Summary {
    iqm_ns: f64,
    p50_ns: f64,
    tail_ns: f64,
    upper_tail_ns: f64,
    samples: usize,
}

impl Summary {
    fn of(samples: &mut [u32]) -> Option<Summary> {
        samples.sort_unstable();
        let sorted = &*samples;
        (!sorted.is_empty()).then(|| Summary {
            iqm_ns: iqm_ns(sorted),
            p50_ns: quantile(sorted, 0.5, f64::from),
            tail_ns: quantile(sorted, TAIL, f64::from),
            upper_tail_ns: quantile(sorted, UPPER_TAIL, f64::from),
            samples: sorted.len(),
        })
    }
}

/// What one latency window measured, by request kind. The samples are
/// dropped once summed up, so that the resident set does not grow with
/// the rate.
#[derive(Debug, Clone, Copy, Default)]
struct WindowLatency {
    read: Option<Summary>,
    write: Option<Summary>,
    flush: Option<Summary>,
}

impl Samples {
    fn summarize(mut self) -> WindowLatency {
        WindowLatency {
            read: Summary::of(&mut self.read),
            write: Summary::of(&mut self.write),
            flush: Summary::of(&mut self.flush),
        }
    }
}

fn latency_of(
    windows: &[WindowLatency],
    pick: impl Fn(&WindowLatency) -> Option<Summary>,
) -> Option<Latency> {
    let of: Vec<Summary> = windows.iter().filter_map(pick).collect();
    let quiet = |f: fn(&Summary) -> f64| quantile_of(&of.iter().map(f).collect::<Vec<_>>(), QUIET);
    (!of.is_empty()).then(|| Latency {
        iqm_ns: quiet(|s| s.iqm_ns),
        p50_ns: quiet(|s| s.p50_ns),
        tail_ns: quiet(|s| s.tail_ns),
        upper_tail_ns: quiet(|s| s.upper_tail_ns),
        samples: of.iter().map(|s| s.samples).sum(),
        window_iqms_ns: of.iter().map(|s| s.iqm_ns).collect(),
    })
}

/// Everything the untraced run of one workload measured.
pub struct Untraced {
    /// The workload's parameters.
    pub params: Params,
    /// The seed of inputs and stacks.
    pub seed: u64,
    /// Hash of the first `n_trace` requests of the stream.
    pub stream_hash: u64,
    /// Mix of those requests.
    pub mix: Mix,
    /// Seconds of each of the [`SETUPS`] set-ups.
    pub setups_s: Vec<f64>,
    /// Requests per second of each throughput window.
    pub throughput: Vec<f64>,
    /// Read latency at one request outstanding.
    pub read: Option<Latency>,
    /// Latency of both write kinds.
    pub write: Option<Latency>,
    /// Flush latency.
    pub flush: Option<Latency>,
    /// What the oracle counted over every window.
    pub tally: Tally,
    /// Seconds from `PowerCut` to `Recover` acknowledged.
    pub recovery_s: Option<f64>,
    /// Blocks that, after recovery, did not hold what the last
    /// acknowledged flush promised.
    pub durability_violations: Option<u64>,
    /// Stored bits beyond the user's, per user bit, of the system as
    /// built.
    pub storage_overhead_ratio: f64,
    /// Peak resident set of this process.
    pub peak_rss_mib: f64,
}

struct Runner<'a> {
    p: &'a Params,
    sut: Sut,
    feed: Feed,
    mirror: Mirror,
    tally: Tally,
}

impl Runner<'_> {
    /// Untimed ageing before a cycle of the read stream.
    fn age(&mut self) {
        for req in [Request::BootScrub, Request::InjectRber(AGED_RBER)] {
            let resp = self.sut.port().submit(&req);
            self.tally.record(self.mirror.judge(&req, &resp));
        }
    }

    /// Runs the next `n` requests of the feed at `depth` outstanding
    /// and returns the time they took. With `samples`, every request is
    /// timestamped (and `depth` must be 1).
    fn run(&mut self, n: usize, depth: usize, mut samples: Option<&mut Samples>) -> Duration {
        let mut window = Window::new(self.p.transport, depth);
        let mut timed = Duration::ZERO;
        let mut left = n;
        while left > 0 {
            if self.p.aged && matches!(self.feed, Feed::Cyclic { cursor: 0, .. }) {
                self.age();
            }
            let slice: &[Request] = match &mut self.feed {
                Feed::Cyclic { stream, cursor } => {
                    let take = left.min(stream.len() - *cursor);
                    let slice = &stream[*cursor..*cursor + take];
                    *cursor = (*cursor + take) % stream.len();
                    slice
                }
                Feed::Fresh { gen, chunk } => {
                    chunk.clear();
                    gen.extend(chunk, left.min(FRESH_CHUNK));
                    chunk
                }
            };
            left -= slice.len();
            let port = self.sut.port();
            let start = Instant::now();
            match samples.as_deref_mut() {
                None => run_checked(port, &mut window, slice, &mut self.mirror, &mut self.tally),
                Some(samples) => {
                    let (mirror, tally) = (&mut self.mirror, &mut self.tally);
                    let mut judge = |req: &Request, resp: Result<Response, CoreError>| {
                        tally.record(mirror.judge(req, &resp));
                    };
                    for req in slice {
                        let t0 = Instant::now();
                        window.submit(port, req, &mut judge);
                        window.drain(port, &mut judge);
                        let ns = t0.elapsed().as_nanos();
                        samples.of(req).push(u32::try_from(ns).unwrap_or(u32::MAX));
                    }
                }
            }
            timed += start.elapsed();
        }
        timed
    }

    /// Requests of a window `secs` long at `rate` requests per second;
    /// the nearest number of whole cycles on an aged workload, whose
    /// every cycle starts from a freshly aged rank.
    fn window_len(&self, rate: f64, secs: f64) -> usize {
        let n = (rate * secs).max(1.0);
        if self.p.aged {
            let cycle = self.p.cycle;
            ((n / cycle as f64).round() as usize).max(1) * cycle
        } else {
            n as usize
        }
    }

    /// A rate-finding chunk and a warm-up of about `warm_secs`, both
    /// discarded, then `count` windows of about `secs` each. Returns
    /// each window's requests per second and, if `stamped`, what its
    /// latency samples sum up to.
    fn windows(
        &mut self,
        depth: usize,
        warm_secs: f64,
        secs: f64,
        count: usize,
        stamped: bool,
    ) -> Vec<(f64, WindowLatency)> {
        let rate_of = |n: usize, t: Duration| n as f64 / t.as_secs_f64().max(1e-9);
        let n = if self.p.aged {
            self.p.cycle
        } else {
            self.p.calibrate
        };
        let mut rate = rate_of(n, self.run(n, depth, None));
        let n = self.window_len(rate, warm_secs);
        rate = rate_of(n, self.run(n, depth, None));
        let mut windows = Vec::with_capacity(count);
        for _ in 0..count {
            let n = self.window_len(rate, secs);
            let mut samples = Samples::with_capacity(if stamped { n } else { 0 });
            rate = rate_of(n, self.run(n, depth, stamped.then_some(&mut samples)));
            windows.push((rate, samples.summarize()));
        }
        windows
    }

    /// [`CRASHES`] times over: unflushed writes, a power cut, recovery,
    /// and a read-back of every block against the image of the last
    /// acknowledged flush. Returns the median seconds from `PowerCut`
    /// to `Recover` acknowledged, and the blocks that read back wrong.
    fn crash(&mut self) -> Result<(f64, u64), CoreError> {
        let mut recoveries_s = Vec::with_capacity(CRASHES);
        let mut violations = 0;
        for _ in 0..CRASHES {
            if let Feed::Fresh { gen, chunk } = &mut self.feed {
                chunk.clear();
                gen.extend(chunk, UNFLUSHED_TAIL);
                chunk.retain(|r| !matches!(r, Request::Flush));
                let mut window = Window::new(self.p.transport, 1);
                let port = self.sut.port();
                run_checked(port, &mut window, chunk, &mut self.mirror, &mut self.tally);
            }
            let port = self.sut.port();
            let start = Instant::now();
            let cut = port.submit(&Request::PowerCut);
            let recovered = port.submit(&Request::Recover);
            recoveries_s.push(start.elapsed().as_secs_f64());
            for (req, resp) in [(Request::PowerCut, &cut), (Request::Recover, &recovered)] {
                self.tally.record(self.mirror.judge(&req, resp));
            }
            cut?;
            recovered?;
            for addr in 0..self.p.blocks {
                let req = Request::Read(addr);
                let resp = self.sut.port().submit(&req);
                let verdict = self.mirror.judge(&req, &resp);
                self.tally.record(verdict);
                violations += u64::from(verdict != Verdict::Ok);
            }
        }
        Ok((median(&recoveries_s), violations))
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Options of one untraced run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Seed of inputs and stacks.
    pub seed: u64,
    /// Seconds of measurement, shared out over the windows.
    pub seconds: f64,
    /// Divisor of every size (1 = the full run).
    pub scale: u64,
    /// Flip one mirror bit first, to prove that the oracle fires.
    pub sabotage: bool,
}

/// Runs `workload` untraced.
///
/// # Errors
///
/// An error of a set-up, power-cut or recovery request. Errors of
/// measured requests are counted, not returned.
pub fn run_untraced(workload: Workload, opt: RunOptions) -> Result<Untraced, CoreError> {
    let p = workload.params(opt.scale);
    let prefill = prefill_data(p.blocks, opt.seed);
    let feed = Feed::new(&p, opt.seed, &prefill);
    let prefix = stream_prefix(&p, opt.seed, &prefill, p.n_trace);

    let mut setups_s = Vec::with_capacity(SETUPS);
    let mut sut = None;
    for _ in 0..SETUPS {
        drop(sut.take());
        let start = Instant::now();
        sut = Some(Sut::set_up(&p, opt.seed, &prefill)?);
        setups_s.push(start.elapsed().as_secs_f64());
    }
    let mut mirror = Mirror::new(prefill, p.persistent);
    if opt.sabotage {
        if let Some(addr) = prefix
            .iter()
            .find_map(|r| matches!(r, Request::Read(_)).then(|| r.addr()).flatten())
        {
            mirror.corrupt(addr);
        }
    }
    let mut runner = Runner {
        p: &p,
        sut: sut.expect("SETUPS is positive"),
        feed,
        mirror,
        tally: Tally::default(),
    };

    // Of `seconds`: 1/16 warm-up and 25 x 1/40 at the workload's window
    // depth, then 1/40 warm-up and 12 x 1/40 at one request outstanding.
    let throughput = runner.windows(
        p.window,
        opt.seconds / 16.0,
        opt.seconds / 40.0,
        THROUGHPUT_WINDOWS,
        false,
    );
    let throughput: Vec<f64> = throughput.into_iter().map(|(rate, _)| rate).collect();
    let latency = runner.windows(
        1,
        opt.seconds / 40.0,
        opt.seconds / 40.0,
        LATENCY_WINDOWS,
        true,
    );
    let latency: Vec<WindowLatency> = latency.into_iter().map(|(_, summed)| summed).collect();
    let crash = if p.persistent {
        Some(runner.crash()?)
    } else {
        None
    };

    let storage_overhead_ratio = runner.sut.storage_overhead_ratio();
    Ok(Untraced {
        params: p,
        seed: opt.seed,
        stream_hash: stream_hash(&prefix),
        mix: Mix::of(&prefix),
        setups_s,
        throughput,
        read: latency_of(&latency, |w| w.read),
        write: latency_of(&latency, |w| w.write),
        flush: latency_of(&latency, |w| w.flush),
        tally: runner.tally,
        recovery_s: crash.map(|c| c.0),
        durability_violations: crash.map(|c| c.1),
        storage_overhead_ratio,
        peak_rss_mib: peak_rss_mib(),
    })
}
