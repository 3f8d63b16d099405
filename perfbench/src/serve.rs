//! The serve lane against an in-process `oneqd` server — `serve-mixed`'s
//! closed loop and the compile workloads' serial lane — its
//! byte-identity checks, and the traced service-layer measurements every
//! workload reports.

use crate::compile::Input;
use crate::trace::Tracer;
use crate::Metrics;
use crate::{reference, stats};
use oneq_bench::scrape::{bucket_percentile, diff_cumulative, le_to_ns, stats_u64};
use oneq_bench::{qasm_fixtures, render_qasm_fixture, BenchKind};
use oneq_service::cache::{sha256, CompileCache};
use oneq_service::compile::{compile_record, CompileConfig};
use oneq_service::http::{ClientConn, ClientResponse};
use oneq_service::request::CompileRequest;
use oneq_service::server::{Server, ServerConfig, ServerHandle};
use std::io;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Server workers, and `serve-mixed`'s client threads and connections:
/// one per vCPU of the 2-vCPU machine the bounds were measured on.
pub const CLIENTS: usize = 2;
/// One request in `MISS_EVERY` is a miss (a new upload). The 80/20
/// split is an assumption, not measured traffic: no traffic data exists.
const MISS_EVERY: u64 = 5;
/// Latency and throughput are taken per window of this length.
const WINDOW_NS: u64 = 1_000_000_000;
/// Reference-kernel runs in each pause between windows.
const REFERENCE_RUNS: usize = 3;
const TIMEOUT: Duration = Duration::from_secs(30);

/// SplitMix64: the benchmark's own seeded generator.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A source the server should answer with `body`.
#[derive(Clone)]
pub struct Source {
    pub label: String,
    pub source: String,
    pub config: CompileConfig,
    /// In-process `compile_record` bytes plus the trailing newline the
    /// server appends.
    pub body: String,
}

impl Source {
    fn new(label: String, source: String, config: CompileConfig) -> Source {
        let (record, _) = compile_record(&label, &source, &config);
        Source {
            body: format!("{record}\n"),
            label,
            source,
            config,
        }
    }

    fn request(&self) -> CompileRequest {
        self.request_as(self.label.clone(), self.source.clone())
    }

    /// A request for `source` under `label` with this source's config.
    fn request_as(&self, label: String, source: String) -> CompileRequest {
        CompileRequest {
            config: self.config.clone(),
            ..CompileRequest::new(label, source)
        }
    }
}

/// The `serve-mixed` hot set: the repository's `.qasm` fixture corpus
/// (the files `loadgen` replays), rendered byte for byte as on disk.
pub fn corpus() -> Vec<Source> {
    qasm_fixtures()
        .into_iter()
        .map(|(name, circuit)| {
            Source::new(
                format!("{name}.qasm"),
                render_qasm_fixture(name, &circuit),
                CompileConfig::default(),
            )
        })
        .collect()
}

/// The hot set as compile-lane inputs (record path).
pub fn hot_inputs(hot: &[Source]) -> Vec<Input> {
    hot.iter()
        .map(|s| {
            let circuit = oneq_frontend::parse_circuit(&s.source).expect("rendered QASM parses");
            Input::record(s.label.clone(), circuit)
        })
        .collect()
}

fn post(
    conn: &mut ClientConn,
    req: &CompileRequest,
    id: Option<&str>,
) -> io::Result<ClientResponse> {
    let target = req.query_target("/v1/compile");
    match id {
        Some(id) => conn.send_with_headers(
            "POST",
            &target,
            &[("X-Oneqd-Request-Id", id)],
            req.source.as_bytes(),
        ),
        None => conn.send("POST", &target, req.source.as_bytes()),
    }
}

fn get(conn: &mut ClientConn, path: &str) -> io::Result<String> {
    let resp = conn.send("GET", path, b"")?;
    String::from_utf8(resp.body).map_err(|_| io::Error::other("non-UTF-8 body"))
}

/// A running server with a filled hot set.
pub struct Setup {
    pub handle: ServerHandle,
    pub hot: Vec<Source>,
}

/// Starts a server with `workers` workers and POSTs every source in
/// `warm` once, checking each reply against its in-process record.
pub fn start(warm: Vec<Source>, workers: usize) -> io::Result<Setup> {
    let config = ServerConfig {
        workers,
        ..ServerConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", config)?.spawn()?;
    let mut conn = ClientConn::connect(handle.addr(), TIMEOUT)?;
    for s in &warm {
        let resp = post(&mut conn, &s.request(), None)?;
        if resp.status != 200 || resp.body != s.body.as_bytes() {
            return Err(io::Error::other(format!(
                "warm-up of {} got a wrong reply",
                s.label
            )));
        }
        if !resp.keep_alive() {
            conn = ClientConn::connect(handle.addr(), TIMEOUT)?;
        }
    }
    Ok(Setup { handle, hot: warm })
}

/// One finished request, as the client saw it.
struct Sample {
    /// The window the request ran in.
    window: usize,
    latency: u64,
    hit: bool,
    /// The hot-set entry the request was for.
    entry: usize,
}

/// A miss: corpus entry `entry` under a fresh label, regenerated from
/// `(entry, seed)` for the byte-identity check, so the log stays small
/// however fast the server.
struct Miss {
    label: String,
    entry: usize,
    seed: u64,
    body_digest: [u8; 32],
}

/// The source of a miss on hot-set entry `entry`: for the fixture
/// corpus's BV and QAOA entries, the entry's kind and size under a fresh
/// `seed` (new secrets, new graphs); otherwise (the other corpus entries
/// and every compile workload's input) the entry's own source. The label
/// is part of the server's cache key, so every miss compiles either way.
fn miss_source(corpus: &[Source], entry: usize, seed: u64) -> String {
    let label = corpus[entry].label.trim_end_matches(".qasm");
    let kind = match label.split_once('-') {
        Some(("bv", _)) => BenchKind::Bv,
        Some(("qaoa", _)) => BenchKind::Qaoa,
        _ => return corpus[entry].source.clone(),
    };
    let n = label.rsplit('-').next().and_then(|n| n.parse().ok());
    kind.circuit(n.expect("corpus labels end in their size"), seed)
        .to_qasm()
}

/// What one client thread saw.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    /// `(request start, request end, request id)` for traced runs.
    spans: Vec<(Instant, Instant, String)>,
    misses: Vec<Miss>,
    /// Misses walk the hot set with [`stats::miss_stride`] from a seeded
    /// start, so every entry is missed equally often whatever the seed,
    /// and any stretch of the walk mixes cheap and costly entries.
    next_miss: usize,
    attempted: u64,
    errors: Vec<String>,
}

/// The pause between two windows: every client finishes its request in
/// flight and waits while the reference kernel runs on a quiet machine.
struct Pauses {
    barrier: Barrier,
    /// Window boundaries before the deadline.
    count: usize,
}

impl Pauses {
    /// Passes every boundary at or before `now` not yet passed.
    fn pass_due(&self, start: Instant, next: &mut usize, now: Instant) {
        while *next <= self.count && now >= start + window(*next) {
            self.barrier.wait();
            self.barrier.wait();
            *next += 1;
        }
    }
}

fn window(k: usize) -> Duration {
    Duration::from_nanos(WINDOW_NS * k as u64)
}

struct Client<'a> {
    id: usize,
    seed: u64,
    setup: &'a Setup,
    start: Instant,
    deadline: Instant,
    traced: bool,
    pauses: &'a Pauses,
}

impl Client<'_> {
    fn run(&self) -> ClientLog {
        let mut log = ClientLog::default();
        let mut conn = ClientConn::connect(self.setup.handle.addr(), TIMEOUT);
        if let Err(e) = &conn {
            log.errors.push(format!("client {}: connect: {e}", self.id));
        }
        let mut state = self.seed ^ (self.id as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f);
        log.next_miss = (splitmix(&mut state) >> 8) as usize % self.setup.hot.len();
        let mut next = 1;
        while let Ok(c) = conn.as_mut() {
            let now = Instant::now();
            self.pauses.pass_due(self.start, &mut next, now);
            if now >= self.deadline {
                break;
            }
            if !self.exchange(c, &mut state, next - 1, &mut log) {
                conn = ClientConn::connect(self.setup.handle.addr(), TIMEOUT);
                if let Err(e) = &conn {
                    log.errors
                        .push(format!("client {}: reconnect: {e}", self.id));
                }
            }
        }
        // Never leave the other parties waiting at a boundary.
        self.pauses
            .pass_due(self.start, &mut next, self.deadline + window(1));
        log
    }

    /// One request; returns whether the connection is still usable.
    fn exchange(
        &self,
        conn: &mut ClientConn,
        state: &mut u64,
        window: usize,
        log: &mut ClientLog,
    ) -> bool {
        let draw = splitmix(state);
        let miss = draw.is_multiple_of(MISS_EVERY);
        let (req, hot, seed, entry) = if miss {
            let len = self.setup.hot.len();
            let entry = log.next_miss % len;
            log.next_miss += stats::miss_stride(len);
            let seed = splitmix(state);
            let label = format!("miss-{}-{}.qasm", self.id, log.misses.len());
            let source = miss_source(&self.setup.hot, entry, seed);
            (
                self.setup.hot[entry].request_as(label, source),
                None,
                seed,
                entry,
            )
        } else {
            let entry = (draw >> 8) as usize % self.setup.hot.len();
            let hot = &self.setup.hot[entry];
            (hot.request(), Some(hot), 0, entry)
        };
        let request_id = format!("bench-{}-{}", self.id, log.attempted);
        log.attempted += 1;
        let t0 = Instant::now();
        let resp = post(conn, &req, self.traced.then_some(request_id.as_str()));
        let t1 = Instant::now();
        let resp = match resp {
            Ok(r) => r,
            Err(e) => {
                log.errors.push(format!("{}: {e}", req.label));
                return false;
            }
        };
        if self.traced {
            log.spans.push((t0, t1, request_id));
        }
        let outcome = resp.header("x-oneqd-cache").unwrap_or("");
        if resp.status != 200 {
            log.errors
                .push(format!("{}: status {}", req.label, resp.status));
        } else if let Some(hot) = hot {
            if resp.body != hot.body.as_bytes() {
                log.errors.push(format!(
                    "{}: hit body differs from compile_record",
                    req.label
                ));
            }
        }
        if outcome == "memory" || outcome == "miss" {
            log.samples.push(Sample {
                window,
                latency: t1.duration_since(t0).as_nanos() as u64,
                hit: outcome == "memory",
                entry,
            });
        }
        if miss {
            log.misses.push(Miss {
                label: req.label,
                entry,
                seed,
                body_digest: sha256(&resp.body),
            });
        }
        resp.keep_alive()
    }
}

/// Checks every miss body against an in-process `compile_record` of the
/// same source and config, on `CLIENTS` threads after the timed loop.
fn verify_misses(hot: &[Source], misses: &[Miss]) -> Vec<String> {
    let chunk = misses.len().div_ceil(CLIENTS).max(1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = misses
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .filter(|m| {
                            let source = miss_source(hot, m.entry, m.seed);
                            let (record, _) =
                                compile_record(&m.label, &source, &hot[m.entry].config);
                            sha256(format!("{record}\n").as_bytes()) != m.body_digest
                        })
                        .map(|m| format!("{}: miss body differs from compile_record", m.label))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("verifier thread panicked"))
            .collect()
    })
}

/// The reference kernel on two threads at once, one per vCPU of the
/// quiet machine: the mean of the two times. The server under load uses
/// both vCPUs, so a slowdown of either one shows here.
fn two_cpu_reference_ms() -> f64 {
    std::thread::scope(|scope| {
        let other = scope.spawn(reference::time_ms);
        let here = reference::time_ms();
        (here + other.join().expect("reference thread panicked")) / 2.0
    })
}

/// What a closed-loop run measured.
pub struct Served {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Client hit latencies over the whole run, ns.
    hit_ns: Vec<f64>,
    samples: Vec<Sample>,
    spans: Vec<(Instant, Instant, String)>,
    /// Each window's active length (pauses excluded), s.
    window_s: Vec<f64>,
    /// Every reference-kernel time taken in the pauses, ms.
    reference_ms: Vec<f64>,
    /// The process's peak resident set after the timed loop, before the
    /// misses are verified on several threads, MB.
    pub peak_rss_mb: f64,
}

/// Runs `CLIENTS` closed-loop clients for `seconds`: each sends its next
/// request only when the last reply arrived. About one request in
/// `MISS_EVERY` is a miss; the rest hit the hot set, each on an entry
/// drawn uniformly. Each client's misses cycle through the hot set, as
/// `loadgen` cycles the corpus.
pub fn closed_loop(setup: &Setup, seed: u64, seconds: f64, traced: bool) -> Served {
    let count = ((seconds * 1e9) as u64)
        .div_ceil(WINDOW_NS)
        .saturating_sub(1) as usize;
    let pauses = Pauses {
        barrier: Barrier::new(CLIENTS + 1),
        count,
    };
    let mut reference_ms = Vec::new();
    let mut window_s = Vec::with_capacity(count + 1);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let client = Client {
                    id,
                    seed,
                    setup,
                    start,
                    deadline,
                    traced,
                    pauses: &pauses,
                };
                scope.spawn(move || client.run())
            })
            .collect();
        let mut resumed = start;
        for _ in 0..count {
            pauses.barrier.wait();
            window_s.push(resumed.elapsed().as_secs_f64());
            for _ in 0..REFERENCE_RUNS {
                reference_ms.push(two_cpu_reference_ms());
            }
            resumed = Instant::now();
            pauses.barrier.wait();
        }
        let logs = clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect();
        window_s.push(resumed.elapsed().as_secs_f64());
        logs
    });
    let mut served = Served {
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        hit_ns: Vec::new(),
        samples: Vec::new(),
        spans: Vec::new(),
        window_s,
        reference_ms,
        peak_rss_mb: crate::peak_rss_mb(),
    };
    let mut misses = Vec::new();
    for log in logs {
        served.attempted += log.attempted;
        served.failed += log.errors.len() as u64;
        served.errors.extend(log.errors);
        served.samples.extend(log.samples);
        served.spans.extend(log.spans);
        misses.extend(log.misses);
    }
    let bad = verify_misses(&setup.hot, &misses);
    served.failed += bad.len() as u64;
    served.errors.extend(bad);
    served.hit_ns = served
        .samples
        .iter()
        .filter(|s| s.hit)
        .map(|s| s.latency as f64)
        .collect();
    served
}

/// The closed loop's end-to-end metrics over windows 1 … n−2: window 0,
/// which runs while the first misses fill the memory cache, and the
/// last, cut short by the deadline, are left out. Every value taken in a
/// 1-s window is normalised by the median reference time of the pauses
/// on either side of it, so a speed phase that starts or ends within a
/// run is corrected where it happens.
///
/// - `req_per_s`, `hit_p50_ms`, `hit_p90_ms`: the interquartile mean of
///   the windows' throughput and hit percentiles. The miss walk mixes
///   cheap and costly entries in every window, and hits cost about the
///   same on every entry, so each window samples one distribution; the
///   worst and the best quarter of windows, where outside load stalled
///   one or a quiet spell sped one up, are trimmed.
/// - `miss_p50_ms`: the geomean over hot-set entries of each entry's
///   median normalised miss latency. Misses on one hot set can differ
///   in cost by 100×, so a percentile over all of them would jump
///   between entries with the mix; per entry it does not.
pub fn report(served: &Served, entries: usize, metrics: &mut Metrics, errors: &mut Vec<String>) {
    let windows = served.window_s.len().saturating_sub(1);
    let used = 1..windows;
    if used.is_empty() || served.reference_ms.len() < windows * REFERENCE_RUNS {
        errors.push("serve lane: run too short to measure a window".to_string());
        return;
    }
    // The pauses before and after window `w` are `w - 1` and `w`.
    let reference = |w: usize| {
        stats::median(&served.reference_ms[(w - 1) * REFERENCE_RUNS..(w + 1) * REFERENCE_RUNS])
    };
    // A slow phase (reference above nominal) lowers throughput and
    // raises latency by the same factor.
    let time = |w: usize| reference::NOMINAL_MS / reference(w);
    let mut count = vec![0u64; windows];
    let mut hits = vec![Vec::new(); windows];
    let mut misses = vec![Vec::new(); entries];
    let mut raw_misses = vec![Vec::new(); entries];
    for s in served.samples.iter().filter(|s| used.contains(&s.window)) {
        count[s.window] += 1;
        let ms = s.latency as f64 / 1e6;
        if s.hit {
            hits[s.window].push(ms);
        } else {
            misses[s.entry].push(ms * time(s.window));
            raw_misses[s.entry].push(ms);
        }
    }
    let rate = |scale: &dyn Fn(usize) -> f64| {
        let per_window: Vec<f64> = used
            .clone()
            .map(|w| count[w] as f64 / (served.window_s[w] * scale(w)))
            .collect();
        stats::interquartile_mean(&per_window)
    };
    let hit_series = |p: f64, scale: &dyn Fn(usize) -> f64| -> Vec<f64> {
        used.clone()
            .filter(|&w| !hits[w].is_empty())
            .map(|w| stats::percentile(&hits[w], p) * scale(w))
            .collect()
    };
    let per_entry = |sets: &[Vec<f64>]| {
        oneq_bench::geomean(&sets.iter().map(|v| stats::median(v)).collect::<Vec<_>>())
    };
    if hit_series(50.0, &time).is_empty() || misses.iter().any(Vec::is_empty) {
        errors.push("serve lane: no hit, or an entry with no miss, in the windows".to_string());
        return;
    }
    let iqm = |p, scale: &dyn Fn(usize) -> f64| stats::interquartile_mean(&hit_series(p, scale));
    eprintln!(
        "raw serve: req_per_s {:.1} hit_p50 {:.5} hit_p90 {:.5} miss_p50 {:.4}; \
         reference median {:.4} ms",
        rate(&|_| 1.0),
        iqm(50.0, &|_| 1.0),
        iqm(90.0, &|_| 1.0),
        per_entry(&raw_misses),
        stats::median(&served.reference_ms),
    );
    metrics.push("req_per_s", rate(&time), "1/s");
    metrics.push("hit_p50_ms", iqm(50.0, &time), "ms");
    metrics.push("hit_p90_ms", iqm(90.0, &time), "ms");
    metrics.push("miss_p50_ms", per_entry(&misses), "ms");
}

/// One pass of the serial serve lane.
#[derive(Default)]
struct Pass {
    /// `miss_ms[e]`: entry `e`'s miss latency, ms.
    miss_ms: Vec<f64>,
    /// Every hit latency, ms.
    hit_ms: Vec<f64>,
    /// `hit_ms` scaled by the loopback reference times on either side of
    /// its entry.
    norm_hit_ms: Vec<f64>,
    /// Every loopback reference time, ms.
    ping_ms: Vec<f64>,
    /// Requests, and their summed latency in s.
    requests: u64,
    busy_s: f64,
    /// `miss_ms` and `busy_s` again, each request scaled by the kernel
    /// reference times on either side of its entry.
    norm_miss_ms: Vec<f64>,
    norm_busy_s: f64,
}

/// What the serial serve lane measured.
pub struct Serial {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    passes: Vec<Pass>,
}

impl Serial {
    /// Sends `req` for hot-set entry `hot` and checks the reply: status
    /// 200, the cache outcome (`memory` for `hot`'s own request, `miss`
    /// for any other), and for a hit the body. Returns the latency in ms
    /// and the body's SHA-256, or `None` after logging an error.
    fn send(
        &mut self,
        conn: &mut io::Result<ClientConn>,
        addr: std::net::SocketAddr,
        req: CompileRequest,
        hot: &Source,
    ) -> Option<(f64, [u8; 32])> {
        self.attempted += 1;
        let c = match conn.as_mut() {
            Ok(c) => c,
            Err(e) => {
                self.errors.push(format!("connect: {e}"));
                return None;
            }
        };
        let t = Instant::now();
        let resp = post(c, &req, None);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let resp = match resp {
            Ok(r) => r,
            Err(e) => {
                self.errors.push(format!("{}: {e}", req.label));
                *conn = ClientConn::connect(addr, TIMEOUT);
                return None;
            }
        };
        if !resp.keep_alive() {
            *conn = ClientConn::connect(addr, TIMEOUT);
        }
        let hit = req.label == hot.label;
        let want = if hit { "memory" } else { "miss" };
        let outcome = resp.header("x-oneqd-cache").unwrap_or("");
        if resp.status != 200 || outcome != want {
            self.errors.push(format!(
                "{}: status {}, cache {outcome:?}, expected 200 and {want:?}",
                req.label, resp.status
            ));
            return None;
        }
        if hit && resp.body != hot.body.as_bytes() {
            self.errors.push(format!(
                "{}: hit body differs from compile_record",
                req.label
            ));
            return None;
        }
        Some((ms, sha256(&resp.body)))
    }
}

/// The compile workloads' serve lane: one keep-alive connection sends
/// one request at a time, in passes. Each pass walks the whole hot set
/// (with [`stats::miss_stride`] from a seeded start); on each entry it
/// sends `MISS_EVERY - 1` hits between two loopback reference times, then
/// one miss (the entry's source under a fresh label), then times the
/// kernel reference. So one compile runs at a time, as in the compile
/// lane; a hit never waits behind a miss; and every pass holds every
/// entry once, so a pass's figures do not depend on which entries a seed
/// drew. Runs passes until `seconds` have passed, at least two.
pub fn serial_lane(setup: &Setup, seed: u64, seconds: f64) -> io::Result<Serial> {
    let len = setup.hot.len();
    let stride = stats::miss_stride(len);
    let mut state = seed;
    let first = (splitmix(&mut state) >> 8) as usize % len;
    let mut serial = Serial {
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        passes: Vec::new(),
    };
    let mut misses = Vec::new();
    let mut ping = reference::Ping::start()?;
    let start = Instant::now();
    let mut conn = ClientConn::connect(setup.handle.addr(), TIMEOUT);
    let addr = setup.handle.addr();
    let mut before = reference::time_ms();
    while serial.passes.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        let index = serial.passes.len();
        let mut pass = Pass {
            miss_ms: vec![0.0; len],
            norm_miss_ms: vec![0.0; len],
            ..Pass::default()
        };
        for k in 0..len {
            let entry = (first + k * stride) % len;
            let hot = &setup.hot[entry];
            let ping_before = ping.time_ms()?;
            let hits: Vec<f64> = (1..MISS_EVERY)
                .filter_map(|_| serial.send(&mut conn, addr, hot.request(), hot))
                .map(|(ms, _)| ms)
                .collect();
            let ping_after = ping.time_ms()?;
            let label = format!("miss-{index}-{entry}.qasm");
            let req = hot.request_as(label.clone(), miss_source(&setup.hot, entry, 0));
            let miss = serial.send(&mut conn, addr, req, hot);
            let after = reference::time_ms();
            let scale = reference::NOMINAL_MS / ((before + after) / 2.0);
            before = after;
            pass.ping_ms.push(ping_after);
            let Some((miss_ms, body_digest)) = miss else {
                continue;
            };
            misses.push(Miss {
                label,
                entry,
                seed: 0,
                body_digest,
            });
            if hits.len() + 1 != MISS_EVERY as usize {
                continue;
            }
            let ping_scale = reference::NOMINAL_PING_MS / ((ping_before + ping_after) / 2.0);
            let busy_s = (miss_ms + hits.iter().sum::<f64>()) / 1e3;
            pass.miss_ms[entry] = miss_ms;
            pass.norm_miss_ms[entry] = miss_ms * scale;
            pass.norm_hit_ms.extend(hits.iter().map(|t| t * ping_scale));
            pass.hit_ms.extend(hits);
            pass.requests += MISS_EVERY;
            pass.busy_s += busy_s;
            pass.norm_busy_s += busy_s * scale;
        }
        serial.passes.push(pass);
    }
    drop(conn);
    serial.errors.extend(verify_misses(&setup.hot, &misses));
    serial.failed = serial.errors.len() as u64;
    Ok(serial)
}

/// The serial lane's end-to-end metrics:
///
/// - `req_per_s`: the median over passes of the pass's requests over
///   their summed latency;
/// - `miss_p50_ms`: the geomean over entries of each entry's median miss
///   latency over passes;
/// - `hit_p50_ms`, `hit_p90_ms`: the first quartile over passes of the
///   pass's hit percentile, as the compile lane keeps each input's fast
///   quarter of passes: a hit takes ~0.1 ms, so a slow spell of the
///   machine moves it most.
///
/// Misses and throughput are normalised by the kernel reference, as
/// compiles are in the compile lane. A hit is socket I/O and thread
/// wake-ups, which the kernel tracks poorly, so hits are normalised by
/// the loopback reference instead.
pub fn report_serial(serial: &Serial, metrics: &mut Metrics, errors: &mut Vec<String>) {
    if !serial.errors.is_empty() {
        errors.push("serve lane: not measured, a request failed".to_string());
        return;
    }
    let passes = &serial.passes;
    let over_passes =
        |f: &dyn Fn(&Pass) -> f64| stats::median(&passes.iter().map(f).collect::<Vec<_>>());
    let miss = |f: fn(&Pass) -> &Vec<f64>| {
        let entries = passes.first().map_or(0, |p| f(p).len());
        let per_entry: Vec<f64> = (0..entries)
            .map(|e| stats::median(&passes.iter().map(|p| f(p)[e]).collect::<Vec<_>>()))
            .collect();
        oneq_bench::geomean(&per_entry)
    };
    let hit = |p: f64, f: fn(&Pass) -> &Vec<f64>| {
        stats::percentile(
            &passes
                .iter()
                .map(|pass| stats::percentile(f(pass), p))
                .collect::<Vec<_>>(),
            25.0,
        )
    };
    eprintln!(
        "{} serial passes; raw serve: req_per_s {:.1} hit_p50 {:.5} hit_p90 {:.5} \
         miss_p50 {:.4}; loopback reference median {:.5} ms",
        passes.len(),
        over_passes(&|p| p.requests as f64 / p.busy_s),
        hit(50.0, |p| &p.hit_ms),
        hit(90.0, |p| &p.hit_ms),
        miss(|p| &p.miss_ms),
        over_passes(&|p| stats::median(&p.ping_ms)),
    );
    metrics.push(
        "req_per_s",
        over_passes(&|p| p.requests as f64 / p.norm_busy_s),
        "1/s",
    );
    metrics.push("hit_p50_ms", hit(50.0, |p| &p.norm_hit_ms), "ms");
    metrics.push("hit_p90_ms", hit(90.0, |p| &p.norm_hit_ms), "ms");
    metrics.push("miss_p50_ms", miss(|p| &p.norm_miss_ms), "ms");
}

/// Windowed cumulative buckets of one unlabelled histogram family.
fn buckets(text: &str, family: &str) -> Vec<(u64, u64)> {
    let prefix = format!("{family}_bucket{{le=\"");
    text.lines()
        .filter_map(|line| {
            let rest = line.strip_prefix(&prefix)?;
            let (le, count) = rest.split_once("\"} ")?;
            let count = count.split(" # ").next()?.trim().parse().ok()?;
            Some((le_to_ns(le)?, count))
        })
        .collect()
}

fn counter(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|line| {
            line.strip_prefix(name)?
                .strip_prefix(' ')?
                .trim()
                .parse()
                .ok()
        })
        .unwrap_or(0.0)
}

/// `/v1/metrics` and `/v1/stats` read from outside the server.
struct Scrape {
    metrics: String,
    stats: String,
}

fn scrape(setup: &Setup) -> io::Result<Scrape> {
    let mut conn = ClientConn::connect(setup.handle.addr(), TIMEOUT)?;
    Ok(Scrape {
        metrics: get(&mut conn, "/v1/metrics")?,
        stats: get(&mut conn, "/v1/stats")?,
    })
}

/// Percentile `p` of a histogram family over the window between two
/// scrapes, in microseconds.
fn window_percentile_us(before: &Scrape, after: &Scrape, family: &str, p: f64) -> f64 {
    let window = diff_cumulative(
        Some(&buckets(&before.metrics, family)),
        &buckets(&after.metrics, family),
    );
    let total = window.last().map_or(0, |b| b.1);
    bucket_percentile(&window, total, p) as f64 / 1e3
}

/// Per-call time of `f` in µs: each of `reps` rounds times one call on
/// every source as a batch (so the clock's own cost is spread over the
/// batch), and the median round is reported.
fn per_call_us(sources: &[Source], reps: usize, mut f: impl FnMut(usize, &Source)) -> f64 {
    let rounds: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for (i, s) in sources.iter().enumerate() {
                f(i, s);
            }
            t.elapsed().as_nanos() as f64 / 1e3 / sources.len() as f64
        })
        .collect();
    stats::median(&rounds)
}

/// The traced service lane. For `serve-mixed` the traffic is the closed
/// loop itself; for the compile workloads it is each of the workload's
/// own sources sent once as a miss and then `HITS_PER_SOURCE` times as a
/// hit, from one connection. Returns `(attempted, failed)`.
pub fn run_traced_lane(
    sources: Vec<Source>,
    closed_loop_for: Option<(u64, f64)>,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
    errors: &mut Vec<String>,
) -> io::Result<(u64, u64)> {
    const HITS_PER_SOURCE: usize = 20;
    // Standalone layer timings on the lane's own sources.
    let key_us = per_call_us(&sources, 200, |_, s| {
        std::hint::black_box(sha256(s.request().fingerprint().as_bytes()));
    });
    let cache = CompileCache::new(256, 8);
    for s in &sources {
        cache.insert_digest(
            sha256(s.request().fingerprint().as_bytes()),
            Arc::from(s.body.as_str()),
        );
    }
    let digests: Vec<[u8; 32]> = sources
        .iter()
        .map(|s| sha256(s.request().fingerprint().as_bytes()))
        .collect();
    let lookup_us = per_call_us(&sources, 200, |i, _| {
        std::hint::black_box(cache.get_digest(&digests[i]));
    });
    let record_ms: Vec<f64> = sources
        .iter()
        .map(|s| {
            (0..2)
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(compile_record(&s.label, &s.source, &s.config));
                    t.elapsed().as_secs_f64() * 1e3
                })
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    metrics.push("service.key_us", key_us, "us");
    metrics.push("service.lookup_us", lookup_us, "us");
    metrics.push(
        "service.compile_record_ms",
        oneq_bench::geomean(&record_ms),
        "ms",
    );

    let (setup, seed_seconds) = match closed_loop_for {
        Some(loop_args) => (start(sources, CLIENTS)?, Some(loop_args)),
        None => {
            let setup = start(Vec::new(), CLIENTS)?;
            (
                Setup {
                    hot: sources,
                    ..setup
                },
                None,
            )
        }
    };
    let before = scrape(&setup)?;
    let (attempted, failed, hit_ns) = match seed_seconds {
        Some((seed, seconds)) => {
            let served = closed_loop(&setup, seed, seconds, true);
            for (t0, t1, id) in &served.spans {
                tracer.record("client.request", None, tracer.at(*t0), tracer.at(*t1), id);
            }
            errors.extend(served.errors);
            (served.attempted, served.failed, served.hit_ns)
        }
        None => {
            let mut conn = ClientConn::connect(setup.handle.addr(), TIMEOUT)?;
            let (mut attempted, mut failed, mut hit_ns) = (0, 0, Vec::new());
            for s in &setup.hot {
                for i in 0..=HITS_PER_SOURCE {
                    let id = format!("{}#{i}", s.label);
                    let span = tracer.open("client.request", None, &id);
                    let t = Instant::now();
                    let resp = post(&mut conn, &s.request(), Some(&id))?;
                    let ns = t.elapsed().as_nanos() as f64;
                    tracer.close(span);
                    attempted += 1;
                    if resp.status != 200 || resp.body != s.body.as_bytes() {
                        failed += 1;
                        errors.push(format!("{}: reply differs from compile_record", s.label));
                    }
                    if resp.header("x-oneqd-cache") == Some("memory") {
                        hit_ns.push(ns);
                    }
                    if !resp.keep_alive() {
                        conn = ClientConn::connect(setup.handle.addr(), TIMEOUT)?;
                    }
                }
            }
            (attempted, failed, hit_ns)
        }
    };
    let after = scrape(&setup)?;
    let hit_p50_us = stats::median(&hit_ns) / 1e3;
    metrics.push(
        "server.hit_overhead_us",
        hit_p50_us - key_us - lookup_us,
        "us",
    );
    metrics.push(
        "server.queue_wait_p90_us",
        window_percentile_us(&before, &after, "oneqd_queue_wait_seconds", 90.0),
        "us",
    );
    metrics.push(
        "server.read_p50_us",
        window_percentile_us(&before, &after, "oneqd_request_read_seconds", 50.0),
        "us",
    );
    metrics.push(
        "server.write_p50_us",
        window_percentile_us(&before, &after, "oneqd_response_write_seconds", 50.0),
        "us",
    );
    let delta = |name| counter(&after.metrics, name) - counter(&before.metrics, name);
    let hits = delta("oneqd_cache_memory_hits_total");
    let lookups = hits + delta("oneqd_cache_memory_misses_total");
    metrics.push("cache.lookups", lookups, "count");
    metrics.push(
        "cache.hit_ratio",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
        "ratio",
    );
    let executions = stats_u64(&after.stats, "compile_executions")
        - stats_u64(&before.stats, "compile_executions");
    metrics.push("server.compile_executions", executions as f64, "count");
    setup.handle.shutdown()?;
    Ok((attempted, failed))
}

/// The compile lane's inputs as served sources (label, QASM, config).
pub fn sources_of(inputs: &[Input]) -> Vec<Source> {
    inputs
        .iter()
        .map(|i| Source::new(i.name.clone(), i.source.clone(), i.config.clone()))
        .collect()
}
