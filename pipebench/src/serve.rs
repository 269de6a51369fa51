//! `serve_predict`: the release `hamlet serve` as a child process,
//! mounting a Naive Bayes and a GBT artifact built from the Walmart
//! star, driven over keep-alive connections with single-row
//! `/models/<id>/predict` requests. ~5% of the rows carry an unseen FK
//! value (the cold-start `Others` path). Every response must be a 200
//! whose body equals the in-process `Scorer::predict_codes` output.
//!
//! Phases: a short warm-up, an open loop at a fixed rate (latency timed
//! from each request's due time), then a closed loop at one connection
//! per core for saturation. Both loops run as one-second windows. In
//! trace mode every other open-loop window is traced; saturation is the
//! best closed-loop window's rate, because interference from other
//! tenants of the machine only ever slows a window down.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hamlet_core::AdvisorConfig;
use hamlet_datagen::realistic::DatasetSpec;
use hamlet_obs::span;
use hamlet_obs::span::{drain_spans, set_tracing};
use hamlet_serve::{artifact, build_artifact, ModelKind, Scorer};

use crate::harness::{
    account, peak_rss_mb, quantile, repeat_setup, Opts, Series, SeriesMap, JOB_SPAN,
};

/// Scale of the Walmart star the artifacts are trained on.
pub const SCALE: f64 = 0.1;
/// Distinct request rows per model.
const POOL: usize = 1024;
/// Share of rows whose FK values are unseen at training time.
const UNSEEN_FK: f64 = 0.05;
/// Shares of `--seconds` spent warming up, in the open loop and in the
/// closed loop.
const PHASES: [f64; 3] = [0.05, 0.60, 0.35];
/// The open loop's fixed rate, requests per second per connection:
/// about half the closed-loop saturation this code reached on a 2-core
/// host (66k to 127k req/s over two connections, depending on the load
/// other tenants put on the host). Fixed rather than calibrated per
/// run, so latency is always measured at the same offered load.
const OPEN_RATE_PER_CONN: f64 = 20_000.0;
/// Length of one measurement window, seconds. Both loops run as
/// back-to-back windows: the closed loop reports its best window, so a
/// burst of interference from other tenants spoils a window and not the
/// run, and in trace mode the open loop alternates traced windows.
const WINDOW_S: f64 = 1.0;
const MODELS: [(&str, ModelKind); 2] = [("nb", ModelKind::NaiveBayes), ("gbt", ModelKind::Gbt)];

/// One precomputed request: the HTTP bytes and the body the server
/// must answer with.
struct Request {
    raw: Vec<u8>,
    expected: Vec<u8>,
}

struct Server {
    child: Child,
    port: u16,
    /// Drains the server's stderr so it never blocks on the pipe; ends
    /// when the server exits.
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    fn start(
        hamlet: &Path,
        models: &[(String, std::path::PathBuf)],
        threads: usize,
    ) -> Result<Server, String> {
        let mut cmd = Command::new(hamlet);
        cmd.arg("serve");
        for (id, path) in models {
            cmd.arg("--model").arg(format!("{id}={}", path.display()));
        }
        cmd.args(["--port", "0", "--threads", &threads.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", hamlet.display()))?;
        let stderr = child.stderr.take().ok_or("no stderr pipe")?;
        let mut lines = BufReader::new(stderr).lines();
        let port = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(rest) = line.split("on 127.0.0.1:").nth(1) {
                        let digits: String =
                            rest.chars().take_while(char::is_ascii_digit).collect();
                        break digits.parse::<u16>().ok();
                    }
                }
                _ => break None,
            }
        };
        let drain = Some(std::thread::spawn(move || for _ in lines.by_ref() {}));
        let mut server = Server {
            child,
            port: 0,
            drain,
        };
        match port {
            Some(p) => {
                server.port = p;
                Ok(server)
            }
            None => {
                server.stop();
                Err("the server exited before announcing its port".into())
            }
        }
    }

    fn connect(&self) -> Result<TcpStream, String> {
        let s =
            TcpStream::connect(("127.0.0.1", self.port)).map_err(|e| format!("connect: {e}"))?;
        let _ = s.set_nodelay(true);
        let _ = s.set_read_timeout(Some(Duration::from_secs(20)));
        Ok(s)
    }

    /// `GET /metrics`, as text.
    fn metrics(&self) -> Result<String, String> {
        let mut s = self.connect()?;
        s.write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
            .map_err(|e| format!("write: {e}"))?;
        let (status, body) = read_response(&mut s, &mut Vec::new())?;
        if status != 200 {
            return Err(format!("/metrics answered {status}"));
        }
        Ok(String::from_utf8_lossy(&body).into_owned())
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Reads one framed response; returns its status and body.
fn read_response(s: &mut TcpStream, buf: &mut Vec<u8>) -> Result<(u16, Vec<u8>), String> {
    buf.clear();
    let mut chunk = [0u8; 8192];
    let head_end = loop {
        if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break p;
        }
        match s.read(&mut chunk) {
            Ok(0) => return Err("connection closed before the response head".into()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(format!("read: {e}")),
        }
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("unparseable status line: {head}"))?;
    let len: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())
                .flatten()
        })
        .unwrap_or(0);
    let total = head_end + 4 + len;
    while buf.len() < total {
        match s.read(&mut chunk) {
            Ok(0) => return Err("connection closed mid-body".into()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(format!("read: {e}")),
        }
    }
    Ok((status, buf[head_end + 4..total].to_vec()))
}

/// splitmix64: the request rows' only randomness, seeded per run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> u32 {
        (self.next() % n.max(1) as u64) as u32
    }

    fn chance(&mut self, p: f64) -> bool {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }
}

/// Builds the request pool of one model: positional single-row bodies,
/// ~5% with an out-of-domain FK code, each with the body the in-process
/// scorer produces for it.
fn pool(id: &str, scorer: &Scorer, rng: &mut Rng) -> Result<Vec<Request>, String> {
    let features = &scorer.artifact().features;
    (0..POOL)
        .map(|_| {
            let unseen = rng.chance(UNSEEN_FK);
            let row: Vec<u32> = features
                .iter()
                .map(|f| match &f.fk {
                    Some(fk) if unseen => fk.original_domain as u32 + rng.below(1000),
                    Some(fk) => rng.below(fk.original_domain),
                    None => rng.below(f.domain_size),
                })
                .collect();
            let preds = scorer
                .predict_codes(std::slice::from_ref(&row))
                .map_err(|e| format!("in-process scoring: {e}"))?;
            let body = format!(
                "[[{}]]",
                row.iter().map(u32::to_string).collect::<Vec<_>>().join(",")
            );
            let raw = format!(
                "POST /models/{id}/predict HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            Ok(Request {
                raw: raw.into_bytes(),
                expected: Scorer::render_predictions(&preds).to_string().into_bytes(),
            })
        })
        .collect()
}

struct Setup {
    server: Server,
    requests: Arc<Vec<Request>>,
}

fn setup(opts: &Opts, threads: usize) -> Result<Setup, String> {
    let g = DatasetSpec::walmart().generate(SCALE, opts.seed);
    let mut rng = Rng(opts.seed ^ 0x5EED_5E4E);
    let mut sources = Vec::new();
    let mut pools = Vec::new();
    for (id, kind) in MODELS {
        let built = build_artifact(
            &g.star,
            kind,
            &AdvisorConfig::for_family(kind.family()),
            "walmart",
        )
        .map_err(|e| format!("build_artifact({id}): {e}"))?;
        let path = opts.work.join(format!("walmart_{id}.model"));
        artifact::save(&built.artifact, &path).map_err(|e| format!("save({id}): {e}"))?;
        let loaded = {
            let _s = span!("bench.serve.artifact_load");
            artifact::load(&path).map_err(|e| format!("load({id}): {e}"))?
        };
        pools.push(pool(id, &Scorer::new(loaded), &mut rng)?);
        sources.push((id.to_string(), path));
    }
    // Interleave the two models' requests.
    let gbt = pools.pop().unwrap_or_default();
    let nb = pools.pop().unwrap_or_default();
    let requests: Vec<Request> = nb.into_iter().zip(gbt).flat_map(|(a, b)| [a, b]).collect();
    let server = Server::start(&opts.hamlet, &sources, threads)?;
    Ok(Setup {
        server,
        requests: Arc::new(requests),
    })
}

/// What one connection saw.
#[derive(Default)]
struct ConnOut {
    latencies_us: Vec<f64>,
    lags_us: Vec<f64>,
    sent: u64,
    failed: u64,
    failures: Vec<String>,
}

/// Drives `conns` keep-alive connections until `until`. With a `rate`
/// (requests/s over all connections) each request is due on a fixed
/// schedule and its latency runs from that due time; without one the
/// loop is closed (the next request goes as soon as the last returns).
fn drive(
    server: &Server,
    requests: &Arc<Vec<Request>>,
    conns: usize,
    rate: Option<f64>,
    until: Instant,
    salt: usize,
) -> ConnOut {
    let start = Instant::now();
    let handles: Vec<_> = (0..conns)
        .map(|c| {
            let requests = Arc::clone(requests);
            let stream = server.connect();
            std::thread::spawn(move || {
                let mut out = ConnOut::default();
                let mut s = match stream {
                    Ok(s) => s,
                    Err(e) => {
                        out.failed += 1;
                        out.failures.push(e);
                        return out;
                    }
                };
                let interval = rate.map(|r| Duration::from_secs_f64(conns as f64 / r));
                // Stagger the connections' schedules evenly.
                let offset = interval.map(|i| i.mul_f64(c as f64 / conns as f64));
                let mut buf = Vec::with_capacity(4096);
                let n = requests.len();
                let mut k = 0usize;
                loop {
                    let due = match (interval, offset) {
                        (Some(i), Some(o)) => start + o + i.mul_f64(k as f64),
                        _ => Instant::now(),
                    };
                    if due >= until {
                        break;
                    }
                    wait_until(due);
                    let req = &requests[(salt + c * 7919 + k * 31) % n];
                    let sent = Instant::now();
                    out.sent += 1;
                    let resp = s
                        .write_all(&req.raw)
                        .map_err(|e| format!("write: {e}"))
                        .and_then(|()| read_response(&mut s, &mut buf));
                    let done = Instant::now();
                    match resp {
                        Ok((200, body)) if body == req.expected => {}
                        Ok((status, body)) => {
                            out.failed += 1;
                            if out.failures.len() < 5 {
                                out.failures.push(format!(
                                    "status {status}, body {} (expected {})",
                                    String::from_utf8_lossy(&body),
                                    String::from_utf8_lossy(&req.expected)
                                ));
                            }
                        }
                        Err(e) => {
                            out.failed += 1;
                            out.failures.push(e);
                            break;
                        }
                    }
                    out.latencies_us.push(secs_us(done - due));
                    out.lags_us
                        .push(secs_us(sent.saturating_duration_since(due)));
                    k += 1;
                }
                out
            })
        })
        .collect();
    let mut all = ConnOut::default();
    for h in handles {
        match h.join() {
            Ok(o) => {
                all.latencies_us.extend(o.latencies_us);
                all.lags_us.extend(o.lags_us);
                all.sent += o.sent;
                all.failed += o.failed;
                all.failures.extend(o.failures);
            }
            Err(_) => {
                all.failed += 1;
                all.failures.push("client thread panicked".into());
            }
        }
    }
    all
}

fn secs_us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Sleeps most of the way to `due`, then yields until it passes — the
/// yield hands the core to the server instead of spinning on it.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + Duration::from_micros(300) {
        std::thread::sleep(due - now - Duration::from_micros(200));
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// The server's own request-latency histogram, `(upper bound µs,
/// cumulative count)` per bucket, plus the two failure counters.
#[derive(Debug, Default, Clone)]
struct ServerMetrics {
    buckets: Vec<(f64, f64)>,
    rejected: f64,
    errors: f64,
}

fn parse_metrics(text: &str) -> ServerMetrics {
    let mut m = ServerMetrics::default();
    for line in text.lines() {
        let value = |l: &str| {
            l.rsplit(' ')
                .next()
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        if let Some(rest) = line.strip_prefix("hamlet_serve_request_micros_bucket{le=\"") {
            if let Some((le, _)) = rest.split_once('"') {
                if let Ok(le) = le.parse::<f64>() {
                    m.buckets.push((le, value(line)));
                }
            }
        } else if line.starts_with("hamlet_serve_rejected_total ") {
            m.rejected = value(line);
        } else if line.starts_with("hamlet_serve_errors_total ") {
            m.errors = value(line);
        }
    }
    m
}

/// Median of the requests observed between two scrapes, interpolated
/// linearly inside its log2 bucket `[le/2, le)`.
fn server_p50_us(before: &ServerMetrics, after: &ServerMetrics) -> f64 {
    let count_at = |m: &ServerMetrics, le: f64| {
        m.buckets
            .iter()
            .filter(|(b, _)| *b <= le)
            .map(|&(_, c)| c)
            .fold(0.0, f64::max)
    };
    let mut les: Vec<f64> = after.buckets.iter().map(|&(le, _)| le).collect();
    les.sort_by(f64::total_cmp);
    let cum: Vec<f64> = les
        .iter()
        .map(|&le| count_at(after, le) - count_at(before, le))
        .collect();
    let total = cum.last().copied().unwrap_or(0.0);
    if total <= 0.0 {
        return 0.0;
    }
    let half = total / 2.0;
    let mut prev = 0.0;
    for (i, &c) in cum.iter().enumerate() {
        if c >= half {
            let hi = les[i];
            let lo = if hi <= 1.0 { 0.0 } else { hi / 2.0 };
            let frac = if c > prev {
                (half - prev) / (c - prev)
            } else {
                1.0
            };
            return lo + frac * (hi - lo);
        }
        prev = c;
    }
    les.last().copied().unwrap_or(0.0)
}

/// Everything the serve run measured.
#[derive(Default)]
pub struct ServeRun {
    pub setup: Series,
    /// Untraced open-loop latencies from each request's due time, µs.
    pub latency_us: Series,
    /// The same for the traced windows (trace mode).
    pub traced_latency_us: Series,
    /// Requests per second of each closed-loop window.
    pub window_rps: Series,
    pub lag_us: Series,
    /// The open loop's offered load, requests per second.
    pub open_rate: f64,
    pub max_rps: f64,
    pub server_p50_us: f64,
    pub rejected: f64,
    pub errors: f64,
    pub peak_rss_mb: f64,
    pub layers: SeriesMap,
    pub unattributed: f64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl ServeRun {
    fn absorb(&mut self, o: ConnOut) {
        self.attempted += o.sent;
        self.failed += o.failed;
        self.failures.extend(o.failures);
    }
}

pub fn run(opts: &Opts) -> Result<ServeRun, String> {
    let threads = hamlet_obs::env::resolved_threads();
    let mut run = ServeRun::default();
    set_tracing(opts.trace);
    let st = repeat_setup(&mut run.setup, || setup(opts, threads))?;
    set_tracing(false);
    if opts.trace {
        let setups = run.setup.samples.len() as f64;
        for (k, v) in account(&drain_spans()).layers {
            // One load per model per set-up: report the per-set-up total.
            run.layers.push(k, v / setups);
        }
    }
    let conns = threads;
    let phase = |i: usize| Duration::from_secs_f64(opts.seconds * PHASES[i]);
    let windows = |d: Duration| (d.as_secs_f64() / WINDOW_S).round().max(1.0) as usize;
    if opts.trace {
        drain_spans();
        set_tracing(true);
    }
    let job_started = Instant::now();
    let job = span!(JOB_SPAN);

    {
        let _s = span!("bench.serve.warm_up");
        let warm = drive(
            &st.server,
            &st.requests,
            conns,
            None,
            Instant::now() + phase(0),
            0,
        );
        run.absorb(warm);
    }
    run.open_rate = OPEN_RATE_PER_CONN * conns as f64;
    let before = st.server.metrics().map(|m| parse_metrics(&m));
    {
        let _s = span!("bench.serve.open_loop");
        let n = windows(phase(1));
        for w in 0..n {
            // In trace mode every other window runs traced, so one run
            // yields both sides of the overhead under the same load.
            let traced = opts.trace && w % 2 == 1;
            set_tracing(traced);
            let until = Instant::now() + phase(1) / n as u32;
            let o = drive(
                &st.server,
                &st.requests,
                conns,
                Some(run.open_rate),
                until,
                w,
            );
            set_tracing(opts.trace);
            let target = if traced {
                &mut run.traced_latency_us
            } else {
                &mut run.latency_us
            };
            target.samples.extend(&o.latencies_us);
            run.lag_us.samples.extend(&o.lags_us);
            run.absorb(o);
        }
    }
    let after = st.server.metrics().map(|m| parse_metrics(&m));
    {
        let _s = span!("bench.serve.closed_loop");
        let n = windows(phase(2));
        for w in 0..n {
            let t = Instant::now();
            let o = drive(
                &st.server,
                &st.requests,
                conns,
                None,
                t + phase(2) / n as u32,
                n + w,
            );
            run.window_rps
                .push(o.sent as f64 / t.elapsed().as_secs_f64());
            run.absorb(o);
        }
    }
    run.max_rps = run.window_rps.max();
    drop(job);
    let job_s = job_started.elapsed().as_secs_f64();
    if opts.trace {
        set_tracing(false);
        let acct = account(&drain_spans());
        run.unattributed = if job_s > 0.0 {
            acct.job_self_s / acct.job_s.max(1e-9)
        } else {
            0.0
        };
    }
    let last = st.server.metrics().map(|m| parse_metrics(&m));
    match (before, after, last) {
        (Ok(b), Ok(a), Ok(l)) => {
            run.server_p50_us = server_p50_us(&b, &a);
            run.rejected = l.rejected;
            run.errors = l.errors;
        }
        (b, a, l) => {
            let e = [b.err(), a.err(), l.err()]
                .into_iter()
                .flatten()
                .collect::<Vec<_>>();
            run.attempted += 1;
            run.failed += 1;
            run.failures.push(format!("scraping /metrics: {e:?}"));
        }
    }
    run.peak_rss_mb = peak_rss_mb(Some(st.server.child.id())).unwrap_or(0.0);
    drop(st);
    Ok(run)
}

impl ServeRun {
    pub fn p50_us(&self) -> f64 {
        self.latency_us.median()
    }

    pub fn p99_us(&self) -> f64 {
        quantile(&self.latency_us.samples, 0.99)
    }
}
