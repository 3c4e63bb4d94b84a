//! The `serve-mixed` workload: a real `bitline-serve` daemon with a
//! checkpoint journal, fed an open loop of short requests at fixed rates.
//!
//! Each run uses a fresh daemon and a fresh journal, and every fresh seed
//! is unique within the run, so a "fresh" request can never turn into a
//! cache hit left over from another run. Load comes from this one process
//! over one connection: the main thread sends on schedule, one reader
//! thread collects responses.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use bitline_cmos::TechnologyNode;
use bitline_obs::json;
use bitline_serve::{protocol, Request, RunRow};
use bitline_sim::checkpoint;
use bitline_workloads::suite;

use crate::batch::{mix, Phase};
use crate::spans;
use crate::stats::{median, proc_peak_rss_mb, quantile, Outcome};

/// Offered rates, in arrivals per second (evenly spaced), each held for an
/// equal share of the run.
pub const RATES: [f64; 3] = [25.0, 50.0, 100.0];
/// Latency limit on p99 for a rate to count as met.
pub const P99_LIMIT_MS: f64 = 100.0;
/// Daemon worker threads.
pub const WORKERS: usize = 2;
/// Instructions per request.
pub const INSTRS: u64 = 10_000;
/// Keys journaled before the timed phase; repeats draw from these.
pub const JOURNALED: usize = 16;
/// The request mix per block of ten arrivals: seven fresh keys, one fresh
/// key sent twice back to back (in-flight dedup), two repeats of
/// journaled keys (warm hits).
const MIX: [Kind; 10] = [
    Kind::Fresh,
    Kind::Fresh,
    Kind::Fresh,
    Kind::Fresh,
    Kind::Fresh,
    Kind::Fresh,
    Kind::Fresh,
    Kind::Pair,
    Kind::Repeat,
    Kind::Repeat,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Fresh,
    Pair,
    Repeat,
}
/// D-cache policies the mix cycles through.
pub const POLICIES: [&str; 3] = ["gated:100", "static", "ondemand"];
/// How long a request may stay unanswered after its rate's phase ends.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(20);
/// Daemon restarts measured per run; the median is reported.
const SETUPS: usize = 3;

/// What the serve run measured beyond the batch-style [`Phase`].
#[derive(Debug, Default)]
pub struct ServeExtra {
    pub compute_ms: f64,
    pub wait_ms: f64,
    pub dedup_share: f64,
    pub shed_share: f64,
    pub generator_lag_ms: f64,
    pub journal_dir: PathBuf,
    pub request_line: String,
    pub benchmark: String,
}

struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Starts the daemon on the journal in `scratch/ck` (afresh unless
    /// `resume`) and waits until a ping answers.
    fn start(bin: &Path, scratch: &Path, resume: bool) -> Result<Daemon, String> {
        let socket = scratch.join("bl.sock");
        let _ = std::fs::remove_file(&socket);
        let log = std::fs::File::create(scratch.join("daemon.log")).map_err(|e| e.to_string())?;
        let mut cmd = Command::new(bin);
        cmd.arg("--serve")
            .arg("--socket")
            .arg(&socket)
            .arg("--checkpoint")
            .arg(scratch.join("ck"))
            .arg("--jobs")
            .arg(WORKERS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log);
        if !resume {
            cmd.arg("--no-resume");
        }
        let child = cmd.spawn().map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut d = Daemon { child, socket };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(s) = UnixStream::connect(&d.socket) {
                if ping(s).is_ok() {
                    return Ok(d);
                }
            }
            if Instant::now() > deadline || d.child.try_wait().ok().flatten().is_some() {
                return Err("daemon did not answer a ping".into());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    fn request(&self, line: &str) -> Result<String, String> {
        let s = UnixStream::connect(&self.socket).map_err(|e| e.to_string())?;
        round_trip(s, line)
    }

    /// Drains the daemon and waits for it to exit (killing it if it will
    /// not).
    fn stop(&mut self) {
        let _ = self.request(r#"{"id":"drain","op":"drain"}"#);
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if self.child.try_wait().ok().flatten().is_some() {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    /// A run that fails part-way still leaves no daemon behind.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn round_trip(mut s: UnixStream, line: &str) -> Result<String, String> {
    s.set_read_timeout(Some(Duration::from_secs(30))).map_err(|e| e.to_string())?;
    s.write_all(line.as_bytes()).and_then(|()| s.write_all(b"\n")).map_err(|e| e.to_string())?;
    let mut out = String::new();
    BufReader::new(s).read_line(&mut out).map_err(|e| e.to_string())?;
    Ok(out.trim_end().to_owned())
}

fn ping(s: UnixStream) -> Result<(), String> {
    let r = round_trip(s, r#"{"id":"ping","op":"ping"}"#)?;
    r.contains("\"pong\":true").then_some(()).ok_or(r)
}

/// One run request of the mix.
#[derive(Debug, Clone)]
struct Req {
    id: String,
    benchmark: String,
    line: String,
}

fn run_request(id: String, benchmark: &str, policy: &str, seed: u64) -> Req {
    let line = format!(
        "{{\"id\":\"{id}\",\"benchmark\":\"{benchmark}\",\"spec\":{{\"d_policy\":\"{policy}\",\"instructions\":{INSTRS},\"seed\":{seed}}}}}"
    );
    Req { id, benchmark: benchmark.to_owned(), line }
}

/// The expected response line for a request: an in-process
/// `try_run_benchmark` of the same parsed spec, rendered as the daemon
/// renders it.
fn expected(req: &Req) -> Result<String, String> {
    let Ok(Request::Run(run)) = bitline_serve::parse_request(&req.line) else {
        return Err("request does not parse".into());
    };
    let result =
        bitline_sim::try_run_benchmark(&run.benchmark, &run.spec).map_err(|e| e.to_string())?;
    let row = RunRow::from_result(&result, TechnologyNode::N70);
    let key = checkpoint::spec_key(&run.benchmark, &run.spec);
    Ok(protocol::ok_line(&run.id, &run.benchmark, &key, &row))
}

/// A small deterministic generator for the arrival schedule and the mix.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0, 7, u64::MAX)
    }
}

struct Sent {
    req: Req,
    due: Instant,
    rate: usize,
}

pub fn serve_mixed(
    bin: &Path,
    scratch: &Path,
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
) -> Result<(Phase, ServeExtra), String> {
    let names = suite::names();
    let base = 1 + mix(seed, 11, 1 << 40);
    let mut rng = Rng(seed);
    let mut phase = Phase::default();
    let mut extra = ServeExtra { journal_dir: scratch.join("ck"), ..ServeExtra::default() };

    // Untimed: journal the keys that repeats will ask for.
    let journaled: Vec<Req> = (0..JOURNALED)
        .map(|j| {
            let b = names[(rng.next() % names.len() as u64) as usize];
            run_request(
                format!("j{j}"),
                b,
                POLICIES[j % POLICIES.len()],
                base + (1 << 41) + j as u64,
            )
        })
        .collect();
    let mut daemon = Daemon::start(bin, scratch, false)?;
    for r in &journaled {
        let got = daemon.request(&r.line)?;
        if !got.contains("\"status\":\"ok\"") {
            return Err(format!("journaling {}: {got}", r.id));
        }
    }
    daemon.stop();

    // Set-up: restart on the journal until the first ping answers.
    for k in 0..SETUPS {
        let t = Instant::now();
        daemon = Daemon::start(bin, scratch, true)?;
        phase.setup_s.push(t.elapsed().as_secs_f64());
        if k + 1 < SETUPS {
            daemon.stop();
        }
    }

    // Timed: the open loop, one rate after another.
    let stream = UnixStream::connect(&daemon.socket).map_err(|e| e.to_string())?;
    let reader = stream.try_clone().map_err(|e| e.to_string())?;
    let (tx, rx) = mpsc::channel::<(String, String, Instant)>();
    let reader_thread = std::thread::spawn(move || {
        for line in BufReader::new(reader).lines() {
            let Ok(line) = line else { break };
            let now = Instant::now();
            let id = json::parse(&line)
                .ok()
                .and_then(|v| {
                    json::as_object(&v)
                        .ok()
                        .and_then(|o| json::get_str(o, "id").ok().map(str::to_owned))
                })
                .unwrap_or_default();
            if tx.send((id, line, now)).is_err() {
                break;
            }
        }
    });
    let mut writer = stream;
    // The mix is exact: every block of MIX.len() requests holds each kind
    // in its share, in a seed-shuffled order; fresh keys rotate through
    // the suite from a seed-chosen start.
    let mut pattern = MIX.to_vec();
    for i in (1..pattern.len()).rev() {
        pattern.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    let bench_offset = (rng.next() % names.len() as u64) as usize;
    let per_rate = seconds / RATES.len() as f64;
    let mut sent: Vec<Sent> = Vec::new();
    let mut responses: HashMap<String, (String, Instant)> = HashMap::new();
    let mut lag_ms = Vec::new();
    let mut fresh = 0u64;
    let mut arrival = 0usize;
    let start = Instant::now();
    let mut phase_start = start;
    for (ri, &rate) in RATES.iter().enumerate() {
        let first = sent.len();
        let count = (rate * per_rate).round() as u64;
        for k in 0..count {
            let due = phase_start + Duration::from_secs_f64(k as f64 / rate);
            let kind = pattern[arrival % pattern.len()];
            arrival += 1;
            let batch: Vec<Req> = if kind == Kind::Repeat {
                let j = &journaled[(rng.next() % JOURNALED as u64) as usize];
                let id = format!("r{}", sent.len());
                vec![Req {
                    line: j.line.replacen(
                        &format!("\"id\":\"{}\"", j.id),
                        &format!("\"id\":\"{id}\""),
                        1,
                    ),
                    id,
                    ..j.clone()
                }]
            } else {
                fresh += 1;
                let b = names[(bench_offset + fresh as usize) % names.len()];
                let p = POLICIES[fresh as usize % POLICIES.len()];
                let copies = if kind == Kind::Pair { 2 } else { 1 };
                (0..copies)
                    .map(|c| run_request(format!("f{}-{c}", sent.len()), b, p, base + fresh))
                    .collect()
            };
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent_at = Instant::now();
            lag_ms.push(sent_at.saturating_duration_since(due).as_secs_f64() * 1e3);
            for req in batch {
                writer
                    .write_all(req.line.as_bytes())
                    .and_then(|()| writer.write_all(b"\n"))
                    .map_err(|e| format!("send: {e}"))?;
                sent.push(Sent { req, due, rate: ri });
            }
        }
        // Wait for this rate's requests before offering the next rate.
        let deadline = Instant::now() + RESPONSE_TIMEOUT;
        while sent[first..].iter().any(|s| !responses.contains_key(&s.req.id)) {
            let left = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left) {
                Ok((id, line, t)) => {
                    responses.insert(id, (line, t));
                }
                Err(_) => break,
            }
        }
        while let Ok((id, line, t)) = rx.try_recv() {
            responses.insert(id, (line, t));
        }
        phase_start = Instant::now();
    }
    let end = sent
        .iter()
        .filter_map(|s| responses.get(&s.req.id).map(|r| r.1))
        .max()
        .unwrap_or_else(Instant::now);
    let wall_s = end.saturating_duration_since(start).as_secs_f64();
    phase.round_s.push(wall_s);

    // The daemon's own view, then its peak memory, then shut it down.
    let metrics = daemon.request(r#"{"id":"m","op":"metrics"}"#).unwrap_or_default();
    let stats = daemon.request(r#"{"id":"s","op":"stats"}"#).unwrap_or_default();
    phase.peak_rss_mb = proc_peak_rss_mb(&daemon.child.id().to_string()).unwrap_or(0.0);
    drop(writer);
    daemon.stop();
    let _ = reader_thread.join();

    // Latency per request from its due time; failures miss the limit.
    let mut per_rate: Vec<Vec<f64>> = vec![Vec::new(); RATES.len()];
    let mut all = Vec::new();
    let mut failed_per_rate = vec![0usize; RATES.len()];
    for s in &sent {
        match responses.get(&s.req.id) {
            Some((line, t)) if line.contains("\"status\":\"ok\"") => {
                let ms = t.saturating_duration_since(s.due).as_secs_f64() * 1e3;
                per_rate[s.rate].push(ms);
                all.push(ms);
                spans::record("serve", s.due, *t, request_number(&s.req.id));
            }
            _ => {
                failed_per_rate[s.rate] += 1;
                per_rate[s.rate].push(f64::INFINITY);
                all.push(f64::INFINITY);
            }
        }
    }
    let mut met = 0.0;
    for (ri, lat) in per_rate.iter().enumerate() {
        let p99 = quantile(lat, 0.99);
        let growing = backlog_grows(&sent, &responses, ri);
        eprintln!(
            "perfbench: serve {} rps: {} requests, p50 {:.2} ms, p99 {:.2} ms, failed {}, growing backlog {}",
            RATES[ri],
            lat.len(),
            quantile(lat, 0.5),
            p99,
            failed_per_rate[ri],
            growing
        );
        if p99 <= P99_LIMIT_MS && !growing && failed_per_rate[ri] == 0 {
            met = RATES[ri];
        }
    }
    phase.max_rate_rps = Some(met);
    phase.op_ms = all;
    phase.ops = sent.len() as u64;
    extra.generator_lag_ms = quantile(&lag_ms, 0.99);

    // Output check: every response equals the in-process reference.
    let check_span = spans::span("bench");
    let mut committed_keys: BTreeMap<String, u64> = BTreeMap::new();
    let checks: Vec<(&Sent, Option<&String>)> =
        sent.iter().map(|s| (s, responses.get(&s.req.id).map(|r| &r.0))).collect();
    let expect: Vec<Result<String, String>> = std::thread::scope(|scope| {
        let half = checks.len().div_ceil(2);
        let handles: Vec<_> = checks
            .chunks(half.max(1))
            .map(|part| {
                scope.spawn(move || part.iter().map(|(s, _)| expected(&s.req)).collect::<Vec<_>>())
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("reference thread")).collect()
    });
    for ((s, got), want) in checks.iter().zip(expect) {
        match (got, want) {
            (Some(got), Ok(want)) => {
                out.check(**got == want, &|| format!("serve {}: got {got}, want {want}", s.req.id));
                if let Some(c) = row_committed(got) {
                    if s.req.id.starts_with('f') {
                        committed_keys.insert(s.req.line.replacen(&s.req.id, "", 1), c);
                    }
                }
            }
            (None, _) => out.fail(&format!("serve {}: no response", s.req.id)),
            (_, Err(e)) => out.fail(&format!("serve {}: reference: {e}", s.req.id)),
        }
    }
    phase.round_mips.push(committed_keys.values().sum::<u64>() as f64 / wall_s / 1e6);
    drop(check_span);

    // Daemon-side split of the latency.
    let compute_ms = request_wall_ms(&metrics);
    let ok: Vec<f64> = phase.op_ms.iter().copied().filter(|v| v.is_finite()).collect();
    extra.compute_ms = compute_ms;
    extra.wait_ms = (ok.iter().sum::<f64>() / ok.len().max(1) as f64 - compute_ms).max(0.0);
    let n = sent.len().max(1) as f64;
    extra.dedup_share = stat(&stats, "deduped") / n;
    extra.shed_share = stat(&stats, "shed") / n;
    extra.request_line = sent.first().map(|s| s.req.line.clone()).unwrap_or_default();
    extra.benchmark = sent.first().map(|s| s.req.benchmark.clone()).unwrap_or_else(|| "gcc".into());
    eprintln!(
        "perfbench: serve latency samples {}, median lag {:.3} ms",
        ok.len(),
        median(&lag_ms)
    );
    Ok((phase, extra))
}

fn request_number(id: &str) -> u64 {
    id.trim_start_matches(['r', 'f']).split('-').next().and_then(|n| n.parse().ok()).unwrap_or(0)
}

/// A rate's backlog grows when requests due in its last third wait much
/// longer than those due in its first third.
fn backlog_grows(
    sent: &[Sent],
    responses: &HashMap<String, (String, Instant)>,
    rate: usize,
) -> bool {
    let mine: Vec<&Sent> = sent.iter().filter(|s| s.rate == rate).collect();
    if mine.len() < 6 {
        return false;
    }
    let lat = |s: &&Sent| {
        responses
            .get(&s.req.id)
            .map_or(f64::INFINITY, |r| r.1.saturating_duration_since(s.due).as_secs_f64() * 1e3)
    };
    let third = mine.len() / 3;
    let head: Vec<f64> = mine[..third].iter().map(lat).collect();
    let tail: Vec<f64> = mine[mine.len() - third..].iter().map(lat).collect();
    median(&tail) > 2.0 * median(&head) + 10.0
}

fn row_committed(line: &str) -> Option<u64> {
    let v = json::parse(line).ok()?;
    let obj = json::as_object(&v).ok()?;
    let row = json::as_object(json::get(obj, "row").ok()?).ok()?;
    json::get_u64(row, "committed").ok()
}

fn stat(line: &str, key: &str) -> f64 {
    let get = || -> Option<u64> {
        let v = json::parse(line).ok()?;
        let obj = json::as_object(&v).ok()?;
        json::get_u64(json::as_object(json::get(obj, "stats").ok()?).ok()?, key).ok()
    };
    get().unwrap_or(0) as f64
}

/// Mean of the daemon's `serve.request_wall_us` histogram, in ms.
fn request_wall_ms(metrics_line: &str) -> f64 {
    let get = || -> Option<f64> {
        let v = json::parse(metrics_line).ok()?;
        let text = json::get_str(json::as_object(&v).ok()?, "metrics_jsonl").ok()?.to_owned();
        bitline_obs::export::parse_jsonl(&text).ok()?.into_iter().find_map(|r| match r {
            bitline_obs::export::Record::Histogram { name, snapshot, .. }
                if name == "serve.request_wall_us" =>
            {
                Some(snapshot.sum as f64 / snapshot.count.max(1) as f64 / 1e3)
            }
            _ => None,
        })
    };
    get().unwrap_or(0.0)
}
