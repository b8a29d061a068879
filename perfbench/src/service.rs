//! `service-mixed`: an in-process experiment server (2 workers, durable
//! store with an fsync per record) driven by a closed-loop generator with
//! 2 connections. Each request is a full client round trip: POST `/runs`,
//! stream `/runs/<id>` until it settles, GET `/results/<hash>`. Three in
//! four requests resubmit an already-stored config (a store read); the
//! rest are unseen configs with a fresh seed offset (graph generation,
//! simulation and a durable append).

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use graphmem_core::graphcache;
use graphmem_core::{PagePolicy, PageSizePlan, RunReport, RunSpec};
use graphmem_graph::Dataset;
use graphmem_server::{http, Server, ServerConfig};
use graphmem_telemetry::json::JsonValue;
use graphmem_workloads::Kernel;

use crate::layers::{Layers, SimTotals};
use crate::probes::Probes;
use crate::trace::Trace;
use crate::{fnv1a, median, out_dir, peak_rss_mib, Args, Outcome, SplitMix, Tally};

/// log2 vertices of every service config: small, so a miss costs tens of
/// milliseconds rather than seconds.
const SCALE: u8 = 12;
/// The config shapes; one stored config of each is seeded at set-up.
const SHAPES: [(Dataset, Kernel); 4] = [
    (Dataset::Kron25, Kernel::Bfs),
    (Dataset::Kron25, Kernel::Pagerank),
    (Dataset::Wiki, Kernel::Bfs),
    (Dataset::Wiki, Kernel::Pagerank),
];
/// Per batch, each stored config is requested this often, and each shape
/// once more as an unseen config: 12 hits and 4 misses.
const HITS_PER_SHAPE: usize = 3;
const CONNECTIONS: usize = 2;
const WORKERS: usize = 2;
const SETUP_ROUNDS: u64 = 3;
/// Timed batches run for `--seconds`, and at least this many: 25 batches
/// give 100 unseen-config round trips, so a p90 has 10 samples beyond it.
/// Batch 0 is a warm-up and is not timed.
const MIN_TIMED_BATCHES: usize = 25;

/// A seed offset for `tag`, derived from the workload seed. Kept below
/// 2^52 so it survives the JSON number round trip.
fn offset(seed: u64, tag: u64) -> u64 {
    SplitMix(seed.wrapping_mul(0x100_0000_01B3) ^ tag).next_u64() >> 12
}

fn spec_body(shape: usize, seed_offset: u64) -> String {
    let (dataset, kernel) = SHAPES[shape];
    RunSpec {
        dataset,
        kernel,
        scale: Some(SCALE),
        plan: PageSizePlan::with_policy(PagePolicy::ThpSystemWide),
        seed_offset,
        ..RunSpec::default()
    }
    .to_json()
}

/// One client round trip, timed per call.
#[derive(Debug)]
struct Exchange {
    post_ms: f64,
    settle_ms: f64,
    fetch_ms: f64,
    cached: bool,
    report: String,
}

impl Exchange {
    fn rtt_ms(&self) -> f64 {
        self.post_ms + self.settle_ms + self.fetch_ms
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// POST `body`, stream the job until it settles, fetch the report. Any
/// non-2xx status or a state other than `done` is an error.
fn exchange(addr: &str, body: &str, trace: Option<(&Trace, u64)>) -> Result<Exchange, String> {
    let root = trace.map(|(t, id)| t.begin("server.request", id, None));
    let span = |name| trace.map(|(t, id)| t.begin(name, id, root));
    let end = |s: Option<usize>| {
        if let (Some((t, _)), Some(s)) = (trace, s) {
            t.end(s);
        }
    };

    let (s, t) = (span("server.post"), Instant::now());
    let (status, resp) = http::request(addr, "POST", "/runs", body).map_err(|e| e.to_string())?;
    let post_ms = ms_since(t);
    end(s);
    if status != 202 {
        return Err(format!("POST /runs answered {status}: {resp}"));
    }
    let resp = JsonValue::parse(&resp)?;
    let job = resp
        .get("job")
        .and_then(JsonValue::as_u64)
        .ok_or("no job id")?;
    let hash = resp
        .get("hashes")
        .and_then(JsonValue::as_array)
        .and_then(|h| h.first())
        .and_then(JsonValue::as_str)
        .ok_or("no config hash")?
        .to_string();

    let (s, t) = (span("server.settle"), Instant::now());
    let mut rows = Vec::new();
    let status = http::stream_lines(addr, &format!("/runs/{job}"), |l| rows.push(l.to_string()))
        .map_err(|e| e.to_string())?;
    let settle_ms = ms_since(t);
    end(s);
    let first = rows.first().map(|r| JsonValue::parse(r)).transpose()?;
    let state = first
        .as_ref()
        .and_then(|r| r.get("status"))
        .and_then(JsonValue::as_str);
    if status != 200 || state != Some("done") {
        return Err(format!(
            "job {job} settled {state:?} (HTTP {status}): {rows:?}"
        ));
    }
    let cached = first
        .as_ref()
        .and_then(|r| r.get("cached"))
        .and_then(JsonValue::as_bool)
        .unwrap_or(false);

    let (s, t) = (span("server.fetch"), Instant::now());
    let (status, report) =
        http::request(addr, "GET", &format!("/results/{hash}"), "").map_err(|e| e.to_string())?;
    let fetch_ms = ms_since(t);
    end(s);
    end(root);
    if status != 200 {
        return Err(format!("GET /results/{hash} answered {status}"));
    }
    Ok(Exchange {
        post_ms,
        settle_ms,
        fetch_ms,
        cached,
        report,
    })
}

/// A running server on a fresh store directory, with its stored configs.
struct Service {
    server: Server,
    addr: String,
    dir: PathBuf,
    /// `(spec body, report JSON)` of each stored config, by shape.
    stored: Vec<(String, String)>,
}

impl Service {
    /// Start a server and store one config of each shape through it.
    fn start(seed: u64, round: u64, tally: &mut Tally) -> Result<Service, String> {
        let dir = out_dir().join(format!("store-{}-{round}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::start(ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: WORKERS,
            cache_dir: Some(dir.clone()),
            ..ServerConfig::default()
        })
        .map_err(|e| format!("server start: {e}"))?;
        let addr = server.addr().to_string();
        let mut svc = Service {
            server,
            addr,
            dir,
            stored: Vec::new(),
        };
        let bodies: Vec<String> = (0..SHAPES.len())
            .map(|shape| spec_body(shape, offset(seed, round << 32 | shape as u64)))
            .collect();
        let results = svc.drive(&bodies, None);
        for (body, result) in bodies.into_iter().zip(results) {
            let report = match result {
                Ok(x) => x.report,
                Err(e) => {
                    svc.stop();
                    return Err(format!("seeding the store: {e}"));
                }
            };
            tally.check(verified(&report), || {
                format!("stored config unverified: {body}")
            });
            svc.stored.push((body, report));
        }
        Ok(svc)
    }

    /// Send every body through `CONNECTIONS` closed-loop clients; results
    /// come back in body order.
    fn drive(
        &self,
        bodies: &[String],
        trace: Option<(&Trace, u64)>,
    ) -> Vec<Result<Exchange, String>> {
        let next = AtomicUsize::new(0);
        let results = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..CONNECTIONS {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some(body) = bodies.get(i) else { break };
                    let traced = trace.map(|(t, batch)| (t, batch << 16 | i as u64));
                    let r = exchange(&self.addr, body, traced);
                    results
                        .lock()
                        .expect("a client thread panicked")
                        .push((i, r));
                });
            }
        });
        let mut results = results.into_inner().expect("a client thread panicked");
        results.sort_by_key(|(i, _)| *i);
        results.into_iter().map(|(_, r)| r).collect()
    }

    /// `/metrics` as parsed JSON.
    fn metrics(&self) -> Result<JsonValue, String> {
        let (status, body) =
            http::request(&self.addr, "GET", "/metrics", "").map_err(|e| e.to_string())?;
        if status != 200 {
            return Err(format!("GET /metrics answered {status}"));
        }
        JsonValue::parse(&body)
    }

    /// Drain the server and remove its store directory.
    fn stop(self) {
        self.server.join();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn verified(report: &str) -> bool {
    RunReport::from_json(report).is_ok_and(|r| r.verified)
}

/// Start and seed a service `SETUP_ROUNDS` times (each round on fresh
/// seed offsets, so every round generates and simulates); keep the last.
fn setup(seed: u64, tally: &mut Tally) -> Result<(Service, Vec<f64>), String> {
    let mut times = Vec::new();
    for round in 0..SETUP_ROUNDS {
        let t = Instant::now();
        let svc = Service::start(seed, round, tally)?;
        times.push(t.elapsed().as_secs_f64());
        if round + 1 == SETUP_ROUNDS {
            return Ok((svc, times));
        }
        svc.stop();
    }
    Err("no set-up round ran".into())
}

/// Batch `batch`'s requests in seeded order: `(stored shape or None for
/// a miss, spec body)`.
fn plan(seed: u64, batch: u64, svc: &Service) -> Vec<(Option<usize>, String)> {
    let mut reqs = Vec::new();
    for shape in 0..SHAPES.len() {
        for _ in 0..HITS_PER_SHAPE {
            reqs.push((Some(shape), svc.stored[shape].0.clone()));
        }
        let tag = 1 << 48 | batch << 8 | shape as u64;
        reqs.push((None, spec_body(shape, offset(seed, tag))));
    }
    let mut rng = SplitMix(seed ^ batch.wrapping_mul(0xB5AD_4ECE_DA1C_E2A9));
    for i in (1..reqs.len()).rev() {
        reqs.swap(i, rng.below(i as u64 + 1) as usize);
    }
    reqs
}

/// What the generator observed over every batch of a run.
#[derive(Debug, Default)]
struct Observed {
    walls: Vec<f64>,
    traced_walls: Vec<f64>,
    hit_rtt_ms: Vec<f64>,
    miss_rtt_ms: Vec<f64>,
    /// Per-call times of traced hit requests.
    calls_ms: [Vec<f64>; 3],
    /// Simulated totals and report digest of batch 0.
    sim: SimTotals,
    digest: String,
}

/// Run batches for `--seconds`; with `traced`, every other batch records
/// spans.
fn generate(args: &Args, svc: &Service, trace: Option<&Trace>, tally: &mut Tally) -> Observed {
    let mut obs = Observed::default();
    let start = Instant::now();
    let mut batch = 0u64;
    while obs.walls.len() + obs.traced_walls.len() < MIN_TIMED_BATCHES
        || start.elapsed() < args.seconds
    {
        let reqs = plan(args.seed, batch, svc);
        let bodies: Vec<String> = reqs.iter().map(|(_, b)| b.clone()).collect();
        let traced = trace.filter(|_| batch % 2 == 1).map(|t| (t, batch));
        let t = Instant::now();
        let results = svc.drive(&bodies, traced);
        let wall = t.elapsed().as_secs_f64();
        let mut reports = Vec::new();
        for ((stored, body), result) in reqs.iter().zip(results) {
            let x = match result {
                Ok(x) => x,
                Err(e) => {
                    tally.check(false, || e);
                    continue;
                }
            };
            let ok = match stored {
                Some(shape) => x.cached && x.report == svc.stored[*shape].1,
                None => !x.cached && verified(&x.report),
            };
            tally.check(ok, || {
                format!("wrong answer (cached {}) for {body}", x.cached)
            });
            if batch > 0 {
                match stored {
                    Some(_) => obs.hit_rtt_ms.push(x.rtt_ms()),
                    None => obs.miss_rtt_ms.push(x.rtt_ms()),
                }
                if traced.is_some() && stored.is_some() {
                    obs.calls_ms[0].push(x.post_ms);
                    obs.calls_ms[1].push(x.settle_ms);
                    obs.calls_ms[2].push(x.fetch_ms);
                }
            }
            reports.push(x.report);
        }
        match (batch, traced) {
            (0, _) => {
                for r in reports.iter().filter_map(|r| RunReport::from_json(r).ok()) {
                    obs.sim.add(&r);
                }
                obs.digest = fnv1a(reports.iter().map(String::as_str));
            }
            (_, Some(_)) => obs.traced_walls.push(wall),
            (_, None) => obs.walls.push(wall),
        }
        batch += 1;
    }
    obs
}

fn notes(obs: &Observed, out: &mut Outcome) {
    let pct = |v: &[f64], p| crate::percentile(v, p);
    for (kind, v) in [("hit", &obs.hit_rtt_ms), ("miss", &obs.miss_rtt_ms)] {
        out.notes.push(format!(
            "{kind}_rtt_p50_ms {:.3} {kind}_rtt_p90_ms {:.3} ({} samples)",
            pct(v, 0.5),
            pct(v, 0.9),
            v.len()
        ));
    }
    out.notes.push(format!(
        "{} timed batches of {} requests",
        obs.walls.len() + obs.traced_walls.len(),
        SHAPES.len() * (HITS_PER_SHAPE + 1)
    ));
}

/// End-to-end metrics, tracing off.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (svc, setup_s) = setup(args.seed, &mut out.tally)?;
    let obs = generate(args, &svc, None, &mut out.tally);
    svc.stop();
    out.push("wall_s", median(&obs.walls), "s");
    out.push("setup_s", median(&setup_s), "s");
    out.push("peak_rss_mib", peak_rss_mib(), "MiB");
    out.push("sim_cycles", obs.sim.cycles as f64, "cycles");
    notes(&obs, &mut out);
    out.digest = obs.digest;
    Ok(out)
}

/// Per-layer metrics: untraced batches alternate with traced ones.
pub fn run_traced(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let trace = Trace::default();
    // The service's inputs, generated here to time the graph layer.
    for round in 0..SETUP_ROUNDS {
        // One graph per dataset: BFS and PageRank share it.
        for shape in [0, 2] {
            let seed_offset = offset(args.seed, round << 32 | shape as u64);
            trace.span("graph.generate", round, None, || {
                SHAPES[shape]
                    .0
                    .generate_with_seed(SCALE, false, seed_offset)
            });
        }
    }
    let (svc, _) = setup(args.seed, &mut out.tally)?;
    let obs = generate(args, &svc, Some(&trace), &mut out.tally);
    let metrics = svc.metrics();
    svc.stop();
    let metrics = metrics?;
    let field = |k: &str| metrics.get(k).and_then(JsonValue::as_u64).unwrap_or(0);

    let layers = Layers {
        generate_s: median(&trace.per_trace_s("graph.generate")),
        graphcache: graphcache::shared().stats(),
        sim: obs.sim,
        memo: (
            field("translation_memo_hits"),
            field("translation_memo_misses"),
        ),
        post_ms: median(&obs.calls_ms[0]),
        settle_ms: median(&obs.calls_ms[1]),
        fetch_ms: median(&obs.calls_ms[2]),
        hit_rtt_ms: obs.hit_rtt_ms.clone(),
        miss_rtt_ms: obs.miss_rtt_ms.clone(),
        results: (field("result_hits"), field("result_misses")),
        store_fsyncs: field("store_fsyncs"),
        rejected: field("submissions_rejected"),
        trace_overhead: median(&obs.traced_walls) / median(&obs.walls),
        ..Layers::default()
    };
    layers.emit(&Probes::measure(args.seed)?, &mut out);
    notes(&obs, &mut out);
    out.digest = obs.digest;
    let path = out_dir().join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    trace.write_jsonl(&path).map_err(|e| e.to_string())?;
    Ok(out)
}
