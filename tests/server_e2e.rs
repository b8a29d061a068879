//! Loopback end-to-end test of the experiment service: start a real
//! [`graphmem_server::Server`] on an ephemeral port, submit a small
//! sweep twice over HTTP, and prove that the second pass is served
//! entirely from the content-addressed result store with byte-identical
//! report JSON.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use graphmem_core::{FaultPlan, FaultSpec, IoFaultKind, IoFaultPlan};
use graphmem_server::http;
use graphmem_server::{Server, ServerConfig};
use graphmem_telemetry::json::JsonValue;

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("graphmem_e2e_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn start_server(cache_dir: Option<PathBuf>, queue: usize) -> (Server, String) {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: queue,
        cache_dir,
        ..ServerConfig::default()
    })
    .expect("server starts on an ephemeral port");
    let addr = server.addr().to_string();
    (server, addr)
}

const SWEEP_BODY: &str =
    "{\"spec\":{\"dataset\":\"wiki\",\"kernel\":\"bfs\",\"scale\":11},\"sweep\":\"frag\"}";
const ONE_CONFIG: &str = "{\"spec\":{\"dataset\":\"wiki\",\"kernel\":\"bfs\",\"scale\":11}}";

/// Submit `body`, stream the job to completion, and return
/// `(hash -> cached?, summary JSON)` for its configs.
fn run_job(addr: &str, body: &str) -> (HashMap<String, bool>, JsonValue) {
    let (status, accepted) = http::request(addr, "POST", "/runs", body).expect("submit");
    assert_eq!(status, 202, "submission accepted: {accepted}");
    let accepted = JsonValue::parse(&accepted).expect("acceptance is JSON");
    let job = accepted
        .get("job")
        .and_then(JsonValue::as_u64)
        .expect("job id");

    let mut cached = HashMap::new();
    let mut summary = None;
    let status = http::stream_lines(addr, &format!("/runs/{job}"), |line| {
        let row = JsonValue::parse(line).expect("progress row is JSON");
        if row.get("index").is_some() {
            let hash = row
                .get("hash")
                .and_then(JsonValue::as_str)
                .expect("row hash")
                .to_string();
            assert_eq!(
                row.get("status").and_then(JsonValue::as_str),
                Some("done"),
                "config must complete: {line}"
            );
            let was_cached = row.get("cached").and_then(JsonValue::as_bool) == Some(true);
            cached.insert(hash, was_cached);
        } else {
            summary = Some(row);
        }
    })
    .expect("progress stream");
    assert_eq!(status, 200);
    (cached, summary.expect("summary row"))
}

fn fetch_reports(addr: &str, hashes: &[&String]) -> HashMap<String, String> {
    hashes
        .iter()
        .map(|hash| {
            let (status, body) =
                http::request(addr, "GET", &format!("/results/{hash}"), "").expect("fetch");
            assert_eq!(status, 200, "stored result for {hash}");
            ((*hash).clone(), body)
        })
        .collect()
}

fn metric(addr: &str, key: &str) -> u64 {
    let (status, body) = http::request(addr, "GET", "/metrics", "").expect("metrics");
    assert_eq!(status, 200);
    JsonValue::parse(&body)
        .expect("metrics JSON")
        .get(key)
        .and_then(JsonValue::as_u64)
        .unwrap_or_else(|| panic!("metric {key} missing from {body}"))
}

#[test]
fn second_submission_is_served_from_the_cache_byte_identically() {
    let dir = tmp_dir("cache");
    let (server, addr) = start_server(Some(dir.clone()), 64);

    let (health_status, health) = http::request(&addr, "GET", "/healthz", "").expect("healthz");
    assert_eq!(health_status, 200);
    let health = JsonValue::parse(&health).expect("healthz JSON");
    assert_eq!(health.get("ok").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(
        health.get("degraded").and_then(JsonValue::as_bool),
        Some(false)
    );
    assert_eq!(
        health.get("queue_depth").and_then(JsonValue::as_u64),
        Some(0)
    );

    // First pass: every config runs fresh.
    let (first, summary) = run_job(&addr, SWEEP_BODY);
    assert_eq!(summary.get("failed").and_then(JsonValue::as_u64), Some(0));
    assert!(!first.is_empty(), "sweep expanded into configs");
    assert!(
        first.values().all(|cached| !cached),
        "first pass runs everything fresh"
    );
    let hashes: Vec<&String> = first.keys().collect();
    let fresh_reports = fetch_reports(&addr, &hashes);
    let hits_before = metric(&addr, "result_hits");

    // Second pass: identical submission, all hits, byte-identical bodies.
    let (second, _) = run_job(&addr, SWEEP_BODY);
    assert_eq!(first.len(), second.len());
    assert!(
        second.values().all(|cached| *cached),
        "second pass must be all cache hits: {second:?}"
    );
    let cached_reports = fetch_reports(&addr, &hashes);
    assert_eq!(fresh_reports, cached_reports, "hits must be byte-identical");

    let hits_after = metric(&addr, "result_hits");
    assert!(
        hits_after >= hits_before + first.len() as u64,
        "metrics must count the cached pass ({hits_before} -> {hits_after})"
    );
    assert_eq!(metric(&addr, "configs_failed"), 0);
    assert!(
        metric(&addr, "graph_cache_hits") > 0,
        "graph memo was shared"
    );
    assert!(
        metric(&addr, "translation_memo_hits") > 0,
        "batched runs exercise the page-run fast path"
    );

    server.join();

    // Third tier: a brand-new server over the same cache dir serves the
    // same bytes without running anything.
    let (reborn, addr2) = start_server(Some(dir.clone()), 64);
    let (third, _) = run_job(&addr2, SWEEP_BODY);
    assert!(
        third.values().all(|cached| *cached),
        "disk shards survive a restart: {third:?}"
    );
    assert_eq!(fetch_reports(&addr2, &hashes), fresh_reports);
    reborn.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_queue_answers_429_and_unknown_routes_404() {
    // Zero workers can't exist; instead saturate a tiny queue: capacity 1
    // with a 4-config sweep can never be admitted.
    let (server, addr) = start_server(None, 1);
    let (status, body) = http::request(&addr, "POST", "/runs", SWEEP_BODY).expect("submit");
    assert_eq!(status, 429, "grid larger than the queue bounces: {body}");
    assert!(body.contains("queue full"));

    let (status, _) = http::request(&addr, "GET", "/nope", "").expect("404 route");
    assert_eq!(status, 404);
    let (status, _) = http::request(&addr, "GET", "/results/ffffffffffffffff", "").expect("miss");
    assert_eq!(status, 404);
    let (status, body) =
        http::request(&addr, "POST", "/runs", "{\"dataset\":\"mars\"}").expect("bad spec");
    assert_eq!(status, 400, "unknown dataset is a client error: {body}");

    let rejected = metric(&addr, "submissions_rejected");
    assert!(rejected >= 1, "429 must be counted, got {rejected}");
    server.join();
}

/// Submit `body` and stream the job to completion without requiring
/// success, returning `hash -> (status, failure code)` per config.
fn run_job_statuses(addr: &str, body: &str) -> HashMap<String, (String, String)> {
    let (status, accepted) = http::request(addr, "POST", "/runs", body).expect("submit");
    assert_eq!(status, 202, "submission accepted: {accepted}");
    let job = JsonValue::parse(&accepted)
        .expect("acceptance")
        .get("job")
        .and_then(JsonValue::as_u64)
        .expect("job id");
    let mut rows = HashMap::new();
    let status = http::stream_lines(addr, &format!("/runs/{job}"), |line| {
        let row = JsonValue::parse(line).expect("progress row is JSON");
        if row.get("index").is_some() {
            rows.insert(
                row.get("hash")
                    .and_then(JsonValue::as_str)
                    .expect("row hash")
                    .to_string(),
                (
                    row.get("status")
                        .and_then(JsonValue::as_str)
                        .expect("row status")
                        .to_string(),
                    row.get("code")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("")
                        .to_string(),
                ),
            );
        }
    })
    .expect("progress stream");
    assert_eq!(status, 200);
    rows
}

#[test]
fn enospc_degrades_the_store_and_healthz_answers_503_while_results_keep_serving() {
    let dir = tmp_dir("enospc");
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 64,
        cache_dir: Some(dir.clone()),
        // The very first shard append hits a full disk — and a full disk
        // stays full, so the store must flip read-only instead of
        // hammering it.
        io_faults: IoFaultPlan::none().inject(0, IoFaultKind::Enospc),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.addr().to_string();

    // Configs still settle as done: losing the durable tier degrades the
    // cache, not the computation.
    let (first, summary) = run_job(&addr, SWEEP_BODY);
    assert_eq!(summary.get("failed").and_then(JsonValue::as_u64), Some(0));
    assert!(first.values().all(|cached| !cached));

    let (health_status, health_body) =
        http::request(&addr, "GET", "/healthz", "").expect("healthz");
    assert_eq!(
        health_status, 503,
        "degraded store answers 503: {health_body}"
    );
    let health = JsonValue::parse(&health_body).expect("healthz JSON");
    assert_eq!(health.get("ok").and_then(JsonValue::as_bool), Some(false));
    assert_eq!(
        health.get("degraded").and_then(JsonValue::as_bool),
        Some(true)
    );
    assert!(
        health_body.contains("ENOSPC"),
        "reasons name the cause: {health_body}"
    );
    assert_eq!(metric(&addr, "store_degraded"), 1);

    // Results keep serving from the in-memory tier...
    let hashes: Vec<&String> = first.keys().collect();
    fetch_reports(&addr, &hashes);
    // ...and a resubmission is all memory hits.
    let (second, _) = run_job(&addr, SWEEP_BODY);
    assert!(
        second.values().all(|cached| *cached),
        "degraded mode still serves the hot tier: {second:?}"
    );
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tripped_breaker_rejects_resubmission_with_circuit_open() {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_capacity: 64,
        retries: 0,
        // One panic trips the circuit; the cooldown is far longer than
        // the test, so no half-open probe sneaks in.
        compute_faults: FaultPlan::none().inject(0, FaultSpec::Panic),
        breaker_threshold: 1,
        breaker_cooldown: std::time::Duration::from_secs(600),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.addr().to_string();

    let first = run_job_statuses(&addr, ONE_CONFIG);
    assert_eq!(first.len(), 1);
    let (hash, (status, code)) = first.iter().next().expect("one config");
    assert_eq!((status.as_str(), code.as_str()), ("failed", "panic"));

    // Same config again: the breaker is open, so it fails fast without
    // re-executing (the chaos clock only ever ticked once).
    let second = run_job_statuses(&addr, ONE_CONFIG);
    assert_eq!(
        second.get(hash).map(|(s, c)| (s.as_str(), c.as_str())),
        Some(("failed", "circuit_open")),
        "open breaker rejects with the typed code: {second:?}"
    );

    let (health_status, health_body) =
        http::request(&addr, "GET", "/healthz", "").expect("healthz");
    assert_eq!(
        health_status, 200,
        "open breakers protect capacity, they do not flip liveness"
    );
    let health = JsonValue::parse(&health_body).expect("healthz JSON");
    let open: Vec<&str> = health
        .get("open_breakers")
        .and_then(JsonValue::as_array)
        .expect("open_breakers array")
        .iter()
        .filter_map(JsonValue::as_str)
        .collect();
    assert_eq!(open, vec![hash.as_str()], "healthz lists the open breaker");
    assert_eq!(metric(&addr, "breaker_open"), 1);
    assert_eq!(metric(&addr, "breaker_trips"), 1);
    assert_eq!(metric(&addr, "breaker_rejections"), 1);
    server.join();
}

#[test]
fn shutdown_settles_every_config_and_ends_the_stream() {
    // One worker, roomy queue: submit a sweep, start streaming progress,
    // then shut down mid-job. Every config must still settle (done or
    // interrupted) and the stream must terminate — never hang.
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_capacity: 64,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.addr().to_string();
    let (status, accepted) = http::request(&addr, "POST", "/runs", SWEEP_BODY).expect("submit");
    assert_eq!(status, 202, "{accepted}");
    let job = JsonValue::parse(&accepted)
        .expect("acceptance")
        .get("job")
        .and_then(JsonValue::as_u64)
        .expect("job id");

    let (first_row_tx, first_row_rx) = std::sync::mpsc::channel();
    let stream_addr = addr.clone();
    let watcher = std::thread::spawn(move || {
        let mut rows = Vec::new();
        http::stream_lines(&stream_addr, &format!("/runs/{job}"), |line| {
            let _ = first_row_tx.send(());
            rows.push(line.to_string());
        })
        .expect("stream survives shutdown");
        rows
    });

    // Wait until the stream is live (first config settled), then pull the
    // plug while the rest of the grid is still queued behind one worker.
    first_row_rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("first config settles");
    server.join(); // drain-then-flush

    let rows = watcher.join().expect("stream thread");
    let summary = JsonValue::parse(rows.last().expect("summary row")).expect("summary JSON");
    let total = summary
        .get("total")
        .and_then(JsonValue::as_u64)
        .expect("total");
    assert_eq!(rows.len() as u64, total + 1, "one row per config + summary");
    let done = summary.get("done").and_then(JsonValue::as_u64).unwrap_or(0);
    let interrupted = summary
        .get("interrupted")
        .and_then(JsonValue::as_u64)
        .unwrap_or(0);
    assert!(done >= 1, "the streamed first config had settled as done");
    assert_eq!(
        done + interrupted,
        total,
        "every config settled as done or interrupted: {summary:?}"
    );
}

#[test]
fn join_returns_on_an_idle_server_bound_to_loopback_or_any_address() {
    // The accept loop blocks in `accept`; only the wake connection that
    // shutdown sends lets `join` return. Bound to the unspecified address,
    // the wake goes to loopback (some platforms refuse a connect to it).
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let server = Server::start(ServerConfig {
            addr: bind.to_string(),
            workers: 1,
            ..ServerConfig::default()
        })
        .expect("server starts");
        let (joined_tx, joined_rx) = mpsc::channel();
        std::thread::spawn(move || {
            server.join();
            let _ = joined_tx.send(());
        });
        joined_rx
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("join on an idle server bound to {bind} hangs"));
    }
}

#[test]
fn store_hit_round_trips_do_not_wait_on_a_clock() {
    // Each round trip is three connections (POST, stream, fetch) answered
    // from the store. A poll sleep anywhere on that path costs its period
    // per connection; 20 trips with one 25 ms sleep per connection take
    // 1.5 s, while event-driven waits finish them in a few milliseconds.
    let (server, addr) = start_server(None, 64);
    let (first, _) = run_job(&addr, ONE_CONFIG);
    let hashes: Vec<&String> = first.keys().collect();

    let start = Instant::now();
    for _ in 0..20 {
        let (hits, _) = run_job(&addr, ONE_CONFIG);
        assert!(hits.values().all(|cached| *cached), "store hit: {hits:?}");
        fetch_reports(&addr, &hashes);
    }
    let elapsed = start.elapsed();
    server.join();
    assert!(
        elapsed < Duration::from_millis(750),
        "20 store-hit round trips took {elapsed:?}"
    );
}
