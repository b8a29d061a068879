//! Prometheus content negotiation on `/metrics`: a `text/plain` scrape
//! and the default JSON body must agree value for value.
//!
//! Several of these counters (`graph_cache_*`, `translation_memo_*`) are
//! process-wide statics, so any other test in the same binary that runs a
//! simulation moves them between the two scrapes. This test therefore
//! has a test binary of its own, where the server under test is the only
//! thing running and the exact equality holds.

use graphmem_server::http;
use graphmem_server::{Server, ServerConfig};
use graphmem_telemetry::json::JsonValue;

#[test]
fn metrics_negotiate_prometheus_text_and_agree_with_json() {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("server starts on an ephemeral port");
    let addr = server.addr().to_string();

    // Default (no Accept): JSON body, unchanged shape.
    let (status, json_body) = http::request(&addr, "GET", "/metrics", "").expect("json metrics");
    assert_eq!(status, 200);
    let json = JsonValue::parse(&json_body).expect("metrics JSON");

    // Prometheus scrape: text/plain negotiation flips the representation.
    let (status, text) =
        http::request_accept(&addr, "GET", "/metrics", "text/plain", "").expect("text metrics");
    assert_eq!(status, 200);
    assert!(
        text.starts_with("# HELP graphmem_queue_depth"),
        "exposition starts with HELP: {text}"
    );
    for key in [
        "queue_depth",
        "queue_capacity",
        "workers",
        "workers_busy",
        "jobs_submitted",
        "configs_completed",
        "configs_failed",
        "submissions_rejected",
        "result_hits",
        "result_misses",
        "graph_cache_hits",
        "graph_cache_misses",
        "graph_cache_len",
        "translation_memo_hits",
        "translation_memo_misses",
        "store_records_written",
        "store_fsyncs",
        "store_torn_tails_recovered",
        "store_quarantined",
        "store_corrupt_lines",
        "store_degraded",
        "breaker_open",
        "breaker_trips",
        "breaker_rejections",
    ] {
        assert!(
            text.contains(&format!("# TYPE graphmem_{key} ")),
            "TYPE line for {key} missing:\n{text}"
        );
        let sample = text
            .lines()
            .find(|l| l.starts_with(&format!("graphmem_{key} ")))
            .unwrap_or_else(|| panic!("sample line for {key} missing:\n{text}"));
        // On an idle server every counter is stable across the two
        // scrapes, so the representations must agree value-for-value.
        let value: u64 = sample
            .rsplit(' ')
            .next()
            .and_then(|v| v.parse().ok())
            .expect("numeric sample");
        assert_eq!(
            json.get(key).and_then(JsonValue::as_u64),
            Some(value),
            "JSON and Prometheus disagree on {key}"
        );
    }
    server.join();
}
