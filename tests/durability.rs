//! Durability and self-healing guarantees, attacked from the outside:
//! randomized corruption of durable files (result shards and run
//! manifests) must end in full recovery or a typed error — never a panic
//! and never silently wrong bytes — and a SIGKILLed server process must
//! recover its result store on restart, serving pre-crash results
//! byte-identically through the real binary.

use std::collections::HashMap;
use std::fs;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use graphmem_core::durable::frame_record;
use graphmem_core::{read_manifest, run_supervised, Experiment, GraphmemError, SupervisorConfig};
use graphmem_graph::Dataset;
use graphmem_server::http;
use graphmem_server::store::ResultStore;
use graphmem_telemetry::json::JsonValue;
use graphmem_workloads::Kernel;
use proptest::prelude::*;

/// A scratch path unique to this test run (parallel test binaries and
/// proptest cases must not collide).
fn tmp_path(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let p = std::env::temp_dir().join(format!(
        "graphmem_durability_{tag}_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&p);
    let _ = fs::remove_file(&p);
    p
}

/// Apply one deterministic damage operation to a byte buffer: truncate
/// at a random offset (a torn write / partial flush), flip one bit
/// (media corruption), or splice garbage in (cross-linked blocks).
fn damage(bytes: &mut Vec<u8>, op: u64, at: u64, bit: u64) {
    if bytes.is_empty() {
        return;
    }
    let pos = (at as usize) % bytes.len();
    match op % 3 {
        0 => bytes.truncate(pos),
        1 => bytes[pos] ^= 1 << (bit % 8),
        _ => {
            for (k, b) in b"\x00garbage\xffnoise".iter().enumerate() {
                bytes.insert(pos + k, *b);
            }
        }
    }
}

/// Damage the line structure of a CRC-framed JSONL file at an interior
/// line (any but the last): flip a byte inside it, splice it onto the
/// next line, or change its CRC frame (a different hex digit, the
/// separator dropped, the suffix shortened). Files of fewer than two
/// lines are left alone.
fn mangle_line(bytes: &mut Vec<u8>, op: u64, at: u64, x: u64) {
    let mut lines: Vec<Vec<u8>> = bytes
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .map(<[u8]>::to_vec)
        .collect();
    if lines.len() < 2 {
        return;
    }
    let i = (at % (lines.len() as u64 - 1)) as usize;
    let line = &mut lines[i];
    let len = line.len();
    match op % 5 {
        0 => line[(x % len as u64) as usize] ^= 1 + (x >> 8) as u8 % 255,
        1 => {
            let next = lines.remove(i + 1);
            lines[i].extend(next);
        }
        2 if len > 9 => {
            let pos = len - 1 - (x % 8) as usize;
            let digit = (line[pos] as char).to_digit(16).unwrap_or(0);
            let other = (digit + 1 + (x >> 3) as u32 % 15) % 16;
            line[pos] = char::from_digit(other, 16).unwrap_or('0') as u8;
        }
        3 if len > 9 => drop(line.remove(len - 9)),
        _ => line.truncate(len.saturating_sub(1 + (x % 7) as usize)),
    }
    *bytes = lines.join(&b'\n');
    bytes.push(b'\n');
}

// ---------------------------------------------------------------------
// Result-store shards under random corruption
// ---------------------------------------------------------------------

/// Write a freshly-framed shard of `n` records, returning hash -> report.
fn seed_shard(dir: &PathBuf, n: usize) -> HashMap<String, String> {
    fs::create_dir_all(dir).expect("create shard dir");
    let mut lines = String::new();
    let mut originals = HashMap::new();
    for i in 0..n {
        // A shared first character keeps every record in one shard file.
        let hash = format!("aa{i:02x}deadbeef");
        let report = format!(
            "{{\"compute_cycles\":{},\"os\":{{\"faults\":{i}}}}}",
            1000 + i
        );
        lines.push_str(&frame_record(&format!(
            "{{\"hash\":\"{hash}\",\"report\":{report}}}"
        )));
        lines.push('\n');
        originals.insert(hash, report);
    }
    fs::write(dir.join("results-a.jsonl"), lines).expect("write shard");
    originals
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any combination of truncation, bit flips, and garbage splices
    /// against a shard must leave the store openable; every record it
    /// still serves must be byte-identical to the original; and the
    /// recovery must be idempotent (a second open finds nothing to fix).
    #[test]
    fn corrupted_shards_recover_or_reject_but_never_lie(
        n in 1usize..6,
        ops in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 1..5),
    ) {
        let dir = tmp_path("shard");
        let originals = seed_shard(&dir, n);
        let shard = dir.join("results-a.jsonl");
        let mut bytes = fs::read(&shard).expect("read shard back");
        for (op, at, bit) in &ops {
            damage(&mut bytes, *op, *at, *bit);
        }
        fs::write(&shard, &bytes).expect("write damaged shard");

        let store = ResultStore::open(Some(dir.clone()), 4).expect("recovery never fails");
        for (hash, report) in &originals {
            if let Some(served) = store.get(hash) {
                prop_assert_eq!(
                    served.as_ref(), report.as_str(),
                    "a served record must be byte-identical to the original"
                );
            }
        }
        let recovered = store.counters();
        drop(store);

        // Idempotence: the recovered shard is already clean.
        let again = ResultStore::open(Some(dir.clone()), 4).expect("second open");
        prop_assert_eq!(again.counters().torn_tails_recovered, 0);
        prop_assert_eq!(again.counters().quarantined, 0);
        // Quarantined records live in the sidecar, not the void.
        if recovered.quarantined > 0 {
            let sidecar = graphmem_server::store::quarantine_path(&shard);
            prop_assert!(sidecar.is_file(), "quarantine sidecar exists");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Interior-line damage — byte flips, spliced lines and changed CRC
    /// frames, not only torn tails — leaves the store openable,
    /// quarantines what it cannot verify, and never serves an altered
    /// record.
    #[test]
    fn mangled_shard_lines_are_quarantined_never_served(
        n in 2usize..6,
        ops in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 1..4),
    ) {
        let dir = tmp_path("shard_lines");
        let originals = seed_shard(&dir, n);
        let shard = dir.join("results-a.jsonl");
        let mut bytes = fs::read(&shard).expect("read shard back");
        for (op, at, x) in &ops {
            mangle_line(&mut bytes, *op, *at, *x);
        }
        fs::write(&shard, &bytes).expect("write damaged shard");

        let store = ResultStore::open(Some(dir.clone()), 4).expect("recovery never fails");
        let mut served = 0;
        for (hash, report) in &originals {
            if let Some(got) = store.get(hash) {
                prop_assert_eq!(got.as_ref(), report.as_str(), "altered record served");
                served += 1;
            }
        }
        // Every line the mangling touched is interior, so whatever is
        // not served was quarantined, not silently dropped.
        let counters = store.counters();
        prop_assert!(
            served == originals.len() || counters.quarantined > 0,
            "{} of {} served, nothing quarantined", served, originals.len()
        );
        drop(store);
        let again = ResultStore::open(Some(dir.clone()), 4).expect("second open");
        prop_assert_eq!(again.counters().quarantined, 0);
        let _ = fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------
// Run manifests under random corruption
// ---------------------------------------------------------------------

/// One real manifest written by the supervisor, generated once: the raw
/// bytes plus the expected hash -> report-JSON mapping.
fn manifest_fixture() -> &'static (Vec<u8>, HashMap<String, String>) {
    static FIXTURE: OnceLock<(Vec<u8>, HashMap<String, String>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let path = tmp_path("manifest_fixture.jsonl");
        let grid: Vec<Experiment> = (0..2)
            .map(|i| {
                Experiment::builder(Dataset::Wiki, Kernel::Bfs)
                    .scale(11)
                    .seed_offset(i as u64)
                    .build()
                    .expect("valid config")
            })
            .collect();
        let config = SupervisorConfig {
            threads: 1,
            manifest: Some(path.clone()),
            ..SupervisorConfig::default()
        };
        let outcome = run_supervised(&grid, &config).expect("fixture sweep");
        assert!(outcome.is_complete(), "fixture sweep completes");
        let map = read_manifest(&path).expect("clean manifest reads");
        assert_eq!(map.len(), 2, "fixture covers both configs");
        let bytes = fs::read(&path).expect("manifest bytes");
        let _ = fs::remove_file(&path);
        (
            bytes,
            map.into_iter().map(|(h, r)| (h, r.to_json())).collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A damaged manifest either reads back (with every surviving report
    /// byte-identical to what the supervisor wrote) or fails with a typed
    /// error — it never panics and never yields an altered report.
    #[test]
    fn corrupted_manifests_read_fully_or_fail_typed(
        ops in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 1..5),
    ) {
        let (pristine, originals) = manifest_fixture();
        let mut bytes = pristine.clone();
        for (op, at, bit) in &ops {
            damage(&mut bytes, *op, *at, *bit);
        }
        let path = tmp_path("manifest.jsonl");
        fs::write(&path, &bytes).expect("write damaged manifest");
        match read_manifest(&path) {
            Ok(map) => {
                for (hash, report) in map {
                    let original = originals.get(&hash);
                    prop_assert!(
                        original == Some(&report.to_json()),
                        "recovered report for {} must match the original", hash
                    );
                }
            }
            Err(e) => {
                // Typed rejection is acceptable; a panic or a silently
                // altered report is not.
                prop_assert!(!e.code().is_empty(), "error is typed: {}", e);
            }
        }
        let _ = fs::remove_file(&path);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Interior-line damage to a manifest (the fixture's records twice
    /// over, so three lines are interior) reads back byte-identical
    /// reports or fails with a typed manifest or IO error — never a
    /// panic, never an altered report.
    #[test]
    fn mangled_manifest_lines_read_exact_or_fail_typed(
        ops in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 1..4),
    ) {
        let (pristine, originals) = manifest_fixture();
        let mut bytes = pristine.repeat(2);
        for (op, at, x) in &ops {
            mangle_line(&mut bytes, *op, *at, *x);
        }
        let path = tmp_path("manifest_lines.jsonl");
        fs::write(&path, &bytes).expect("write damaged manifest");
        let read = std::panic::catch_unwind(|| read_manifest(&path));
        let _ = fs::remove_file(&path);
        prop_assert!(read.is_ok(), "read_manifest panicked");
        match read.unwrap_or_else(|_| unreachable!()) {
            Ok(map) => {
                for (hash, report) in map {
                    prop_assert!(
                        originals.get(&hash) == Some(&report.to_json()),
                        "altered report read back for {}", hash
                    );
                }
            }
            Err(e) => prop_assert!(
                matches!(e, GraphmemError::Manifest { .. } | GraphmemError::Io { .. }),
                "untyped failure: {}", e
            ),
        }
    }
}

// ---------------------------------------------------------------------
// SIGKILL crash-recovery through the real binary
// ---------------------------------------------------------------------

/// Locate the `graphmem` binary next to the test executable; `None` when
/// only the test artifacts were built.
fn graphmem_binary() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let mut dir = exe.parent()?;
    if dir.ends_with("deps") {
        dir = dir.parent()?;
    }
    let bin = dir.join("graphmem");
    bin.is_file().then_some(bin)
}

/// A child process killed (SIGKILL) when the guard drops, so a failing
/// assertion never leaks a listener.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawn `graphmem serve` on an ephemeral port over `cache_dir` and wait
/// for its startup banner to learn the bound address. The stdout reader
/// is returned alive: dropping the pipe would SIGPIPE the server.
fn spawn_serve(
    bin: &PathBuf,
    cache_dir: &PathBuf,
) -> (KillOnDrop, String, BufReader<std::process::ChildStdout>) {
    let mut child = Command::new(bin)
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--cache-dir",
        ])
        .arg(cache_dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn graphmem serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut banner = String::new();
    reader.read_line(&mut banner).expect("startup banner");
    let addr = banner
        .rsplit(" listening on ")
        .next()
        .expect("banner names the address")
        .trim()
        .to_string();
    assert!(
        addr.starts_with("127.0.0.1:"),
        "bound an ephemeral loopback port: {banner}"
    );
    (KillOnDrop(child), addr, reader)
}

const SWEEP_BODY: &str =
    "{\"spec\":{\"dataset\":\"wiki\",\"kernel\":\"bfs\",\"scale\":11},\"sweep\":\"frag\"}";

#[test]
fn sigkilled_server_recovers_its_store_on_restart() {
    let Some(bin) = graphmem_binary() else {
        eprintln!("skipping: graphmem binary not built next to the test executable");
        return;
    };
    let dir = tmp_path("crash");

    // First server: submit a sweep, wait for the first config to land,
    // then SIGKILL while the rest of the grid is mid-flight — the worst
    // case is a record half-appended to a shard at that instant.
    let (server, addr, _stdout) = spawn_serve(&bin, &dir);
    let (status, accepted) = http::request(&addr, "POST", "/runs", SWEEP_BODY).expect("submit");
    assert_eq!(status, 202, "{accepted}");
    let job = JsonValue::parse(&accepted)
        .expect("acceptance")
        .get("job")
        .and_then(JsonValue::as_u64)
        .expect("job id");

    let (first_done_tx, first_done_rx) = std::sync::mpsc::channel();
    let stream_addr = addr.clone();
    let watcher = std::thread::spawn(move || {
        // The stream dies with the server; any outcome is fine.
        let _ = http::stream_lines(&stream_addr, &format!("/runs/{job}"), |line| {
            if let Ok(row) = JsonValue::parse(line) {
                if row.get("status").and_then(JsonValue::as_str) == Some("done") {
                    if let Some(hash) = row.get("hash").and_then(JsonValue::as_str) {
                        let _ = first_done_tx.send(hash.to_string());
                    }
                }
            }
        });
    });
    let first_hash = first_done_rx
        .recv_timeout(Duration::from_secs(120))
        .expect("a config completes before the crash");
    let pre_crash = http::request(&addr, "GET", &format!("/results/{first_hash}"), "")
        .expect("fetch pre-crash result");
    assert_eq!(pre_crash.0, 200, "completed result is served");
    drop(server); // SIGKILL — no drain, no flush
    let _ = watcher.join();

    // Second server over the same cache dir: recovery must yield the
    // pre-crash result byte-identically and the re-submitted job must
    // finish clean, with that config served from the durable tier.
    let (_server2, addr2, _stdout2) = spawn_serve(&bin, &dir);
    let (status, accepted) = http::request(&addr2, "POST", "/runs", SWEEP_BODY).expect("resubmit");
    assert_eq!(status, 202, "{accepted}");
    let job = JsonValue::parse(&accepted)
        .expect("acceptance")
        .get("job")
        .and_then(JsonValue::as_u64)
        .expect("job id");
    let mut cached = HashMap::new();
    let stream_status = http::stream_lines(&addr2, &format!("/runs/{job}"), |line| {
        let row = JsonValue::parse(line).expect("progress row");
        if row.get("index").is_some() {
            assert_eq!(
                row.get("status").and_then(JsonValue::as_str),
                Some("done"),
                "every config completes after recovery: {line}"
            );
            cached.insert(
                row.get("hash")
                    .and_then(JsonValue::as_str)
                    .expect("row hash")
                    .to_string(),
                row.get("cached").and_then(JsonValue::as_bool) == Some(true),
            );
        }
    })
    .expect("recovered stream");
    assert_eq!(stream_status, 200);
    assert_eq!(
        cached.get(first_hash.as_str()),
        Some(&true),
        "the pre-crash config must be a durable-tier hit: {cached:?}"
    );
    let post_crash = http::request(&addr2, "GET", &format!("/results/{first_hash}"), "")
        .expect("fetch post-crash result");
    assert_eq!(
        (post_crash.0, post_crash.1),
        (200, pre_crash.1),
        "recovered bytes must be identical to the pre-crash response"
    );
    let _ = fs::remove_dir_all(&dir);
}
