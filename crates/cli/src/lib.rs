//! # graphmem-cli — command-line driver for graphmem experiments
//!
//! Parsing and execution logic for the `graphmem` binary, separated from
//! `main.rs` so it can be unit-tested. No external argument-parsing
//! dependencies: the grammar is small and stable. Each subcommand parses
//! straight into the library config it runs on and refuses, as a usage
//! error naming it, any flag that [`USAGE`] does not list for it.
//!
//! ```text
//! graphmem run   [OPTIONS]             # one measured experiment
//! graphmem sweep <pressure|frag|selectivity> [OPTIONS]
//! graphmem serve [OPTIONS]             # concurrent experiment service
//! graphmem submit [OPTIONS]            # send a spec to a running service
//! graphmem claims [--scale S] [--only ID,...]  # the paper's figures as checked claims
//! graphmem datasets                    # list dataset presets
//! graphmem help
//! ```

#![warn(missing_docs)]

mod parse;
mod run;

pub use parse::{parse, Command, ParseError, RunArgs, SubmitArgs};
pub use run::{execute, EXIT_FAILURE, EXIT_INTERRUPTED, EXIT_OK, EXIT_PARTIAL, EXIT_USAGE};

/// The usage text shown by `graphmem help` and on parse errors.
pub const USAGE: &str = "\
graphmem — application-aware page size management for graph analytics
(reproduction of Manocha et al., IISWC 2022)

USAGE:
    graphmem run   [OPTIONS]                 run one measured experiment
    graphmem sweep <pressure|frag|selectivity> [OPTIONS]
    graphmem serve [OPTIONS]                 start the experiment service
    graphmem submit [OPTIONS]                submit a spec to a running service
    graphmem claims [OPTIONS]                regenerate the paper's figures and
                                             check its claims
    graphmem datasets                        list dataset presets
    graphmem help                            show this text

OPTIONS (run, sweep, and submit):
    --dataset <kron|twit|web|wiki>           input graph      [kron]
    --kernel  <bfs|pr|sssp|cc>               application      [bfs]
    --scale   <N>                            log2 vertices    [dataset default]
    --policy  <4k|thp|property|hugetlb|selective:F|auto:C>    [4k]
                                             F = property fraction 0..1
                                             C = access coverage 0..1
    --governor <k=v,...>                     closed-loop page-size governor [off];
                                             keys epoch=<cycles>, promote=<cost>,
                                             demote=<cost>, max=<actions/epoch>
                                             (missing keys take defaults)
    --khugepaged <on|off>                    override background promotion daemon
    --khugepaged-interval <N>                khugepaged scan interval, cycles
    --defrag-blocks <N>                      fault-time compaction budget, pageblocks
    --preprocess <none|dbg|sort|random>      vertex reorder   [none]
    --order   <natural|property-first>       first-touch order [natural]
    --surplus <unbounded|FRAC|bytes:N>       free mem = WSS*(1+FRAC) [unbounded]
    --frag    <F>                            non-movable fragmentation 0..1 [0]
    --file    <tmpfs|cache|direct>           graph loading    [tmpfs]
    --seed-offset <N>                        generator seed perturbation [0]
    --no-verify                              skip native-twin verification
    --sample-interval <N>                    snapshot metrics every N cycles

SWEEP (sweep only):
    --threads <N>                            worker threads [all cores]
    --manifest <PATH>                        checkpoint completed reports to PATH (JSONL)
    --resume <PATH>                          skip configs already completed in PATH
    --retries <N>                            retry transient failures N times [0]
    --timeout <SECS>                         per-experiment wall-clock watchdog
    --chaos <K@I,...>                        inject faults (testing/CI only):
                                             compute kinds panic|io|delay:<ms> fire at
                                             grid index I; IO kinds eio|enospc|io-torn
                                             fire at durable-write index I
    --fsync <always|never|every:N>           manifest fsync cadence [always]

SERVE (serve only):
    --addr <HOST:PORT>                       bind address [127.0.0.1:7171]
    --workers <N>                            experiment worker threads [2]
    --queue <N>                              max queued configs before 429 [64]
    --cache-dir <DIR>                        durable result store (JSONL shards)
    --retries <N>                            supervisor retries per config [1]
    --timeout <SECS>                         per-config watchdog
    --fsync <always|never|every:N>           result-store fsync cadence [always]
    --chaos <K@I,...>                        inject faults (same grammar as sweep);
                                             compute kinds fire at the Ith executed
                                             config, IO kinds at the Ith store append
    --breaker <K>                            open a config's circuit after K straight
                                             panic/timeout failures (0 disables) [5]
    --breaker-cooldown <SECS>                open -> half-open probe delay [10]

SUBMIT (submit only):
    --addr <HOST:PORT>                       service address [127.0.0.1:7171]
    --sweep <pressure|frag|selectivity>      expand into a sweep grid server-side
    --json                                   echo raw progress JSONL

CLAIMS (claims only):
    --scale <tiny|small|paper>               graph sizes: tiny = scale 15 on 64 KiB
                                             huge pages, small = paper - 2 [paper]
    --only <ID,...>                          run only these claims (e.g. fig01,table2)
                                             [all]
    Writes each figure's CSV to <target>/experiments/ (target = CARGO_TARGET_DIR
    or the workspace's target/) and exits 1 if a claim judged at the scale fails.

TELEMETRY (run only):
    --telemetry <PATH>                       stream kernel events to PATH (JSONL)
    --series <PATH>                          write the sampled series to PATH (CSV);
                                             needs --sample-interval; with
                                             --attribution also writes
                                             PATH.memstate.csv (fragmentation/coverage)
    --attribution                            per-array TLB/walk attribution profile
                                             (table in prose mode, \"attribution\" key
                                             in --json reports)
    --json                                   print the report as one JSON object

EXIT CODES:
    0   success                3   sweep/job finished with some failed configs
    1   command failed         130 interrupted (completed work is flushed)
    2   usage error

EXAMPLES:
    graphmem run --dataset kron --kernel bfs --policy thp --surplus 0.12
    graphmem run --policy selective:0.2 --preprocess dbg --frag 0.5 --surplus 0.35
    graphmem run --policy thp --telemetry t.jsonl --sample-interval 100000 --json
    graphmem run --policy 4k --attribution --sample-interval 100000 --series s.csv
    graphmem run --policy thp --governor epoch=5000000,promote=1.5 --frag 0.6 --json
    graphmem sweep selectivity --dataset twit --preprocess dbg --frag 0.5
    graphmem sweep pressure --policy thp --manifest runs.jsonl --retries 2 --timeout 600
    graphmem serve --workers 4 --cache-dir results/
    graphmem submit --sweep pressure --dataset wiki --scale 12 --policy thp
    graphmem claims --scale tiny --only fig01,fig03
";
