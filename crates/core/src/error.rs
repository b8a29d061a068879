//! The error hierarchy for experiment orchestration.
//!
//! Every fallible path in the harness — graph IO, configuration
//! validation, resource reservation, and the supervisor's own failure
//! modes (worker panics, watchdog timeouts, manifest corruption,
//! interruption) — funnels into [`GraphmemError`], so a sweep over N
//! configs can report N typed outcomes instead of aborting on the first
//! problem.

use std::fmt;
use std::io;
use std::time::Duration;

use graphmem_graph::GraphError;

/// Any failure the experiment harness can report.
#[derive(Debug)]
pub enum GraphmemError {
    /// An IO failure outside graph loading (manifest files, exports).
    Io {
        /// What was being attempted, with the path where known.
        context: String,
        /// The underlying failure.
        source: io::Error,
    },
    /// A graph file failed to load or save.
    Graph(GraphError),
    /// An experiment configuration is invalid (bad scale, impossible
    /// policy combination, malformed flag value).
    InvalidConfig(String),
    /// A simulated resource could not be reserved (e.g. the hugetlb pool
    /// could not grow to the requested size under the configured node).
    Resource(String),
    /// A worker panicked; the payload message was captured across the
    /// `catch_unwind` boundary.
    Panic(String),
    /// An experiment exceeded the supervisor's wall-clock watchdog.
    Timeout {
        /// The configured limit, exactly as the watchdog held it.
        limit: Duration,
    },
    /// A run-manifest line could not be parsed.
    Manifest {
        /// Path of the manifest file.
        path: String,
        /// 1-based line number of the offending record.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// The sweep was interrupted (SIGINT / cancel flag) before this
    /// experiment ran.
    Interrupted,
    /// The config's circuit breaker is open: it failed persistently
    /// (panics/timeouts) and is cooling down, so the submission was
    /// rejected without occupying a worker.
    CircuitOpen {
        /// The `config_hash` whose breaker rejected the run.
        config_hash: String,
    },
}

impl GraphmemError {
    /// Wrap an IO failure with a description of the failed operation.
    pub fn io(context: impl Into<String>, source: io::Error) -> GraphmemError {
        GraphmemError::Io {
            context: context.into(),
            source,
        }
    }

    /// Whether retrying the same experiment could plausibly succeed.
    ///
    /// Only IO failures qualify: panics and invalid configs are
    /// deterministic, timeouts would only burn another full limit, and
    /// interruption is a request to stop.
    pub fn is_transient(&self) -> bool {
        match self {
            GraphmemError::Io { .. } => true,
            GraphmemError::Graph(e) => e.is_transient(),
            _ => false,
        }
    }

    /// Stable snake_case tag used in failure records and JSON output.
    pub fn code(&self) -> &'static str {
        match self {
            GraphmemError::Io { .. } => "io",
            GraphmemError::Graph(_) => "graph_io",
            GraphmemError::InvalidConfig(_) => "invalid_config",
            GraphmemError::Resource(_) => "resource",
            GraphmemError::Panic(_) => "panic",
            GraphmemError::Timeout { .. } => "timeout",
            GraphmemError::Manifest { .. } => "manifest",
            GraphmemError::Interrupted => "interrupted",
            GraphmemError::CircuitOpen { .. } => "circuit_open",
        }
    }
}

impl fmt::Display for GraphmemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphmemError::Io { context, source } => write!(f, "{context}: {source}"),
            GraphmemError::Graph(e) => write!(f, "{e}"),
            GraphmemError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            GraphmemError::Resource(msg) => write!(f, "resource exhausted: {msg}"),
            GraphmemError::Panic(msg) => write!(f, "experiment panicked: {msg}"),
            GraphmemError::Timeout { limit } => {
                write!(f, "experiment exceeded the {limit:?} watchdog")
            }
            GraphmemError::Manifest {
                path,
                line,
                message,
            } => write!(f, "manifest '{path}' line {line}: {message}"),
            GraphmemError::Interrupted => write!(f, "sweep interrupted"),
            GraphmemError::CircuitOpen { config_hash } => {
                write!(f, "circuit breaker open for config {config_hash}")
            }
        }
    }
}

impl std::error::Error for GraphmemError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphmemError::Io { source, .. } => Some(source),
            GraphmemError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for GraphmemError {
    fn from(e: GraphError) -> GraphmemError {
        GraphmemError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transience_is_limited_to_io() {
        assert!(GraphmemError::io("write manifest", io::Error::other("disk")).is_transient());
        assert!(!GraphmemError::Panic("boom".into()).is_transient());
        let limit = Duration::from_millis(100);
        assert!(!GraphmemError::Timeout { limit }.is_transient());
        assert!(!GraphmemError::InvalidConfig("bad".into()).is_transient());
        assert!(!GraphmemError::Interrupted.is_transient());
        // Graph transience delegates to the IO kind underneath.
        let t = GraphError::new("read", io::Error::new(io::ErrorKind::TimedOut, "t"));
        assert!(GraphmemError::from(t).is_transient());
        let p = GraphError::new("read", io::Error::new(io::ErrorKind::NotFound, "n"));
        assert!(!GraphmemError::from(p).is_transient());
    }

    #[test]
    fn codes_and_messages_are_stable() {
        let e = GraphmemError::Manifest {
            path: "runs.jsonl".into(),
            line: 7,
            message: "bad hash".into(),
        };
        assert_eq!(e.code(), "manifest");
        assert_eq!(e.to_string(), "manifest 'runs.jsonl' line 7: bad hash");
        let timeout = GraphmemError::Timeout {
            limit: Duration::from_millis(250),
        };
        assert_eq!(timeout.code(), "timeout");
        assert_eq!(
            timeout.to_string(),
            "experiment exceeded the 250ms watchdog"
        );
        let open = GraphmemError::CircuitOpen {
            config_hash: "deadbeef".into(),
        };
        assert_eq!(open.code(), "circuit_open");
        assert_eq!(open.to_string(), "circuit breaker open for config deadbeef");
        assert!(
            !open.is_transient(),
            "retrying inside the cooldown would just be rejected again"
        );
    }
}
