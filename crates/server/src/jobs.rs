//! Job bookkeeping: one submitted request (a single run or a sweep grid)
//! with per-config progress that HTTP handlers can stream while workers
//! update it.

use std::sync::{Condvar, Mutex, MutexGuard};

use graphmem_telemetry::json::JsonObject;

/// Where one config of a job stands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigState {
    /// Queued, not yet picked up by a worker.
    Pending,
    /// A worker is executing (or consulting the result store for) it.
    Running,
    /// Finished; the report is in the result store under the config hash.
    Done {
        /// Whether the result was served from the store without running.
        cached: bool,
    },
    /// The supervisor reported a failure (panic, resource, timeout, …).
    Failed {
        /// The [`GraphmemError::code`](graphmem_core::GraphmemError::code)
        /// tag.
        code: String,
        /// Human-readable failure message.
        message: String,
    },
    /// The server shut down before this config ran.
    Interrupted,
}

impl ConfigState {
    /// Whether this state is terminal (will never change again).
    pub fn is_settled(&self) -> bool {
        !matches!(self, ConfigState::Pending | ConfigState::Running)
    }
}

/// One submitted job: the config hashes (in grid order) plus live state.
#[derive(Debug)]
pub struct Job {
    /// Monotonic job id, also the `GET /runs/<id>` key.
    pub id: u64,
    /// Config hashes in grid order (a config's position is its index).
    pub hashes: Vec<String>,
    states: Mutex<Vec<ConfigState>>,
    settled: Condvar,
}

impl Job {
    /// A new job with every config pending.
    pub fn new(id: u64, hashes: Vec<String>) -> Job {
        let states = vec![ConfigState::Pending; hashes.len()];
        Job {
            id,
            hashes,
            states: Mutex::new(states),
            settled: Condvar::new(),
        }
    }

    /// Number of configs in the job.
    pub fn total(&self) -> usize {
        self.hashes.len()
    }

    /// Update one config's state, waking any streaming watchers.
    pub fn set_state(&self, index: usize, state: ConfigState) {
        let mut states = lock_clean(&self.states);
        if let Some(slot) = states.get_mut(index) {
            *slot = state;
        }
        self.settled.notify_all();
    }

    /// Mark every still-pending config as interrupted (server shutdown).
    pub fn interrupt_pending(&self) {
        let mut states = lock_clean(&self.states);
        for slot in states.iter_mut() {
            if *slot == ConfigState::Pending {
                *slot = ConfigState::Interrupted;
            }
        }
        self.settled.notify_all();
    }

    /// Block until config `index` reaches a terminal state, then return
    /// it.
    pub fn wait_settled(&self, index: usize) -> ConfigState {
        let mut states = lock_clean(&self.states);
        loop {
            match states.get(index) {
                None => return ConfigState::Interrupted,
                Some(s) if s.is_settled() => return s.clone(),
                Some(_) => {
                    states = self
                        .settled
                        .wait(states)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
            }
        }
    }

    /// Whether every config has reached a terminal state.
    pub fn is_settled(&self) -> bool {
        lock_clean(&self.states).iter().all(ConfigState::is_settled)
    }

    /// A snapshot of every config's state.
    pub fn snapshot(&self) -> Vec<ConfigState> {
        lock_clean(&self.states).clone()
    }

    /// The streamed JSONL row for config `index` in `state`.
    pub fn progress_row(&self, index: usize, state: &ConfigState) -> String {
        let mut o = JsonObject::new();
        o.field_u64("index", index as u64);
        if let Some(hash) = self.hashes.get(index) {
            o.field_str("hash", hash);
        }
        match state {
            ConfigState::Pending => {
                o.field_str("status", "pending");
            }
            ConfigState::Running => {
                o.field_str("status", "running");
            }
            ConfigState::Done { cached } => {
                o.field_str("status", "done");
                o.field_bool("cached", *cached);
            }
            ConfigState::Failed { code, message } => {
                o.field_str("status", "failed");
                o.field_str("code", code);
                o.field_str("message", message);
            }
            ConfigState::Interrupted => {
                o.field_str("status", "interrupted");
            }
        }
        o.finish()
    }

    /// The trailing summary row of a `GET /runs/<id>` stream.
    pub fn summary_row(&self) -> String {
        let states = self.snapshot();
        let mut done = 0u64;
        let mut cached = 0u64;
        let mut failed = 0u64;
        let mut interrupted = 0u64;
        for s in &states {
            match s {
                ConfigState::Done { cached: c } => {
                    done += 1;
                    if *c {
                        cached += 1;
                    }
                }
                ConfigState::Failed { .. } => failed += 1,
                ConfigState::Interrupted => interrupted += 1,
                ConfigState::Pending | ConfigState::Running => {}
            }
        }
        let mut o = JsonObject::new();
        o.field_u64("job", self.id);
        o.field_u64("total", states.len() as u64);
        o.field_u64("done", done);
        o.field_u64("cached", cached);
        o.field_u64("failed", failed);
        o.field_u64("interrupted", interrupted);
        o.finish()
    }
}

fn lock_clean<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn settling_wakes_waiters_and_summarizes() {
        let job = Arc::new(Job::new(7, vec!["aaaa".into(), "bbbb".into()]));
        let watcher = {
            let job = Arc::clone(&job);
            std::thread::spawn(move || job.wait_settled(1))
        };
        job.set_state(0, ConfigState::Done { cached: true });
        job.set_state(
            1,
            ConfigState::Failed {
                code: "panic".into(),
                message: "boom".into(),
            },
        );
        assert!(matches!(
            watcher.join().expect("watcher"),
            ConfigState::Failed { .. }
        ));
        assert_eq!(
            job.summary_row(),
            "{\"job\":7,\"total\":2,\"done\":1,\"cached\":1,\"failed\":1,\"interrupted\":0}"
        );
        let row = job.progress_row(0, &ConfigState::Done { cached: true });
        assert_eq!(
            row,
            "{\"index\":0,\"hash\":\"aaaa\",\"status\":\"done\",\"cached\":true}"
        );
    }

    #[test]
    fn interrupt_only_touches_pending() {
        let job = Job::new(1, vec!["a".into(), "b".into(), "c".into()]);
        job.set_state(0, ConfigState::Done { cached: false });
        job.set_state(1, ConfigState::Running);
        job.interrupt_pending();
        let snap = job.snapshot();
        assert_eq!(snap[0], ConfigState::Done { cached: false });
        assert_eq!(snap[1], ConfigState::Running);
        assert_eq!(snap[2], ConfigState::Interrupted);
        assert!(!job.is_settled(), "a running config keeps the job open");
        job.set_state(1, ConfigState::Done { cached: false });
        assert!(job.is_settled());
    }
}
