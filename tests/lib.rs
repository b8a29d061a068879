//! Cross-crate integration tests for graphmem live under `tests/`.
//!
//! See the sibling test files for end-to-end scenarios spanning the
//! physmem → vm → os → workloads → core stack. This library holds only
//! the digest helpers the golden-fixture tests share.

use std::fmt;

/// FNV-1a 64-bit (the same hash `config_hash` uses), usable as a
/// [`fmt::Write`] sink so a large `Debug` rendering can be hashed without
/// materializing the string.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Fold `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1_0000_01b3);
        }
    }

    /// The digest as fixed-width hex.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// FNV-1a digest of `bytes`, as fixed-width hex.
pub fn fnv1a(bytes: &[u8]) -> String {
    let mut h = Fnv1a::default();
    h.update(bytes);
    h.hex()
}

/// FNV-1a digest of `value`'s `Debug` rendering.
pub fn debug_digest(value: &impl fmt::Debug) -> String {
    let mut h = Fnv1a::default();
    fmt::write(&mut h, format_args!("{value:?}")).expect("hashing never fails");
    h.hex()
}

/// Assert that the fixture lines whose first token is `section` equal
/// `actual` (one cell per line, without the section token). On a
/// mismatch the message carries the `actual` lines to paste into the
/// fixture when a change is meant to alter the model.
///
/// # Panics
///
/// Panics when the section's lines differ from `actual`.
pub fn assert_fixture_section(fixture: &str, section: &str, actual: &str) {
    let expected: String = fixture
        .lines()
        .filter_map(|l| l.strip_prefix(section)?.strip_prefix(' '))
        .map(|l| format!("{l}\n"))
        .collect();
    let actual_lines: String = actual.lines().map(|l| format!("{section} {l}\n")).collect();
    assert_eq!(
        actual, expected,
        "fixture section `{section}` moved; actual lines:\n{actual_lines}"
    );
}
