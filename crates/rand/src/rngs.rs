//! Concrete generators.

use crate::{RngCore, SeedableRng};

/// Deterministic SplitMix64 generator standing in for `rand::rngs::StdRng`.
///
/// SplitMix64 passes BigCrush on its 64-bit output stream and needs only one
/// word of state; graphmem uses it for reproducible graph synthesis, not
/// cryptography.
///
/// The generator is counter-based: the state advances by the constant
/// γ = `0x9E37_79B9_7F4A_7C15` per draw, so draw `k` (from 1) is
/// `mix(seed + k·γ)` and any position in the stream can be reached
/// without drawing the ones before it.
#[derive(Debug, Clone)]
pub struct StdRng {
    state: u64,
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        StdRng { state: seed }
    }
}

impl RngCore for StdRng {
    fn next_u64(&mut self) -> u64 {
        // Sebastiano Vigna's SplitMix64.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}
