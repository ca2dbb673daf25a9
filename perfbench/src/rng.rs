//! Seeded input generation. Every generator of the benchmark — key streams,
//! child write pairs, the arrival schedule, transfer requests and tuner
//! seeds — draws from a stream derived here from the one `--seed`.

/// splitmix64: small, fast, and deterministic across platforms.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// The seed of stream `stream` under the workload seed `seed`: distinct
/// streams of one seed, and one stream of distinct seeds, never coincide in
/// practice.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut r = SplitMix::new(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93));
    r.next_u64()
}
