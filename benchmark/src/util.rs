//! Small deterministic helpers: the seeded generator every input is drawn
//! from, the running hash of the request stream, and JSON string escaping.

/// SplitMix64.  The benchmark owns its generator so the request stream
/// depends on `--seed` alone, never on a library's choice of algorithm.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose (client 0, the writer, ...).
    pub fn fork(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        let span = (hi - lo) as u64 + 1;
        lo + (self.next_u64() % span) as i64
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// FNV-1a over the textual form of every generated request, so two runs
/// can show they were given the same input.
#[derive(Debug, Clone, Copy)]
pub struct InputHash(u64);

impl Default for InputHash {
    fn default() -> Self {
        InputHash(0xCBF2_9CE4_8422_2325)
    }
}

impl InputHash {
    pub fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn feed_debug(&mut self, item: &impl std::fmt::Debug) {
        self.feed(format!("{item:?}").as_bytes());
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Metric and workload names are what later issues quote, so they are
/// held to the benchmark contract's alphabet at start-up.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let draw = |seed, stream| {
            let mut r = Rng::fork(seed, stream);
            [r.next_u64(), r.next_u64(), r.next_u64()]
        };
        assert_eq!(draw(7, 0), draw(7, 0));
        assert_ne!(Rng::fork(7, 0).next_u64(), Rng::fork(7, 1).next_u64());
        assert_ne!(Rng::fork(7, 0).next_u64(), Rng::fork(8, 0).next_u64());
    }

    #[test]
    fn range_stays_inside_and_shuffle_permutes() {
        let mut r = Rng::fork(1, 0);
        for _ in 0..1000 {
            let v = r.range(-3, 5);
            assert!((-3..=5).contains(&v));
        }
        let mut items: Vec<u32> = (0..50).collect();
        r.shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(items, sorted);
    }

    #[test]
    fn names_follow_the_contract_alphabet() {
        assert!(valid_name("net.roundtrip_ms"));
        assert!(valid_name("9lives-x"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
