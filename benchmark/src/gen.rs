//! The frozen load: workload table, LCG, scrambled-zipfian key draw and
//! operation pre-generation.
//!
//! This is a deliberate copy of the generator idea in
//! `ptm_server::workload`, not a use of it: later PRs may edit the
//! server's driver, and a benchmark whose inputs move with the code it
//! measures compares nothing. The golden-checksum test at the bottom
//! pins the first 10 000 ops of every workload for seed 11.

use ptm_stm::Algorithm;

/// Client threads of the closed loop (this sandbox has 2 hardware
/// threads; `hardware_threads` and `oversubscribed` are recorded).
pub const CLIENTS: usize = 2;
/// Shards of every store.
pub const SHARDS: usize = 4;
/// Target keys per `THashMap` bucket. `get` clones the whole bucket, so
/// with the service default of 64 buckets a 65 536-key store would
/// measure a ~4 KB `Vec` clone per read and nothing else.
pub const KEYS_PER_BUCKET: u64 = 4;
/// Zipfian skew (the YCSB default).
pub const THETA: f64 = 0.99;
/// Pre-generated ops per client (8 MB); clients cycle the block. A
/// power of two so the cursor wraps with a mask.
pub const BLOCK: usize = 1 << 20;
/// Every account starts with this balance; transfers conserve the sum.
pub const ACCOUNT_START: u64 = 1_000;

/// Operation class. The discriminants index per-class arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Class {
    Get = 0,
    Put = 1,
    Scan = 2,
    Multi = 3,
}

pub const CLASS_NAMES: [&str; 4] = ["get", "put", "scan", "multi"];

/// One pre-generated operation, packed into 8 bytes so that the op
/// stream the clients read takes little of the cache the store is
/// measured in: class in the top 2 bits, the first key in the low 20,
/// three more keys of 14 bits between. A get/put uses the first key; a
/// multi uses `keys()[..span]` (debit the first, credit the last, read
/// the middle ones), all of them accounts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op(u64);

const KEY0_BITS: u32 = 20;
const KEYN_BITS: u32 = 14;

impl Op {
    fn new(class: Class, keys: [u64; 4]) -> Op {
        debug_assert!(keys[0] < 1 << KEY0_BITS && keys[1..].iter().all(|&k| k < 1 << KEYN_BITS));
        let rest = keys[1] | keys[2] << KEYN_BITS | keys[3] << (2 * KEYN_BITS);
        Op((class as u64) << 62 | rest << KEY0_BITS | keys[0])
    }

    pub fn class(self) -> Class {
        match self.0 >> 62 {
            0 => Class::Get,
            1 => Class::Put,
            2 => Class::Scan,
            _ => Class::Multi,
        }
    }

    /// The key of a get or put; the first key of a multi.
    pub fn key(self) -> u64 {
        self.0 & ((1 << KEY0_BITS) - 1)
    }

    pub fn keys(self) -> [u64; 4] {
        let rest = self.0 >> KEY0_BITS;
        let at = |i: u32| (rest >> (i * KEYN_BITS)) & ((1 << KEYN_BITS) - 1);
        [self.key(), at(0), at(1), at(2)]
    }
}

/// One workload of the benchmark. Names are final: later issues state
/// a claim as `metric` on `workload`.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub algorithm: Algorithm,
    pub durable: bool,
    pub keys: u64,
    /// Percent get / put / scan / multi; sums to 100.
    pub mix: [u32; 4],
    /// Keys per multi (2..=4); unused when `mix[3] == 0`.
    pub span: usize,
    pub why: &'static str,
}

/// The workloads `BENCHMARK.json` lists: a result set runs each over
/// ten seeds and `compare` holds their end-to-end metrics to the bounds.
pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "point_read",
        algorithm: Algorithm::Tl2,
        durable: false,
        // 16 384 keys are a 1.9 MB heap, of which the hot part fits a
        // core's 2 MB L2. Beyond L2 a run measures the host: on the
        // shared microVM this was written on a pointer chase over 8 MB
        // ran at 70-100 % of its best in spells of seconds while one in
        // registers held 98 %, and in ten interleaved runs a 65 536-key
        // store spread twice as wide (0.17-0.23) as this one.
        keys: 16_384,
        mix: [95, 5, 0, 0],
        span: 0,
        why: "Tl2 store that fits L2, 95% gets: router, THashMap::get and the engine's begin/read/validate/read-only commit do the work; commit locking, 2PC, version chains and the WAL are idle.",
    },
    Spec {
        name: "update_multi",
        algorithm: Algorithm::Tl2,
        durable: false,
        keys: 16_384,
        mix: [50, 30, 0, 20],
        span: 4,
        why: "Same store and algorithm used the other way: clock ticks, orec locking, write-back, contention management and ordered cross-shard prepare/publish dominate, on hot keys.",
    },
    Spec {
        name: "scan_mv",
        algorithm: Algorithm::Mv,
        durable: false,
        keys: 4_096,
        mix: [60, 25, 5, 10],
        span: 2,
        why: "Mv store that fits L2: consistent whole-store scans against a write storm walk version chains, pin snapshots and trim; the paper's space axis, which a Tl2-only change must not move.",
    },
];

/// The durability check: not in `BENCHMARK.json`, so no timing of it is
/// held to a bound. With sync acks every time it reports is a multiple
/// of the O_DSYNC latency of the disk under the checkout (the driver
/// allows no write outside it, so no tmpfs), and over ten 20-second
/// runs that gave interquartile spreads of 0.07-0.29 in a quiet hour
/// and 0.5-0.7 in another, against a largest permitted bound of 0.25. A
/// result set runs it once, traced: its correctness and crash-recovery
/// checks and its exact counts are what `compare` judges.
pub const DURABLE_PUT: Spec = Spec {
    name: "durable_put",
    algorithm: Algorithm::Tl2,
    durable: true,
    keys: 16_384,
    mix: [30, 55, 0, 15],
    span: 2,
    why: "DurableKv with sync acks: the only workload where WAL append, group commit, sync ack, checkpoint and crash recovery run; flush policy fixed, latency is the sandbox's, not a device's.",
};

/// Every spec a run can name.
pub fn specs() -> impl Iterator<Item = &'static Spec> {
    WORKLOADS.iter().chain([&DURABLE_PUT])
}

impl Spec {
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        specs().find(|w| w.name == name)
    }

    /// With multis in the mix the key space splits: the lower half are
    /// accounts (get/multi only), the upper half blobs (get/put).
    pub fn accounts(&self) -> u64 {
        if self.mix[Class::Multi as usize] > 0 {
            self.keys / 2
        } else {
            0
        }
    }

    pub fn buckets_per_shard(&self) -> usize {
        (self.keys / SHARDS as u64 / KEYS_PER_BUCKET) as usize
    }

    /// The value a key holds before any client op.
    pub fn preload_value(&self, key: u64) -> u64 {
        if key < self.accounts() {
            ACCOUNT_START
        } else {
            // Top byte 0xff: no client id reaches it, so a preload can
            // never be mistaken for a put.
            0xff00_0000_0000_0000 | key
        }
    }
}

/// The value client `client` writes at its op index `index`.
pub fn put_value(client: usize, index: u64) -> u64 {
    ((client as u64) << 56) | index
}

/// PCG-style LCG step; 53 high bits returned.
#[derive(Debug, Clone)]
pub struct Lcg(u64);

impl Lcg {
    pub fn new(seed: u64, stream: u64) -> Self {
        // splitmix64 of (seed, stream) so nearby seeds do not correlate.
        let mut z = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Lcg(z ^ (z >> 31))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 11
    }

    fn next_f64(&mut self) -> f64 {
        self.next() as f64 / (1u64 << 53) as f64
    }
}

/// YCSB scrambled zipfian over `0..n`: a zipfian rank (0 hottest)
/// scattered over the key space by a multiplicative scramble, so the
/// hot keys spread across shards.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    zeta_n: f64,
    zeta_two: f64,
    alpha: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64) -> Self {
        assert!(n >= 2, "zipf needs at least two keys");
        let zeta_n: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(THETA)).sum();
        let zeta_two = 1.0 + 0.5f64.powf(THETA);
        Zipf {
            n,
            zeta_n,
            zeta_two,
            alpha: 1.0 / (1.0 - THETA),
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - THETA)) / (1.0 - zeta_two / zeta_n),
        }
    }

    pub fn key(&self, rng: &mut Lcg) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zeta_n;
        let rank = if uz < 1.0 {
            0
        } else if uz < self.zeta_two {
            1
        } else {
            let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
            r.min(self.n - 1)
        };
        rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) % self.n
    }
}

/// Pre-generates `n` ops for `client`. Pure in `(spec, seed, client)`.
pub fn generate(spec: &Spec, seed: u64, client: usize, n: usize) -> Vec<Op> {
    assert_eq!(spec.mix.iter().sum::<u32>(), 100, "mix sums to 100");
    assert!(
        spec.keys <= 1 << KEY0_BITS && spec.accounts() <= 1 << KEYN_BITS,
        "keys fit a packed op"
    );
    let mut rng = Lcg::new(seed, client as u64);
    let accounts = spec.accounts();
    let whole = Zipf::new(spec.keys);
    // Accounts and blobs are equal halves, so one half-space table
    // serves both (blobs add the `accounts` offset).
    let half = (accounts > 0).then(|| Zipf::new(accounts));
    let [get, put, scan, _] = spec.mix;
    (0..n)
        .map(|_| {
            let roll = (rng.next() % 100) as u32;
            let mut keys = [0u64; 4];
            let class = if roll < get {
                keys[0] = whole.key(&mut rng);
                Class::Get
            } else if roll < get + put {
                keys[0] = match &half {
                    Some(z) => accounts + z.key(&mut rng),
                    None => whole.key(&mut rng),
                };
                Class::Put
            } else if roll < get + put + scan {
                Class::Scan
            } else {
                let z = half.as_ref().expect("a multi mix splits the key space");
                let mut filled = 0;
                while filled < spec.span {
                    let k = z.key(&mut rng);
                    // Distinct keys: a transfer to itself tests nothing.
                    if !keys[..filled].contains(&k) {
                        keys[filled] = k;
                        filled += 1;
                    }
                }
                Class::Multi
            };
            Op::new(class, keys)
        })
        .collect()
}

/// FNV-1a over the packed fields; the golden value of a stream.
#[cfg(test)]
pub fn checksum(ops: &[Op]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |b: u8| h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    for op in ops {
        op.0.to_le_bytes().into_iter().for_each(&mut eat);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The load is frozen: a change here changes every number the
    /// benchmark has ever reported. If that is intended, it is its own
    /// PR, and every baseline is measured again after it.
    #[test]
    fn first_10k_ops_of_seed_11_are_golden() {
        let golden = [
            ("point_read", 0x98b3_f66e_09e0_f2fbu64),
            ("update_multi", 0xf68c_1e2b_c59d_8f63),
            ("scan_mv", 0xfee9_0b19_6c2b_fb1f),
            ("durable_put", 0x9985_e66e_5fdb_27b4),
        ];
        let got = golden.map(|(name, _)| {
            let spec = Spec::by_name(name).unwrap();
            (name, checksum(&generate(spec, 11, 0, 10_000)))
        });
        assert_eq!(got, golden, "the generated load changed");
    }

    #[test]
    fn generation_is_pure_and_respects_the_key_split() {
        for spec in specs() {
            let a = generate(spec, 7, 1, 20_000);
            assert_eq!(a, generate(spec, 7, 1, 20_000));
            assert_ne!(a, generate(spec, 8, 1, 20_000));
            assert_ne!(a, generate(spec, 7, 0, 20_000));
            let accounts = spec.accounts();
            let mut seen = [0u32; 4];
            for op in &a {
                seen[op.class() as usize] += 1;
                match op.class() {
                    Class::Get => assert!(op.key() < spec.keys),
                    Class::Put => {
                        assert!((accounts..spec.keys).contains(&op.key()));
                    }
                    Class::Scan => {}
                    Class::Multi => {
                        let ks = &op.keys()[..spec.span];
                        assert!(ks.iter().all(|&k| k < accounts));
                        for (i, k) in ks.iter().enumerate() {
                            assert!(!ks[..i].contains(k), "multi keys are distinct");
                        }
                    }
                }
            }
            for (c, pct) in spec.mix.iter().enumerate() {
                let share = f64::from(seen[c]) / a.len() as f64 * 100.0;
                assert!((share - f64::from(*pct)).abs() < 1.5, "{} {c}", spec.name);
            }
        }
    }
}
