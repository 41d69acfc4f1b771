//! Seeded inputs: transaction databases and the read-request key spaces.
//!
//! Everything here is a pure function of the seed, so two runs with the
//! same `--seed` send the server byte-identical traffic.

use std::collections::HashSet;

use plt_core::Item;
use plt_data::gen::quest::{QuestConfig, QuestGenerator};
use plt_serve::Request;

/// splitmix64: small, fast and good enough for traffic generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x51_7cc1_b727_220a)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}

/// Seed of the Quest generator behind every workload's transaction pool.
const POOL_SEED: u64 = 0x9e37_79b9;

/// Quest `T10.I4` transactions from one seeded generator.
pub fn quest(n: usize, seed: u64) -> Vec<Vec<Item>> {
    QuestGenerator::new(QuestConfig {
        seed,
        ..QuestConfig::t10i4(n)
    })
    .generate()
    .into_transactions()
}

/// `n` distinct transactions that `seed` draws, in a seeded order, from
/// a fixed pool of `2n` Quest `T10.I4` transactions. Every seed gives a
/// different database with the same pattern pool, so run-to-run spread
/// measures the program rather than how hard one pattern pool happens
/// to be.
pub fn quest_sample(n: usize, seed: u64) -> Vec<Vec<Item>> {
    let mut pool = quest(2 * n, POOL_SEED);
    let mut rng = Rng::new(seed);
    for i in 0..n {
        let j = i + rng.below(pool.len() - i);
        pool.swap(i, j);
    }
    pool.truncate(n);
    pool
}

/// `rows` in an order `seed` shuffles (Fisher-Yates).
pub fn shuffled<T>(mut rows: Vec<T>, seed: u64) -> Vec<T> {
    let mut rng = Rng::new(seed);
    for i in (1..rows.len()).rev() {
        rows.swap(i, rng.below(i + 1));
    }
    rows
}

/// Zipf-distributed ranks over `0..n`: rank `r` is drawn with weight
/// `1 / (r + 1)^exponent`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Zipf {
        assert!(n > 0, "zipf needs a non-empty key space");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(exponent);
                acc
            })
            .collect();
        cdf.iter_mut().for_each(|c| *c /= acc);
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let x = rng.unit();
        self.cdf.partition_point(|&c| c < x).min(self.cdf.len() - 1)
    }
}

/// Read operations of the mixed traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    Support,
    Extensions,
    TopK,
    Recommend,
    Query,
}

impl Op {
    pub const ALL: [Op; 5] = [
        Op::Support,
        Op::Extensions,
        Op::TopK,
        Op::Recommend,
        Op::Query,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Op::Support => "support",
            Op::Extensions => "extensions",
            Op::TopK => "top_k",
            Op::Recommend => "recommend",
            Op::Query => "query",
        }
    }
}

/// One distinct request of a key space, pre-encoded for the wire.
#[derive(Debug, Clone)]
pub struct Key {
    pub op: Op,
    pub request: Request,
    pub payload: String,
    /// The itemset whose support the reply states, for `support` and
    /// `SUPPORT OF … APPROX` keys.
    pub support_items: Option<Vec<Item>>,
}

impl Key {
    fn new(op: Op, request: Request, support_items: Option<Vec<Item>>) -> Key {
        let payload = request.to_json().to_string();
        Key {
            op,
            request,
            payload,
            support_items,
        }
    }
}

/// Shares of each operation in the mix (they sum to 1).
#[derive(Debug, Clone)]
pub struct Mix {
    pub shares: Vec<(Op, f64)>,
    pub zipf_exponent: f64,
    /// Share of `support` keys that include an item drawn from the whole
    /// universe instead of a real transaction (mostly infrequent, so the
    /// oracle fallback answers them).
    pub infrequent_share: f64,
}

/// The distinct keys of every operation and the zipf popularity over
/// each, plus a seeded stream of draws.
#[derive(Debug, Clone)]
pub struct Traffic {
    keys: Vec<(Op, Vec<Key>, Zipf)>,
    cum_shares: Vec<f64>,
}

impl Traffic {
    /// Builds key spaces from the window's transactions and the mined
    /// frequent items (for `MINE COND`).
    pub fn new(
        window: &[Vec<Item>],
        frequent_items: &[Item],
        num_items: u32,
        mix: &Mix,
        seed: u64,
    ) -> Traffic {
        let mut rng = Rng::new(seed ^ 0x7ea_ff1c);
        let mut keys = Vec::new();
        let mut cum_shares = Vec::new();
        let mut acc = 0.0;
        for &(op, share) in &mix.shares {
            let space = match op {
                Op::Support => support_keys(window, num_items, mix.infrequent_share, &mut rng),
                Op::Extensions => extension_keys(window, &mut rng),
                Op::TopK => top_k_keys(),
                Op::Recommend => recommend_keys(window, &mut rng),
                Op::Query => query_keys(window, frequent_items, &mut rng),
            };
            let zipf = Zipf::new(space.len(), mix.zipf_exponent);
            keys.push((op, space, zipf));
            acc += share;
            cum_shares.push(acc);
        }
        Traffic { keys, cum_shares }
    }

    /// Total distinct keys across operations.
    pub fn distinct_keys(&self) -> usize {
        self.keys.iter().map(|(_, k, _)| k.len()).sum()
    }

    /// Draws the next request.
    pub fn draw(&self, rng: &mut Rng) -> &Key {
        let x = rng.unit() * self.cum_shares.last().copied().unwrap_or(1.0);
        let which = self
            .cum_shares
            .partition_point(|&c| c <= x)
            .min(self.keys.len() - 1);
        let (_, space, zipf) = &self.keys[which];
        &space[zipf.sample(rng)]
    }
}

/// A random itemset of 1..=3 items taken from one random transaction.
fn sub_itemset(window: &[Vec<Item>], max: usize, rng: &mut Rng) -> Vec<Item> {
    let t = &window[rng.below(window.len())];
    let want = 1 + rng.below(max);
    let mut items: Vec<Item> = Vec::with_capacity(want);
    for _ in 0..want * 2 {
        let i = t[rng.below(t.len())];
        if !items.contains(&i) {
            items.push(i);
        }
        if items.len() == want {
            break;
        }
    }
    items.sort_unstable();
    items
}

/// Collects `n` distinct keys from `make`, giving up on duplicates after
/// a bounded number of tries.
fn distinct(n: usize, mut make: impl FnMut() -> Key) -> Vec<Key> {
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    for _ in 0..n * 4 {
        let k = make();
        if seen.insert(k.payload.clone()) {
            out.push(k);
            if out.len() == n {
                break;
            }
        }
    }
    out
}

fn support_keys(window: &[Vec<Item>], num_items: u32, infrequent: f64, rng: &mut Rng) -> Vec<Key> {
    distinct(40_000, || {
        // 1-3 items; the infrequent share adds a universe item to 1-2.
        let widen = rng.unit() < infrequent;
        let mut items = sub_itemset(window, if widen { 2 } else { 3 }, rng);
        if widen {
            let extra = rng.below(num_items as usize) as Item;
            if !items.contains(&extra) {
                items.push(extra);
                items.sort_unstable();
            }
        }
        Key::new(
            Op::Support,
            Request::Support {
                items: items.clone(),
            },
            Some(items),
        )
    })
}

fn extension_keys(window: &[Vec<Item>], rng: &mut Rng) -> Vec<Key> {
    distinct(10_000, || {
        let items = sub_itemset(window, 2, rng);
        let k = [5, 10][rng.below(2)];
        Key::new(Op::Extensions, Request::Extensions { items, k }, None)
    })
}

fn top_k_keys() -> Vec<Key> {
    let mut out = Vec::new();
    for k in 1..=100 {
        for min_size in 1..=3 {
            out.push(Key::new(Op::TopK, Request::TopK { k, min_size }, None));
        }
    }
    out
}

fn recommend_keys(window: &[Vec<Item>], rng: &mut Rng) -> Vec<Key> {
    distinct(10_000, || {
        let items = sub_itemset(window, 3, rng);
        Key::new(Op::Recommend, Request::Recommend { items, k: 5 }, None)
    })
}

/// `query` keys, a quarter each of `SUPPORT OF … APPROX`, `TOP k WHERE`,
/// `RULES WHERE` and `MINE COND`.
fn query_keys(window: &[Vec<Item>], frequent: &[Item], rng: &mut Rng) -> Vec<Key> {
    let query = |expr: String, support_items: Option<Vec<Item>>| {
        Key::new(Op::Query, Request::Query { expr }, support_items)
    };
    let mut kinds: Vec<Vec<Key>> = vec![
        distinct(2_000, || {
            let items = sub_itemset(window, 3, rng);
            query(format!("SUPPORT OF {} APPROX", braces(&items)), Some(items))
        }),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    ];
    for k in [5, 10, 20] {
        for min_size in 1..=3 {
            for pct in 1..=30 {
                kinds[1].push(query(
                    format!(
                        "TOP {k} WHERE support >= {} AND size >= {min_size}",
                        pct as f64 * 0.001 + 0.004
                    ),
                    None,
                ));
            }
        }
        for conf in 10..=19 {
            for lift in 0..=5 {
                kinds[2].push(query(
                    format!(
                        "RULES WHERE confidence >= {} AND lift > {} TOP {k}",
                        conf as f64 * 0.05,
                        1.0 + lift as f64 * 0.5
                    ),
                    None,
                ));
            }
        }
        for &item in frequent {
            kinds[3].push(query(format!("MINE COND {{{item}}} TOP {k}"), None));
        }
    }
    // Interleave the four kinds so equal shares hold over any zipf head.
    let mut out = Vec::new();
    let longest = kinds.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for kind in &mut kinds {
            if i < kind.len() {
                out.push(kind[i].clone());
            }
        }
    }
    out
}

fn braces(items: &[Item]) -> String {
    let inner: Vec<String> = items.iter().map(u32::to_string).collect();
    format!("{{{}}}", inner.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_traffic() {
        let window = quest_sample(500, 7);
        assert_eq!(window, quest_sample(500, 7));
        assert_ne!(window, quest_sample(500, 8));
        let mix = Mix {
            shares: Op::ALL.iter().map(|&op| (op, 0.2)).collect(),
            zipf_exponent: 1.0,
            infrequent_share: 0.2,
        };
        let a = Traffic::new(&window, &[1, 2, 3], 1000, &mix, 3);
        let b = Traffic::new(&window, &[1, 2, 3], 1000, &mix, 3);
        let (mut ra, mut rb) = (Rng::new(9), Rng::new(9));
        for _ in 0..200 {
            assert_eq!(a.draw(&mut ra).payload, b.draw(&mut rb).payload);
        }
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = Rng::new(1);
        let draws: Vec<usize> = (0..10_000).map(|_| z.sample(&mut rng)).collect();
        let head = draws.iter().filter(|&&r| r < 10).count();
        let tail = draws.iter().filter(|&&r| r >= 990).count();
        assert!(head > 10 * tail.max(1), "head {head} tail {tail}");
        assert!(draws.iter().all(|&r| r < 1000));
    }

    #[test]
    fn mix_shares_hold() {
        let window = quest(2_000, 11);
        let mix = Mix {
            shares: vec![(Op::Support, 0.6), (Op::TopK, 0.4)],
            zipf_exponent: 1.0,
            infrequent_share: 0.2,
        };
        let t = Traffic::new(&window, &[], 1000, &mix, 5);
        let mut rng = Rng::new(2);
        let n = 20_000;
        let support = (0..n)
            .filter(|_| t.draw(&mut rng).op == Op::Support)
            .count();
        let share = support as f64 / n as f64;
        assert!((share - 0.6).abs() < 0.02, "support share {share}");
    }
}
